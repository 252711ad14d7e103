package rtrm

import "repro/internal/simhpc"

// Manager is the scalable multilayer resource-management infrastructure
// of §V: a cluster-level layer (power capping, seasonal scheduling) over
// per-node layers (governor + thermal safety). Each control epoch it
// fuses the three information flows the paper lists — application
// requirements (the task at hand), processing-element telemetry
// (temperature, power) and IT-infrastructure state (ambient, PUE) — into
// per-node operating points.
type Manager struct {
	Cluster *simhpc.Cluster
	Gov     Governor
	Thermal *ThermalController
	Capper  *PowerCapper
	MS3     *MS3Scheduler

	// Telemetry accumulated across epochs.
	EpochCount    int
	EnergyJ       float64
	WorkGFlop     float64
	DeferredGFlop float64
	ThermalEvents int
	CapDemotions  int

	// ep is the in-flight epoch scratch of the staged API (epoch.go),
	// reused across epochs.
	ep epochScratch
}

// NewManager wires the default control stack over a cluster with the
// given facility power cap (watts).
func NewManager(c *simhpc.Cluster, capW float64) *Manager {
	return &Manager{
		Cluster: c,
		Gov:     &OptimalGovernor{MaxSlowdown: 1.5},
		Thermal: NewThermalController(),
		Capper:  &PowerCapper{CapW: capW},
		MS3:     NewMS3(),
	}
}

// EpochReport summarizes one control epoch.
type EpochReport struct {
	Plan          Plan
	Cap           CapResult
	HotNodes      int
	EnergyJ       float64
	DoneGFlop     float64
	DeferredGFlop float64
}

// RunEpoch executes one control epoch of length dt seconds: MS3 decides
// admission and cooling, the capper fits the envelope, each node runs
// its share of offered under governor+thermal control, and thermal
// state advances. It is the staged API (epoch.go) composed in order,
// with the dispatch sub-stage fanned out over at most workers
// goroutines; the report is bit-identical for every workers value.
func (m *Manager) RunEpoch(dt float64, offered []*simhpc.Task, workers int) EpochReport {
	m.BeginEpoch(dt, offered)
	m.SweepEpoch()
	m.DispatchEpoch(workers)
	return m.CommitEpoch()
}

// capPState returns the capped P-state for the node at nodeIdx. The
// cap plan indexes by node — never by task — and a plan shorter than
// the cluster (or empty) simply leaves the uncovered nodes uncapped
// instead of silently misaligning node and P-state or panicking.
func capPState(cap CapResult, nodeIdx int) (int, bool) {
	if nodeIdx < 0 || nodeIdx >= len(cap.PStates) {
		return 0, false
	}
	return cap.PStates[nodeIdx], true
}

// Stats is a copy of the manager's cumulative epoch telemetry. Taking
// one while RunEpoch may be running races; callers who share a manager
// with a running kernel should snapshot through the kernel
// (Kernel.BackendStats), which serializes against the epoch executor.
type Stats struct {
	Epochs        int
	WorkGFlop     float64
	DeferredGFlop float64
	EnergyJ       float64
	ThermalEvents int
	CapDemotions  int
}

// Stats snapshots the cumulative telemetry counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Epochs:        m.EpochCount,
		WorkGFlop:     m.WorkGFlop,
		DeferredGFlop: m.DeferredGFlop,
		EnergyJ:       m.EnergyJ,
		ThermalEvents: m.ThermalEvents,
		CapDemotions:  m.CapDemotions,
	}
}

// EfficiencyGFLOPSPerJ returns work done per joule so far.
func (m *Manager) EfficiencyGFLOPSPerJ() float64 {
	if m.EnergyJ == 0 {
		return 0
	}
	return m.WorkGFlop / m.EnergyJ
}
