package rtrm

import (
	"sync"

	"repro/internal/simhpc"
)

// This file splits the manager's control epoch into its sub-stages, so
// the dispatch loop can fan out across workers and each stage can be
// timed on its own:
//
//   BeginEpoch  — cluster-level decisions: MS3 admission + cooling, the
//                 power-cap fit (serial; mutates manager state);
//   SweepEpoch  — the governor sweep: resolve every admitted task's
//                 P-state, pre-clamped by the thermal ceiling and the
//                 cap plan (serial; the optimal governor's memo map is
//                 not goroutine-safe);
//   DispatchEpoch — run the admitted tasks on their nodes (the only
//                 parallel stage: nodes are partitioned into contiguous
//                 worker blocks, and every P-state was resolved by the
//                 sweep, so workers touch disjoint devices and disjoint
//                 scratch slots);
//   CommitEpoch — merge the per-node partials, advance thermals, fold
//                 the cumulative counters (serial).
//
// RunEpoch is the composition, handing its workers budget to
// DispatchEpoch, so the one-call entry point and the staged one are the
// same code path.
//
// Determinism: energy and done-work accumulate into per-node partial
// sums (each node's tasks in ascending submission order) merged in node
// index order at commit. That order is independent of the worker count,
// so DispatchEpoch(1) and DispatchEpoch(8) produce bit-identical
// reports — protocol-equivalence tests stay exact under any core
// budget. Workers accumulate a node's partials in locals and store once
// per node, so adjacent nodes sharing a cache line cost one write, not
// a ping-pong per task.

// epochScratch is the manager's in-flight epoch state between
// BeginEpoch and CommitEpoch. All slices are reused across epochs;
// admitted aliases the caller's offered slice only until commit.
type epochScratch struct {
	dt       float64
	rep      EpochReport
	cap      CapResult
	admitted []*simhpc.Task
	devs     []*simhpc.Device // per node, resolved once per epoch
	ceil     []int            // per node thermal ceiling, stable within the epoch
	ps       []int            // per admitted task, resolved by the sweep
	nodeE    []float64        // per node energy partials
	nodeG    []float64        // per node done-GFlop partials
}

// BeginEpoch opens a control epoch of length dt seconds: MS3 decides
// admission and cooling, the capper fits the envelope. Serial — it
// mutates cluster and manager state.
func (m *Manager) BeginEpoch(dt float64, offered []*simhpc.Task) {
	ep := &m.ep
	ep.dt = dt
	ep.rep = EpochReport{}
	plan := m.MS3.Decide(m.Cluster)
	m.Cluster.Cooling.CoolingBoost = plan.CoolingBoost
	ep.rep.Plan = plan

	admit := int(float64(len(offered)) * plan.AdmitFraction)
	ep.admitted = offered[:admit]
	for _, t := range offered[admit:] {
		ep.rep.DeferredGFlop += t.GFlop
	}

	cap := m.Capper.Apply(m.Cluster, 1)
	ep.rep.Cap = cap
	ep.cap = cap
	m.CapDemotions += cap.Demotions
}

// SweepEpoch resolves every admitted task's P-state: the governor's
// pick, clamped by the node's thermal ceiling and the cap plan. Serial
// — the optimal governor memoizes into a plain map. The per-node device
// and ceiling are resolved once here: both are stable within an epoch
// (Thermal.Update only runs at commit).
func (m *Manager) SweepEpoch() {
	ep := &m.ep
	nodes := m.Cluster.Nodes
	ep.devs = resizeSlice(ep.devs, len(nodes))
	ep.ceil = resizeSlice(ep.ceil, len(nodes))
	for n, node := range nodes {
		dev := node.CPUDevice()
		if dev == nil {
			dev = node.Devices[0]
		}
		ep.devs[n] = dev
		ceil := m.Thermal.Ceiling(node)
		if capPS, ok := capPState(ep.cap, n); ok && ceil > capPS {
			ceil = capPS
		}
		ep.ceil[n] = ceil
	}
	ep.ps = resizeSlice(ep.ps, len(ep.admitted))
	for i, t := range ep.admitted {
		n := i % len(nodes)
		ps := m.Gov.PickPState(ep.devs[n], t)
		if c := ep.ceil[n]; ps > c {
			ps = c
		}
		ep.ps[i] = ps
	}
}

// DispatchEpoch runs the admitted tasks on their round-robin nodes at
// the P-states the sweep resolved, fanned out across up to `workers`
// goroutines over contiguous node blocks. Worker w owns whole nodes, so
// device mutation (SetPState) and the partial-sum slots are disjoint;
// per-node task order is ascending submission order under any worker
// count. workers ≤ 1 dispatches inline with no goroutines.
func (m *Manager) DispatchEpoch(workers int) {
	ep := &m.ep
	nNodes := len(m.Cluster.Nodes)
	ep.nodeE = resizeSlice(ep.nodeE, nNodes)
	ep.nodeG = resizeSlice(ep.nodeG, nNodes)
	if workers > nNodes {
		workers = nNodes
	}
	// Goroutine spawn + join costs ~µs; below ~32 tasks per worker the
	// fan-out is pure overhead.
	if max := 1 + len(ep.admitted)/32; workers > max {
		workers = max
	}
	if workers <= 1 {
		m.dispatchNodes(0, nNodes)
		return
	}
	per := (nNodes + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > nNodes {
			hi = nNodes
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.dispatchNodes(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// dispatchNodes runs the admitted tasks of nodes [lo, hi): for node n
// those are tasks n, n+N, n+2N, ... in ascending order — the same
// per-node order and final P-state the serial loop produces. Partials
// accumulate in locals and store once per node.
func (m *Manager) dispatchNodes(lo, hi int) {
	ep := &m.ep
	nNodes := len(m.Cluster.Nodes)
	for n := lo; n < hi; n++ {
		dev := ep.devs[n]
		var e, g float64
		for i := n; i < len(ep.admitted); i += nNodes {
			t := ep.admitted[i]
			ps := ep.ps[i]
			dev.SetPState(ps)
			e += dev.ExecEnergy(t, ps)
			g += t.GFlop
		}
		ep.nodeE[n] = e
		ep.nodeG[n] = g
	}
}

// CommitEpoch closes the epoch: merge the per-node partials in node
// index order, advance thermal state, fold the cumulative counters.
// Serial. The report it returns is what RunEpoch returns for the same
// inputs.
func (m *Manager) CommitEpoch() EpochReport {
	ep := &m.ep
	for n := range m.Cluster.Nodes {
		ep.rep.EnergyJ += ep.nodeE[n]
		ep.rep.DoneGFlop += ep.nodeG[n]
	}

	hot := m.Cluster.StepThermals(ep.dt, 1)
	ep.rep.HotNodes = hot
	m.ThermalEvents += hot
	for _, n := range m.Cluster.Nodes {
		m.Thermal.Update(n)
	}

	m.EpochCount++
	m.EnergyJ += ep.rep.EnergyJ
	m.WorkGFlop += ep.rep.DoneGFlop
	m.DeferredGFlop += ep.rep.DeferredGFlop

	// The admitted view aliases the caller's offered slice; drop it so
	// a burst epoch's tasks are not pinned until the next epoch.
	ep.admitted = nil
	return ep.rep
}

// resizeSlice returns s resized to n, reusing capacity; numeric slots
// are reset to zero values.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
