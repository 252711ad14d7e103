// Package runtime is the concurrent adaptation kernel of the
// reproduction: it owns the collect–analyse–decide–act loop of paper §II
// for many applications at once and multiplexes their epoch workloads
// into a single shared rtrm.Manager — the two coupled control loops of
// Fig. 1 (application autotuning, cluster resource management) lifted
// out of per-example wiring into one goroutine-safe engine.
//
// The building blocks were extracted from the old monitor.Loop +
// autotune.Tuner + core.App tangle:
//
//   - Inbox — the collect stage: a concurrent buffer of the telemetry
//     samples pushed since the last tick;
//   - Policy — the decide stage: picks the next configuration when the
//     SLA trigger fires;
//   - Knob — the act stage: actuates the chosen configuration.
//
// A Controller runs one application's loop over these stages; a Kernel
// runs many Controllers — either synchronously (RunEpoch, for
// deterministic simulation drivers) or concurrently (Start/Stop, one
// goroutine per application feeding a batched epoch scheduler).
package runtime

import (
	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/simhpc"
)

// Sample is one telemetry observation.
type Sample struct {
	Metric string
	Value  float64
}

// Policy is the decide stage: when the debounced SLA trigger fires,
// Decide picks the configuration to switch to. ok=false keeps the
// current configuration (e.g. the knowledge base knows nothing better).
// The sums map is scratch the control loop reuses across ticks: it is
// only valid for the duration of the call and must not be retained.
type Policy interface {
	Decide(d monitor.Decision, sums map[string]monitor.Summary) (cfg autotune.Config, ok bool)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool)

// Decide implements Policy.
func (f PolicyFunc) Decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool) {
	return f(d, sums)
}

// Knob is the act stage: Apply actuates a configuration chosen by the
// policy. Implementations must tolerate calls from the control-loop
// goroutine while the application is serving.
type Knob interface {
	Apply(cfg autotune.Config)
}

// KnobFunc adapts a function to the Knob interface.
type KnobFunc func(autotune.Config)

// Apply implements Knob.
func (f KnobFunc) Apply(cfg autotune.Config) { f(cfg) }

// Workload materializes the application's next-epoch tasks for the
// cluster under its currently applied configuration. The returned
// slice and its tasks are handed to the manager, which may still be
// reading them while the kernel's pipelined epochs invoke Workload
// again (or an abandoned commit finishes in the background) — so they
// are immutable once returned; may be returned again. A workload whose
// tasks did not change can hand back the same slice every epoch; one
// whose tasks changed builds a new slice instead of rewriting the old.
type Workload func() ([]*simhpc.Task, error)

// AppSpec declares one adaptive application to a Controller or Kernel.
// Sensor, Policy, Knob and Workload are all optional: a pure compute app
// may only have a Workload; a pure serving app may have no Workload.
type AppSpec struct {
	Name string
	// SLA is checked against the windowed metric summaries each tick.
	SLA monitor.SLA
	// Window is the samples-per-metric window size (default 32).
	Window int
	// Debounce is the consecutive-violation count required before the
	// policy is consulted (default 2).
	Debounce int

	// Backend optionally names the kernel backend this app prefers —
	// the placement hint. All shipped placement policies pin an app
	// whose hint matches a registered backend; an unmatched hint is
	// ignored (the policy places the app as if unhinted).
	Backend string

	// Sensor is the collect stage: each tick drains it into the metric
	// windows.
	Sensor   *Inbox
	Policy   Policy
	Knob     Knob
	Workload Workload

	// OnEpoch, when set, receives every kernel epoch result this app
	// contributed to. In concurrent mode it is called from the kernel's
	// epoch-executor goroutine, possibly while this app's control loop
	// is already ticking the next epoch.
	OnEpoch func(EpochResult)
}
