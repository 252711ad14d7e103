package policyc

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/autotune"
	"repro/internal/ir"
	"repro/internal/monitor"
)

// Metrics is a point-in-time view of one policy instance's execution
// accounting — the observability needed to see a near-quarantine
// program (fuel creeping toward the budget, decisions going stale)
// before it trips.
type Metrics struct {
	// Decisions counts completed VM executions (a crashed execution
	// quarantines the app instead of counting).
	Decisions int64
	// FuelBudget is the per-decision budget; FuelUsedLast/FuelUsedMax
	// are the most recent and worst observed spends against it. A
	// FuelUsedMax near FuelBudget is the early warning.
	FuelBudget   int64
	FuelUsedLast int64
	FuelUsedMax  int64
	// DeadlineDrops counts completed decisions discarded for spanning
	// more than DecisionDeadlineTicks Decide calls.
	DeadlineDrops         int64
	DecisionDeadlineTicks int64
}

// Options configures policy instantiation.
type Options struct {
	// Params bind the entry aspect's inputs. Missing inputs bind to 0.
	Params map[string]float64
	// KnobValue supplies the current value of a knob for bare-name
	// reads and Scale. Nil reads as 0.
	KnobValue func(name string) float64
}

// sliceCycles is the most cycles one Decide runs of the decision in
// flight. The bar is deliberately low: a decision runs inside the commit
// window the epoch fights to keep short. A small, loop-free strategy —
// every policy the bench or the examples ship — finishes in one slice;
// a longer one resumes on the next call.
const sliceCycles = 4096

// decisionFuel is the per-decision fuel budget. Big enough for any sane
// strategy, small enough that a runaway policy dies within 256 slices.
const decisionFuel = 1 << 20

// decisionDeadlineTicks bounds how many Decide calls a decision may
// span and still be honoured: the shipped 50 ms decision deadline over
// the shipped 5 ms tick interval.
const decisionDeadlineTicks = 10

// New instantiates a compiled program as a *VMPolicy with its own
// globals namespace, so one Program can back many apps.
func New(p *Program, opts Options) (*VMPolicy, error) {
	if p == nil || p.Module == nil || p.Module.Funcs[p.Entry] == nil {
		return nil, fmt.Errorf("policyc: program has no entry function")
	}
	return newVMPolicy(p, opts), nil
}

// VMPolicy runs compiled bytecode on the tick path, one slice of at
// most 4 096 cycles per Decide. Decide matches runtime.Policy
// structurally — the kernel accepts a VMPolicy without policyc
// importing the runtime package. A policy owns no goroutine or
// resource: dropping it is enough. Any VM error — out of fuel, division
// by zero, NaN knob write — panics out of Decide; the kernel's tick-path
// recover turns that into per-app quarantine, exactly like a panicking
// Go policy.
type VMPolicy struct {
	mu   sync.Mutex
	prog *Program
	vm   *ir.VM
	args []ir.Value

	knobValue func(string) float64
	scratch   map[string]float64
	hold      bool

	// refGlobals[i] is prog.Refs[i]'s global name; readKnobs pairs each
	// read knob with its global. Both are built once in newVMPolicy, so
	// marshalling a decision builds no strings.
	refGlobals []string
	readKnobs  [][2]string

	// slice is the cycles one Decide may run. A decision in flight has
	// spanned calls Decide calls and is honoured only within deadline;
	// the globals hold the inputs it started with.
	slice    int64
	deadline int
	inflight bool
	calls    int

	// Execution counters. Decide runs under mu, so plain load-then-
	// store updates are safe; atomics let Metrics read without taking
	// mu — a status endpoint must never queue behind a running
	// decision.
	decisions atomic.Int64
	fuelLast  atomic.Int64
	fuelMax   atomic.Int64
	drops     atomic.Int64
}

func newVMPolicy(p *Program, opts Options) *VMPolicy {
	// Share the read-only code, own the mutable globals.
	mod := &ir.Module{
		Funcs:    p.Module.Funcs,
		Variants: p.Module.Variants,
		Globals:  make(map[string]ir.Value, len(p.Refs)+len(p.Knobs)+1),
	}
	vp := &VMPolicy{
		prog:      p,
		vm:        ir.NewVM(mod),
		knobValue: func(string) float64 { return 0 },
		scratch:   make(map[string]float64, 2),
		slice:     sliceCycles,
		deadline:  decisionDeadlineTicks,
	}
	if opts.KnobValue != nil {
		vp.knobValue = opts.KnobValue
	}
	for _, ref := range p.Refs {
		vp.refGlobals = append(vp.refGlobals, ref.global())
	}
	for _, k := range p.Knobs {
		if !k.Write {
			vp.readKnobs = append(vp.readKnobs, [2]string{"k:" + k.Name, k.Name})
		}
	}
	vp.args = make([]ir.Value, len(p.Inputs))
	for i, name := range p.Inputs {
		vp.args[i] = ir.NumValue(opts.Params[name])
	}
	vp.vm.RegisterExtern(externSet, func(_ *ir.VM, args []ir.Value) (ir.Value, error) {
		return vp.externWrite(args, false)
	})
	vp.vm.RegisterExtern(externScale, func(_ *ir.VM, args []ir.Value) (ir.Value, error) {
		return vp.externWrite(args, true)
	})
	vp.vm.RegisterExtern(externHold, func(_ *ir.VM, _ []ir.Value) (ir.Value, error) {
		vp.hold = true
		clear(vp.scratch)
		return ir.NumValue(0), nil
	})
	return vp
}

func (vp *VMPolicy) externWrite(args []ir.Value, scale bool) (ir.Value, error) {
	if len(args) != 2 || args[0].Kind != ir.KindStr {
		return ir.Value{}, fmt.Errorf("policy extern: want (name, value)")
	}
	name, v := args[0].Str, args[1].Num
	if scale {
		base, staged := vp.scratch[name]
		if !staged {
			base = vp.knobValue(name)
		}
		v = base * v
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ir.Value{}, fmt.Errorf("policy wrote non-finite value %g to knob %q", v, name)
	}
	vp.scratch[name] = v
	return ir.NumValue(0), nil
}

// Decide implements runtime.Policy (structurally). With no decision
// in flight it marshals the inputs and starts one; then it runs one
// slice. A suspended or late decision returns no change.
func (vp *VMPolicy) Decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	if !vp.inflight {
		vp.marshalIn(d, sums)
		vp.hold = false
		clear(vp.scratch)
		vp.vm.Fuel = decisionFuel
		vp.vm.Start(vp.prog.Entry, vp.args...)
		vp.inflight, vp.calls = true, 0
	}
	vp.calls++
	done, _, err := vp.vm.Resume(vp.slice)
	if !done {
		return nil, false
	}
	vp.inflight = false
	if err != nil {
		// Degrade to quarantine via the tick-path recover, never
		// stall a commit.
		panic(fmt.Sprintf("policyc: policy %s: %v", vp.prog.AspectName, err))
	}
	used := decisionFuel - vp.vm.Fuel
	vp.decisions.Add(1)
	vp.fuelLast.Store(used)
	if used > vp.fuelMax.Load() {
		vp.fuelMax.Store(used)
	}
	if vp.calls > vp.deadline {
		vp.drops.Add(1)
		return nil, false
	}
	if vp.hold || len(vp.scratch) == 0 {
		return nil, false
	}
	return maps.Clone(vp.scratch), true
}

// marshalIn publishes only the globals the bytecode actually reads —
// the compile-time Refs/Knobs lists keep the per-decision marshalling
// proportional to the policy, not the app's metric count.
func (vp *VMPolicy) marshalIn(d monitor.Decision, sums map[string]monitor.Summary) {
	g := vp.vm.Mod.Globals
	if vp.prog.ReadsViolation {
		g["in:violation"] = ir.NumValue(d.Violation)
	}
	for i, ref := range vp.prog.Refs {
		s := sums[ref.Metric] // missing metric reads as a zero summary
		var v float64
		switch ref.Stat {
		case "count":
			v = float64(s.Count)
		case "mean":
			v = s.Mean
		case "stddev":
			v = s.StdDev
		case "min":
			v = s.Min
		case "max":
			v = s.Max
		case "p95":
			v = s.P95
		}
		g[vp.refGlobals[i]] = ir.NumValue(v)
	}
	for _, k := range vp.readKnobs {
		g[k[0]] = ir.NumValue(vp.knobValue(k[1]))
	}
}

// Close does nothing: a policy holds nothing to release. It stays for
// callers that close what they build.
func (vp *VMPolicy) Close() error { return nil }

// Metrics is a lock-free snapshot of the execution counters, safe to
// call concurrently with Decide.
func (vp *VMPolicy) Metrics() Metrics {
	return Metrics{
		Decisions:             vp.decisions.Load(),
		FuelBudget:            decisionFuel,
		FuelUsedLast:          vp.fuelLast.Load(),
		FuelUsedMax:           vp.fuelMax.Load(),
		DeadlineDrops:         vp.drops.Load(),
		DecisionDeadlineTicks: int64(vp.deadline),
	}
}
