package policyc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/ir"
	"repro/internal/monitor"
)

// KernelPolicy is what New returns. Decide matches runtime.Policy
// structurally — the kernel accepts these without policyc importing
// the runtime package. Close releases any isolation goroutine; it is
// idempotent and must be called when the policy is swapped out or the
// app detaches. Metrics is a lock-free snapshot of the instance's
// execution counters, safe to call concurrently with Decide.
type KernelPolicy interface {
	Decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool)
	Metrics() Metrics
	Close() error
}

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
	// DeadlineDrops counts completed decisions an isolated policy
	// discarded because they were older than DecisionDeadline when the
	// tick came to collect them. Zero for inline policies, whose
	// decisions run on the tick path itself.
	DeadlineDrops    int64
	DecisionDeadline time.Duration
}

// Options configures policy instantiation.
type Options struct {
	// Params bind the entry aspect's inputs. Missing inputs bind to 0.
	Params map[string]float64
	// KnobValue supplies the current value of a knob for bare-name
	// reads and Scale. Nil reads as 0.
	KnobValue func(name string) float64
	// DecisionDeadline bounds how stale an isolated policy's decision
	// may be before it is dropped. Zero means 50ms. Ignored for inline
	// policies.
	DecisionDeadline time.Duration
}

const defaultDecisionDeadline = 50 * time.Millisecond

// New instantiates a compiled program as a kernel policy: a VMPolicy
// for inline-classified programs, an IsolatedPolicy otherwise. Each
// instance gets its own globals namespace, so one Program can back
// many apps.
func New(p *Program, opts Options) (KernelPolicy, error) {
	if p == nil || p.Module == nil || p.Module.Funcs[p.Entry] == nil {
		return nil, fmt.Errorf("policyc: program has no entry function")
	}
	vp := newVMPolicy(p, opts)
	if p.Class == Isolated {
		deadline := opts.DecisionDeadline
		if deadline <= 0 {
			deadline = defaultDecisionDeadline
		}
		return newIsolatedPolicy(vp, deadline), nil
	}
	return vp, nil
}

// VMPolicy runs compiled bytecode synchronously on the tick path. Any
// VM error — out of fuel, division by zero, NaN knob write — panics
// out of Decide; the kernel's tick-path recover turns that into
// per-app quarantine, exactly like a panicking Go policy.
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

	// Execution counters. decide() runs serialized (under mu, or on
	// the isolated worker goroutine), so plain load-then-store updates
	// are safe; atomics let Metrics read without taking mu — a status
	// endpoint must never queue behind a running decision.
	decisions atomic.Int64
	fuelLast  atomic.Int64
	fuelMax   atomic.Int64
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
		knobValue: opts.KnobValue,
		scratch:   make(map[string]float64, 2),
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
		for k := range vp.scratch {
			delete(vp.scratch, k)
		}
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
			base = vp.readKnob(name)
		}
		v = base * v
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ir.Value{}, fmt.Errorf("policy wrote non-finite value %g to knob %q", v, name)
	}
	vp.scratch[name] = v
	return ir.NumValue(0), nil
}

func (vp *VMPolicy) readKnob(name string) float64 {
	if vp.knobValue == nil {
		return 0
	}
	return vp.knobValue(name)
}

// Decide implements runtime.Policy (structurally).
func (vp *VMPolicy) Decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	cfg, ok, err := vp.decide(d, sums)
	if err != nil {
		// Degrade to quarantine via the tick-path recover, never
		// stall a commit.
		panic(fmt.Sprintf("policyc: policy %s: %v", vp.prog.AspectName, err))
	}
	return cfg, ok
}

func (vp *VMPolicy) decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool, error) {
	vp.marshalIn(d, sums)
	vp.hold = false
	for k := range vp.scratch {
		delete(vp.scratch, k)
	}
	vp.vm.Fuel = vp.prog.Fuel
	if _, err := vp.vm.Call(vp.prog.Entry, vp.args...); err != nil {
		return nil, false, err
	}
	used := vp.prog.Fuel - vp.vm.Fuel
	vp.decisions.Add(1)
	vp.fuelLast.Store(used)
	if used > vp.fuelMax.Load() {
		vp.fuelMax.Store(used)
	}
	if vp.hold || len(vp.scratch) == 0 {
		return nil, false, nil
	}
	cfg := make(autotune.Config, len(vp.scratch))
	for k, v := range vp.scratch {
		cfg[k] = v
	}
	return cfg, true, nil
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
		g[k[0]] = ir.NumValue(vp.readKnob(k[1]))
	}
}

// Metrics implements KernelPolicy.
func (vp *VMPolicy) Metrics() Metrics {
	return Metrics{
		Decisions:    vp.decisions.Load(),
		FuelBudget:   vp.prog.Fuel,
		FuelUsedLast: vp.fuelLast.Load(),
		FuelUsedMax:  vp.fuelMax.Load(),
	}
}

// Close implements KernelPolicy; inline policies hold no resources.
func (vp *VMPolicy) Close() error { return nil }

// IsolatedPolicy runs the VM on its own goroutine so an expensive or
// dynamic policy never executes inside the epoch commit window. Decide
// submits a snapshot without blocking and picks up the most recent
// completed decision, dropping it if it is older than the deadline.
// A policy that crashes on its goroutine fails sticky: the next Decide
// panics with the original error, routing the app to quarantine.
type IsolatedPolicy struct {
	inner    *VMPolicy
	deadline time.Duration

	req    chan isoReq
	res    atomic.Pointer[isoRes]
	failed atomic.Pointer[string]
	closed atomic.Bool
	once   sync.Once
	done   chan struct{}
	drops  atomic.Int64
}

type isoReq struct {
	d    monitor.Decision
	sums map[string]monitor.Summary
	at   time.Time
}

type isoRes struct {
	cfg autotune.Config
	ok  bool
	at  time.Time
}

func newIsolatedPolicy(inner *VMPolicy, deadline time.Duration) *IsolatedPolicy {
	ip := &IsolatedPolicy{
		inner:    inner,
		deadline: deadline,
		req:      make(chan isoReq, 1),
		done:     make(chan struct{}),
	}
	go ip.run()
	return ip
}

func (ip *IsolatedPolicy) run() {
	defer close(ip.done)
	for r := range ip.req {
		cfg, ok, err := ip.inner.decide(r.d, r.sums)
		if err != nil {
			msg := fmt.Sprintf("policyc: isolated policy %s: %v", ip.inner.prog.AspectName, err)
			ip.failed.Store(&msg)
			return
		}
		ip.res.Store(&isoRes{cfg: cfg, ok: ok, at: r.at})
	}
}

// Decide implements runtime.Policy (structurally). It never blocks on
// the worker: if the worker is busy the snapshot is dropped, and a
// completed decision is only honoured while it is fresher than the
// deadline.
func (ip *IsolatedPolicy) Decide(d monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool) {
	if msg := ip.failed.Load(); msg != nil {
		panic(*msg)
	}
	if ip.closed.Load() {
		return nil, false
	}
	snap := make(map[string]monitor.Summary, len(sums))
	for k, v := range sums {
		snap[k] = v
	}
	select {
	case ip.req <- isoReq{d: d, sums: snap, at: time.Now()}:
	default: // worker busy: drop this snapshot
	}
	r := ip.res.Swap(nil)
	if r == nil {
		return nil, false // no completed decision to collect yet
	}
	if time.Since(r.at) > ip.deadline {
		ip.drops.Add(1)
		return nil, false // stale decision dropped
	}
	return r.cfg, r.ok
}

// Metrics implements KernelPolicy: the inner VM's counters plus the
// isolation layer's deadline accounting.
func (ip *IsolatedPolicy) Metrics() Metrics {
	m := ip.inner.Metrics()
	m.DeadlineDrops = ip.drops.Load()
	m.DecisionDeadline = ip.deadline
	return m
}

// Close stops the worker goroutine and waits for it to exit.
func (ip *IsolatedPolicy) Close() error {
	ip.once.Do(func() {
		ip.closed.Store(true)
		close(ip.req)
	})
	<-ip.done
	return nil
}
