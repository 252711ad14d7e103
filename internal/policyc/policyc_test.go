package policyc

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/monitor"
)

const steerSrc = `
aspectdef Steer
	input gain end
	apply
		do Set('level', 1 - violation + gain);
	end
	condition violation > 0 end
end
`

func compileOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestCompileSteer(t *testing.T) {
	p := compileOK(t, steerSrc)
	if p.AspectName != "Steer" || p.Entry != "aspect:Steer" {
		t.Fatalf("entry = %s/%s", p.AspectName, p.Entry)
	}
	if !p.ReadsViolation {
		t.Fatal("ReadsViolation = false")
	}
	if len(p.Knobs) != 1 || p.Knobs[0].Name != "level" || !p.Knobs[0].Write {
		t.Fatalf("knobs = %+v", p.Knobs)
	}
	if !strings.HasPrefix(p.SourceHash, "sha256:") || len(p.SourceHash) != len("sha256:")+64 {
		t.Fatalf("source hash = %q", p.SourceHash)
	}
}

func TestDecideGuardedSet(t *testing.T) {
	p := compileOK(t, steerSrc)
	pol, err := New(p, Options{Params: map[string]float64{"gain": 0.25}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	cfg, ok := pol.Decide(monitor.Decision{Adapt: true, Violation: 0.5}, nil)
	if !ok || cfg["level"] != 0.75 {
		t.Fatalf("violating decide = %v %v, want level=0.75", cfg, ok)
	}
	// Condition false: the guarded apply is skipped, no change.
	if cfg, ok := pol.Decide(monitor.Decision{}, nil); ok {
		t.Fatalf("non-violating decide fired: %v", cfg)
	}
}

func TestDecideMetricRefsAndHold(t *testing.T) {
	src := `
aspectdef Watch
	apply
		do Set('level', latency.p95 - latency.mean);
	end
	apply
		do Hold();
	end
	condition latency.count < 3 end
end
`
	p := compileOK(t, src)
	want := map[MetricRef]bool{
		{Metric: "latency", Stat: "p95"}:   true,
		{Metric: "latency", Stat: "mean"}:  true,
		{Metric: "latency", Stat: "count"}: true,
	}
	if len(p.Refs) != len(want) {
		t.Fatalf("refs = %+v", p.Refs)
	}
	for _, r := range p.Refs {
		if !want[r] {
			t.Fatalf("unexpected ref %+v", r)
		}
	}
	pol, err := New(p, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	sums := map[string]monitor.Summary{"latency": {Count: 10, Mean: 0.2, P95: 0.9}}
	cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, sums)
	if !ok || cfg["level"] != 0.9-0.2 {
		t.Fatalf("decide = %v %v", cfg, ok)
	}
	// Low count trips the guarded Hold, which discards the staged Set.
	sums["latency"] = monitor.Summary{Count: 2, Mean: 0.2, P95: 0.9}
	if cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, sums); ok {
		t.Fatalf("hold still fired: %v", cfg)
	}
}

func TestDecideScaleReadsKnob(t *testing.T) {
	src := `
aspectdef Back
	apply
		do Scale('level', 0.5);
	end
end
`
	pol, err := New(compileOK(t, src), Options{
		KnobValue: func(name string) float64 {
			if name != "level" {
				t.Errorf("knob read %q", name)
			}
			return 2
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil)
	if !ok || cfg["level"] != 1 {
		t.Fatalf("decide = %v %v, want level=1", cfg, ok)
	}
}

func TestHelperCallAndReturn(t *testing.T) {
	src := `
aspectdef Main
	input bias end
	call r: Shift(bias);
	apply
		do Set('level', r);
	end
end
aspectdef Shift
	input x end
	apply
		do Return(x - 1);
	end
end
`
	pol, err := New(compileOK(t, src), Options{Params: map[string]float64{"bias": 3}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil)
	if !ok || cfg["level"] != 2 {
		t.Fatalf("decide = %v %v, want level=2", cfg, ok)
	}
}

func TestShortCircuitOps(t *testing.T) {
	src := `
aspectdef Logic
	input a, b end
	apply
		do Set('and', a && b);
		do Set('or', a || b);
		do Set('not', !a);
	end
end
`
	p := compileOK(t, src)
	cases := []struct{ a, b, and, or, not float64 }{
		{0, 0, 0, 0, 1},
		{0, 7, 0, 1, 1},
		{5, 0, 0, 1, 0},
		{5, 7, 1, 1, 0},
	}
	for _, c := range cases {
		pol, err := New(p, Options{Params: map[string]float64{"a": c.a, "b": c.b}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil)
		if !ok || cfg["and"] != c.and || cfg["or"] != c.or || cfg["not"] != c.not {
			t.Fatalf("a=%g b=%g: cfg=%v ok=%v want and=%g or=%g not=%g",
				c.a, c.b, cfg, ok, c.and, c.or, c.not)
		}
	}
}

func TestCompileDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, want string
		line            int
	}{
		{"select", "aspectdef A\n\tselect fCall end\nend", "no program to select from", 2},
		{"insert", "aspectdef A\n\tapply\n\t\tinsert before %{x();}%;\n\tend\nend", "insert templates weave source programs", 3},
		{"weave action", "aspectdef A\n\tapply\n\t\tdo LoopUnroll('full');\n\tend\nend", "weaver action \"LoopUnroll\"", 3},
		{"unknown action", "aspectdef A\n\tapply\n\t\tdo Bump(1);\n\tend\nend", "unknown action \"Bump\"", 3},
		{"unknown aspect", "aspectdef A\n\tcall Nope();\nend", "unknown aspect \"Nope\"", 2},
		{"arity", "aspectdef A\n\tcall B(1, 2);\nend\naspectdef B\n\tinput x end\nend", "expects 1 inputs, got 2", 2},
		{"bad stat", "aspectdef A\n\tapply\n\t\tdo Set('level', latency.median);\n\tend\nend", "unknown summary stat", 3},
		{"scalar attr", "aspectdef A\n\tinput x end\n\tapply\n\t\tdo Set('level', x.mean);\n\tend\nend", "scalar", 4},
		{"stray condition", "aspectdef A\n\tcondition violation > 0 end\nend", "must directly follow an apply", 2},
		{"string expr", "aspectdef A\n\tapply\n\t\tdo Set('level', 'high');\n\tend\nend", "string literals are only valid", 3},
		{"dup aspect", "aspectdef A\nend\naspectdef A\nend", "duplicate aspect", 3},
		{"parse error", "aspectdef A\n\tapply do", "expected identifier", 2},
		{"empty", "   ", "no aspect definitions", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			ce, ok := err.(*CompileError)
			if !ok {
				t.Fatalf("err = %v, want *CompileError", err)
			}
			found := false
			for _, d := range ce.Diags {
				if strings.Contains(d.Msg, c.want) {
					found = true
					if d.Line != c.line {
						t.Fatalf("diag %q at line %d, want %d", d.Msg, d.Line, c.line)
					}
				}
			}
			if !found {
				t.Fatalf("diags %v lack %q", ce.Diags, c.want)
			}
		})
	}
}

// TestClassifyDynamicIsolated keeps the name of the test that once
// classified `apply dynamic` as needing isolation. There is one kind of
// policy now: a dynamic apply compiles like any other and a cheap
// dynamic decision lands in its first Decide.
func TestClassifyDynamicIsolated(t *testing.T) {
	src := `
aspectdef Dyn
	apply dynamic
		do Set('level', 1);
	end
end
`
	pol, err := New(compileOK(t, src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil)
	if !ok || cfg["level"] != 1 || pol.inflight {
		t.Fatalf("first Decide = %v %v (in flight %v), want level=1", cfg, ok, pol.inflight)
	}
	if m := pol.Metrics(); m.Decisions != 1 || m.FuelBudget != decisionFuel {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestClassifyRecursionIsolated keeps the name of the test that once
// classified a call cycle as needing isolation. A self-recursive
// runaway still panics out of Decide — the tick path's quarantine
// signal — within a bounded number of calls, and never returns a
// change on the way.
func TestClassifyRecursionIsolated(t *testing.T) {
	pol, err := New(compileOK(t, "aspectdef A\n\tcall A();\nend"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "depth") {
			t.Fatalf("panic = %v, want the call-depth error", r)
		}
		if calls > 2 {
			t.Fatalf("runaway panicked after %d Decide calls, want at most 2", calls)
		}
	}()
	for calls < decisionDeadlineTicks {
		calls++
		if cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil); ok {
			t.Fatalf("call %d: runaway returned %v", calls, cfg)
		}
	}
	t.Fatalf("no panic in %d Decide calls", calls)
}

// TestClassifyCostIsolated keeps the name of the test that once
// classified an over-budget program as needing isolation. A decision
// costing more than one slice spans several Decide calls and lands.
func TestClassifyCostIsolated(t *testing.T) {
	pol, err := New(compileOK(t, bigPolicy(300)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for pol.inflight || calls == 0 {
		calls++
		cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil)
		if !pol.inflight && (!ok || cfg["level"] != 10) {
			t.Fatalf("decision landed as %v %v, want level=10", cfg, ok)
		}
	}
	if m := pol.Metrics(); calls < 2 || m.FuelUsedLast <= sliceCycles || m.DeadlineDrops != 0 {
		t.Fatalf("%d calls, metrics %+v: want a multi-slice decision honoured", calls, m)
	}
}

// TestIsolatedDecisionFlow: a cheap dynamic policy runs its whole
// decision in the first slice, so it decides on its first call.
func TestIsolatedDecisionFlow(t *testing.T) {
	src := `
aspectdef Dyn
	apply dynamic
		do Set('level', 1 - violation);
	end
end
`
	pol, err := New(compileOK(t, src), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		cfg, ok := pol.Decide(monitor.Decision{Adapt: true, Violation: 0.5}, nil)
		if !ok || cfg["level"] != 0.5 {
			t.Fatalf("call %d: decide = %v %v, want level=0.5", i, cfg, ok)
		}
	}
	if m := pol.Metrics(); m.Decisions != 3 || m.DeadlineDrops != 0 || m.DecisionDeadlineTicks != decisionDeadlineTicks {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestIsolatedStaleDecisionDropped: a decision that spans more Decide
// calls than the deadline allows is dropped and counted, however many
// decisions complete.
func TestIsolatedStaleDecisionDropped(t *testing.T) {
	src := `
aspectdef Dyn
	apply dynamic
		do Set('level', 1);
	end
end
`
	pol, err := New(compileOK(t, src), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pol.deadline = 0 // even a one-call decision is late
	for i := 0; i < 50; i++ {
		if cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil); ok {
			t.Fatalf("stale decision honoured: %v", cfg)
		}
	}
	if m := pol.Metrics(); m.Decisions != 50 || m.DeadlineDrops != 50 {
		t.Fatalf("metrics = %+v, want 50 decisions all dropped", m)
	}
}

// TestRunawayPolicyPanics: a recursive policy hits the VM's depth
// limit after 512 calls of 10 cycles each. That is 5 120 cycles, so its
// first Decide runs one slice and returns no change, and the second
// panics — the tick path's quarantine signal.
func TestRunawayPolicyPanics(t *testing.T) {
	src := `
aspectdef Ping
	call Pong();
end
aspectdef Pong
	call Ping();
end
`
	pol, err := New(compileOK(t, src), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cfg, ok := pol.Decide(monitor.Decision{Adapt: true}, nil); ok {
		t.Fatalf("first Decide = %v, want the runaway suspended", cfg)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "Ping") || !strings.Contains(r.(string), "depth") {
			t.Fatalf("panic = %v, want Ping's depth error", r)
		}
	}()
	pol.Decide(monitor.Decision{Adapt: true}, nil)
	t.Fatal("second Decide returned")
}

// bigPolicy is n straight-line knob writes, 19 cycles each: past 215
// writes a decision outlasts one slice.
func bigPolicy(n int) string {
	var b strings.Builder
	b.WriteString("aspectdef Big\n\tapply\n")
	for i := 0; i < n; i++ {
		b.WriteString("\t\tdo Set('level', 1 + 2 + 3 + 4);\n")
	}
	b.WriteString("\tend\nend\n")
	return b.String()
}

// TestIsolatedSliceBound: a decision that outlasts many slices never
// runs more than one slice of cycles in one Decide, resumes
// where it stopped, and — past the deadline's count of calls — is
// dropped and counted.
func TestIsolatedSliceBound(t *testing.T) {
	d := monitor.Decision{Adapt: true}
	for _, c := range []struct {
		writes int
		drops  int64 // 1: the decision outlasts the deadline
	}{{1000, 0}, {3000, 1}} {
		pol, err := New(compileOK(t, bigPolicy(c.writes)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for {
			calls++
			before := pol.vm.Cycles
			cfg, ok := pol.Decide(d, nil)
			if ran := pol.vm.Cycles - before; ran > sliceCycles {
				t.Fatalf("%d writes: one Decide ran %d cycles, over the %d slice", c.writes, ran, sliceCycles)
			}
			if !pol.inflight {
				if honoured := c.drops == 0; ok != honoured || (ok && cfg["level"] != 10) {
					t.Fatalf("%d writes: finished after %d calls with %v %v", c.writes, calls, cfg, ok)
				}
				break
			}
			if ok {
				t.Fatalf("%d writes: a suspended decision returned %v", c.writes, cfg)
			}
		}
		m := pol.Metrics()
		if calls < 2 || m.FuelUsedLast != pol.vm.Cycles || m.DeadlineDrops != c.drops {
			t.Fatalf("%d writes: %d calls, %d cycles, metrics %+v", c.writes, calls, pol.vm.Cycles, m)
		}
	}
	// A suspended decision's Decide is one more slice on a warm VM: it
	// allocates nothing.
	pol, err := New(compileOK(t, bigPolicy(3000)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol.slice = 64
	pol.Decide(d, nil)
	if allocs := testing.AllocsPerRun(100, func() { pol.Decide(d, nil) }); allocs != 0 {
		t.Errorf("a suspended Decide allocates %.1f objects, want 0", allocs)
	}
	if !pol.inflight {
		t.Fatal("the decision finished: no suspended Decide was measured")
	}
}

// TestIsolatedPolicyNoGoroutine: a policy, dynamic applies included,
// is a value, not a worker — building many starts nothing, and there is nothing to close.
func TestIsolatedPolicyNoGoroutine(t *testing.T) {
	p := compileOK(t, "aspectdef Dyn\n\tapply dynamic\n\t\tdo Set('level', 1);\n\tend\nend\n")
	before := runtime.NumGoroutine()
	pols := make([]*VMPolicy, 100)
	for i := range pols {
		pol, err := New(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pol.Decide(monitor.Decision{Adapt: true}, nil)
		pols[i] = pol
	}
	// "Added none", not "unchanged": a goroutine another test left
	// behind may exit between the two reads.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 policies: %d goroutines, was %d", after, before)
	}
}

func TestCheckKnobs(t *testing.T) {
	src := `
aspectdef Steer
	apply
		do Set('levle', threads + 1);
	end
end
`
	p := compileOK(t, src)
	ce := p.CheckKnobs("level")
	if ce == nil || len(ce.Diags) != 2 {
		t.Fatalf("CheckKnobs = %v", ce)
	}
	for _, d := range ce.Diags {
		if d.Line == 0 || d.Col == 0 {
			t.Fatalf("diag missing position: %+v", d)
		}
	}
	if p.CheckKnobs("level", "levle", "threads") != nil {
		t.Fatal("allowed knobs still rejected")
	}
}

func TestProgramReuseAcrossInstances(t *testing.T) {
	p := compileOK(t, steerSrc)
	a, err := New(p, Options{Params: map[string]float64{"gain": 0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p, Options{Params: map[string]float64{"gain": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := a.Decide(monitor.Decision{Adapt: true, Violation: 0.5}, nil)
	cb, _ := b.Decide(monitor.Decision{Adapt: true, Violation: 0.5}, nil)
	if ca["level"] != 0.5 || cb["level"] != 1 {
		t.Fatalf("instances share state: %v %v", ca, cb)
	}
}

// TestDecideMarshalAllocs: marshalling a decision's inputs builds no
// strings — the metric-ref and read-knob global names are precomputed
// in New — so it allocates nothing; a warm VM reuses its frames and
// stack, so the VM call allocates nothing either; Decide's whole cost is
// the returned Config. hot is the saturate_1k benchmark's hot
// DSL program; hotKnob adds a bare-name knob read.
func TestDecideMarshalAllocs(t *testing.T) {
	for _, c := range []struct {
		name, src string
		decide    float64 // Decide's allocation budget: the returned Config
	}{
		{"hot", `
aspectdef Hot
	input gain end
	apply
		do Set('level', gain + latency.max - latency.mean);
	end
	condition violation > 0 end
end
`, 2},
		{"hotKnob", `
aspectdef HotKnob
	input gain end
	apply
		do Set('level', level + gain + latency.max - latency.mean);
	end
	condition violation > 0 end
end
`, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			pol, err := New(compileOK(t, c.src), Options{
				Params:    map[string]float64{"gain": 0.5},
				KnobValue: func(string) float64 { return 2 },
			})
			if err != nil {
				t.Fatal(err)
			}
			d := monitor.Decision{Adapt: true, Violation: 0.5}
			sums := map[string]monitor.Summary{"latency": {Count: 8, Mean: 0.25, Max: 3}}
			if cfg, ok := pol.Decide(d, sums); !ok || cfg["level"] <= 0 {
				t.Fatalf("decide = %v %v", cfg, ok)
			}
			if allocs := testing.AllocsPerRun(100, func() { pol.marshalIn(d, sums) }); allocs != 0 {
				t.Errorf("marshalIn allocates %.1f objects, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { pol.Decide(d, sums) }); allocs > c.decide {
				t.Errorf("Decide allocates %.1f objects, want <= %.0f", allocs, c.decide)
			}
			if allocs := testing.AllocsPerRun(100, func() { pol.vm.Call(pol.prog.Entry, pol.args...) }); allocs != 0 {
				t.Errorf("the VM call allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
