package runtime

import (
	"sync"
	"testing"

	"repro/internal/autotune"
	"repro/internal/monitor"
)

// TestControllerAdaptsOnSustainedViolation is the old monitor.Loop
// contract, restated over the extracted Sensor/Policy/Knob stages.
func TestControllerAdaptsOnSustainedViolation(t *testing.T) {
	var applied []autotune.Config
	var decisions []monitor.Decision
	c := NewController(AppSpec{
		Name: "demo",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   4,
		Debounce: 2,
		Policy: PolicyFunc(func(d monitor.Decision, _ map[string]monitor.Summary) (autotune.Config, bool) {
			decisions = append(decisions, d)
			return autotune.Config{"knob": 1}, true
		}),
		Knob: KnobFunc(func(cfg autotune.Config) { applied = append(applied, cfg) }),
	})
	// Healthy phase: no adaptations.
	for i := 0; i < 5; i++ {
		c.Push(monitor.MetricLatency, 0.5)
		c.Tick()
	}
	if c.Adaptations() != 0 {
		t.Fatalf("healthy phase adapted %d times", c.Adaptations())
	}
	// Degraded phase: fires after debounce, applies via the knob.
	for i := 0; i < 3; i++ {
		c.Push(monitor.MetricLatency, 2.0)
		c.Tick()
	}
	if c.Adaptations() != 1 || len(applied) != 1 {
		t.Fatalf("adaptations=%d applied=%v", c.Adaptations(), applied)
	}
	if !decisions[0].Adapt || decisions[0].Violation <= 0 || decisions[0].Reason == "" {
		t.Errorf("decision: %+v", decisions[0])
	}
	if c.Metrics().Window(monitor.MetricLatency).Len() != 0 {
		t.Error("windows should reset after adaptation")
	}
	if c.Ticks() != 8 || c.Fires() != 1 {
		t.Errorf("counters: ticks=%d fires=%d", c.Ticks(), c.Fires())
	}
}

// TestControllerDebounceCountsQuietTicks: a window that violates its goal
// and then receives nothing more still counts one violating check per
// tick — the debounce counts ticks, not samples — so it fires on the
// third tick, and the reset after firing leaves it quiet.
func TestControllerDebounceCountsQuietTicks(t *testing.T) {
	decides := 0
	c := NewController(AppSpec{
		Name: "quiet",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   4,
		Debounce: 3,
		Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			decides++
			return autotune.Config{"knob": 1}, true
		}),
	})
	c.Push(monitor.MetricLatency, 2.0)
	for tick := 1; tick <= 6; tick++ {
		d := c.Tick()
		if want := tick == 3; d.Adapt != want {
			t.Fatalf("tick %d: Adapt = %v, want %v", tick, d.Adapt, want)
		}
	}
	if c.Fires() != 1 || decides != 1 || c.Adaptations() != 1 {
		t.Errorf("fires=%d decides=%d adaptations=%d, want 1 each", c.Fires(), decides, c.Adaptations())
	}
}

// TestControllerPolicyDecline: a fire whose policy declines (nothing
// better known) still resets windows but does not count as adaptation.
func TestControllerPolicyDecline(t *testing.T) {
	c := NewController(AppSpec{
		Name: "stuck",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   4,
		Debounce: 1,
		Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			return nil, false
		}),
	})
	c.Push(monitor.MetricLatency, 9)
	d := c.Tick()
	if !d.Adapt {
		t.Fatal("should fire")
	}
	if c.Fires() != 1 || c.Adaptations() != 0 {
		t.Errorf("fires=%d adaptations=%d", c.Fires(), c.Adaptations())
	}
}

// TestControllerSensorCollect: samples flow from a concurrent Inbox
// through Collect into the windows.
func TestControllerSensorCollect(t *testing.T) {
	inbox := &Inbox{}
	c := NewController(AppSpec{Name: "sensed", Sensor: inbox, Window: 8})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				inbox.Push("m", 2)
			}
		}()
	}
	wg.Wait()
	if inbox.Len() != 200 {
		t.Fatalf("inbox len %d", inbox.Len())
	}
	c.Tick()
	if got := c.Metrics().Window("m").Total(); got != 200 {
		t.Errorf("collected %d samples, want 200", got)
	}
	if inbox.Len() != 0 {
		t.Error("collect should drain the inbox")
	}
}

func TestLadderPolicy(t *testing.T) {
	p := &LadderPolicy{Knob: "fidelity", Rungs: []float64{0, 1, 2, 3}}
	if p.Level() != 0 {
		t.Fatalf("initial level %v", p.Level())
	}
	for want := 1.0; want <= 3; want++ {
		cfg, ok := p.Decide(monitor.Decision{}, nil)
		if !ok || cfg["fidelity"] != want {
			t.Fatalf("step to %v: %v %v", want, cfg, ok)
		}
	}
	if _, ok := p.Decide(monitor.Decision{}, nil); ok {
		t.Error("bottom rung should decline")
	}
	cfg, ok := p.Raise()
	if !ok || cfg["fidelity"] != 2 {
		t.Errorf("raise: %v %v", cfg, ok)
	}
}

// TestTunerPolicy wires the policy to a real tuner under drift.
func TestTunerPolicy(t *testing.T) {
	space := autotune.NewSpace(autotune.VariantKnob("variant", "A", "B"))
	phase := 0.0
	cost := func(cfg autotune.Config) autotune.Measurement {
		if cfg["variant"] == phase {
			return autotune.Measurement{Cost: 1}
		}
		return autotune.Measurement{Cost: 3}
	}
	tu := autotune.NewTuner(space, &autotune.Exhaustive{}, cost)
	if _, _, err := tu.Run(0); err != nil {
		t.Fatal(err)
	}
	p := &TunerPolicy{Tuner: tu}
	if _, ok := p.Decide(monitor.Decision{}, nil); ok {
		t.Fatal("no drift: policy should decline")
	}
	// Drift: deployed variant A degrades past B's stale estimate.
	phase = 1
	for i := 0; i < 40; i++ {
		tu.Observe(4.0)
	}
	cfg, ok := p.Decide(monitor.Decision{}, nil)
	if !ok || cfg["variant"] != 1 {
		t.Errorf("policy under drift: %v %v", cfg, ok)
	}
}

// TestControllerFiringTickAllocs: a firing tick formats no reason — the
// goal strings are built once at NewController — so with a nil policy
// the whole firing path allocates nothing, and Reason is still exactly
// the violated goal's String().
func TestControllerFiringTickAllocs(t *testing.T) {
	goals := []monitor.Goal{
		{Metric: monitor.MetricThroughput, Relation: monitor.AtLeast, Target: 0.5},
		{Metric: monitor.MetricLatency, Stat: "p95", Relation: monitor.AtMost, Target: 1.25},
	}
	c := NewController(AppSpec{Name: "fire", SLA: monitor.SLA{Goals: goals}, Window: 4, Debounce: 1})
	fire := func() monitor.Decision {
		c.Push(monitor.MetricThroughput, 1)
		c.Push(monitor.MetricLatency, 5)
		return c.Tick()
	}
	if d := fire(); !d.Adapt || d.Reason != goals[1].String() {
		t.Fatalf("decision %+v, want a fire with reason %q", d, goals[1].String())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !fire().Adapt {
			t.Fatal("tick did not fire")
		}
	}); allocs != 0 {
		t.Errorf("firing tick allocates %.1f objects, want 0", allocs)
	}
}
