package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
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

// TestControllerQuietTickAllocs: a tick with nothing new since a
// passing check is the O(1) quiet path, and it allocates nothing.
func TestControllerQuietTickAllocs(t *testing.T) {
	inbox := &Inbox{}
	c := NewController(AppSpec{Name: "idle", Sensor: inbox, Window: 4, SLA: monitor.SLA{Goals: []monitor.Goal{
		{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1},
	}}})
	inbox.Push(monitor.MetricLatency, 0.5)
	c.Tick()
	if c.QuietTicks() != 0 {
		t.Fatalf("the tick that drained a sample was quiet")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if c.Tick().Adapt {
			t.Fatal("quiet tick fired")
		}
	}); allocs != 0 {
		t.Errorf("quiet tick allocates %.1f objects, want 0", allocs)
	}
	if q, n := c.QuietTicks(), c.Ticks(); q != n-1 {
		t.Errorf("QuietTicks() = %d of %d ticks, want all but the first", q, n)
	}
}

// TestControllerQuietTickMatchesFull drives two controllers through one
// seeded schedule of inbox, direct and cached-handle pushes, new
// metrics (bare or pushed), window and set resets, external snapshots, policy swaps and
// ticks: one ticks through Tick, the other through the full analyse
// pass every time. Whatever the quiet path skips, the two must agree on
// every decision, on the summaries each tick analysed, on the counters,
// on every knob Apply and on the final windows.
func TestControllerQuietTickMatchesFull(t *testing.T) {
	for _, debounce := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("debounce=%d/seed=%d", debounce, seed), func(t *testing.T) {
				quietMatchesFull(t, debounce, seed)
			})
		}
	}
}

func quietMatchesFull(t *testing.T, debounce int, seed int64) {
	metrics := []string{"m0", "m1", "m2", "m3", "m4"}
	goals := []monitor.Goal{
		{Metric: "m0", Relation: monitor.AtMost, Target: 1},
		{Metric: "m1", Relation: monitor.AtLeast, Target: 0.5},
		{Metric: "m3", Stat: "max", Relation: monitor.AtMost, Target: 1},
		{Metric: "n2", Relation: monitor.AtMost, Target: 1}, // created mid-run
	}
	// value draws a sample for metric: a violating one about one time in
	// twenty, else one within every goal.
	rng := rand.New(rand.NewSource(seed))
	value := func(metric string) float64 {
		bad := rng.Intn(20) == 0
		switch {
		case metric == "m1" && bad:
			return rng.Float64() * 0.4
		case metric == "m1":
			return 0.6 + rng.Float64()
		case bad:
			return 1.5 + rng.Float64()
		}
		return rng.Float64() * 0.9
	}

	type side struct {
		ctl     *Controller
		inbox   *Inbox
		handles map[string]*monitor.Window
		applied []autotune.Config
		decided [][]string // per Decide call: the policy's name and the metrics it saw
	}
	policy := func(s *side, name string, declineEvery int) Policy {
		calls := 0
		return PolicyFunc(func(_ monitor.Decision, sums map[string]monitor.Summary) (autotune.Config, bool) {
			calls++
			seen := []string{name}
			for _, m := range metrics {
				if sum, ok := sums[m]; ok {
					seen = append(seen, fmt.Sprintf("%s=%v", m, sum))
				}
			}
			s.decided = append(s.decided, seen)
			return autotune.Config{"knob": float64(calls)}, calls%declineEvery != 0
		})
	}
	newSide := func() *side {
		s := &side{inbox: &Inbox{}, handles: map[string]*monitor.Window{}}
		s.ctl = NewController(AppSpec{Name: "diff", SLA: monitor.SLA{Goals: goals}, Window: 4, Debounce: debounce,
			Sensor: s.inbox,
			Policy: policy(s, "p0", 3),
			Knob:   KnobFunc(func(cfg autotune.Config) { s.applied = append(s.applied, cfg) })})
		return s
	}
	quick, full := newSide(), newSide()
	sides := []*side{quick, full}
	fullTick := func(c *Controller) monitor.Decision {
		c.tickMu.Lock()
		defer c.tickMu.Unlock()
		c.ticks.Add(1)
		return c.tickFull()
	}

	const steps = 3000
	swaps := 0
	for step := 0; step < steps; step++ {
		metric := metrics[rng.Intn(len(metrics))]
		switch op := rng.Intn(100); {
		case op < 35:
			qd, fd := quick.ctl.Tick(), fullTick(full.ctl)
			if qd != fd {
				t.Fatalf("step %d: Tick decided %+v, the full pass %+v", step, qd, fd)
			}
			if !reflect.DeepEqual(quick.ctl.sums, full.ctl.sums) {
				t.Fatalf("step %d: Tick analysed %v, the full pass %v", step, quick.ctl.sums, full.ctl.sums)
			}
		case op < 50:
			v := value(metric)
			for _, s := range sides {
				s.inbox.Push(metric, v)
			}
		case op < 60:
			batch := make([]Sample, 1+rng.Intn(6))
			for i := range batch {
				m := metrics[rng.Intn(len(metrics))]
				batch[i] = Sample{Metric: m, Value: value(m)}
			}
			for _, s := range sides {
				s.inbox.PushBatch(batch)
			}
		case op < 70:
			v := value(metric)
			for _, s := range sides {
				s.ctl.Push(metric, v)
			}
		case op < 80:
			v := value(metric)
			for _, s := range sides {
				w := s.handles[metric]
				if w == nil {
					w = s.ctl.Metrics().Acquire(metric)
					s.handles[metric] = w
				}
				w.Push(v)
			}
		case op < 83:
			// A new metric, created bare (it joins the summaries with
			// Count 0) or by its first direct push, then drawn like the
			// others.
			metric = fmt.Sprintf("n%d", len(metrics)-5)
			metrics = append(metrics, metric)
			bare, v := rng.Intn(2) == 0, value(metric)
			for _, s := range sides {
				if bare {
					s.ctl.Metrics().Acquire(metric)
				} else {
					s.ctl.Push(metric, v)
				}
			}
		case op < 87:
			for _, s := range sides {
				if w := s.ctl.Metrics().Window(metric); w != nil {
					w.Reset()
				}
			}
		case op < 89:
			for _, s := range sides {
				s.ctl.Metrics().Reset()
			}
		case op < 95:
			// An outside reader marks windows fresh between ticks.
			for _, s := range sides {
				s.ctl.Metrics().Summaries()
			}
		default:
			swaps++
			name := fmt.Sprintf("p%d", swaps)
			for _, s := range sides {
				s.ctl.SwapPolicy(policy(s, name, 2+swaps%3), nil)
			}
		}
	}

	if quick.ctl.QuietTicks() == 0 || full.ctl.QuietTicks() != 0 {
		t.Fatalf("quiet ticks: Tick side %d, full side %d; want some and none", quick.ctl.QuietTicks(), full.ctl.QuietTicks())
	}
	q, f := quick.ctl, full.ctl
	if q.Ticks() != f.Ticks() || q.Fires() != f.Fires() || q.Adaptations() != f.Adaptations() {
		t.Errorf("ticks/fires/adaptations: Tick %d/%d/%d, full %d/%d/%d",
			q.Ticks(), q.Fires(), q.Adaptations(), f.Ticks(), f.Fires(), f.Adaptations())
	}
	if f.Fires() == 0 || f.Adaptations() == 0 {
		t.Errorf("schedule never fired (fires %d, adaptations %d): it checks nothing", f.Fires(), f.Adaptations())
	}
	if !reflect.DeepEqual(quick.applied, full.applied) || !reflect.DeepEqual(quick.decided, full.decided) {
		t.Errorf("knob applies %v vs %v; decides %v vs %v", quick.applied, full.applied, quick.decided, full.decided)
	}
	if qs, fs := q.Metrics().Summaries(), f.Metrics().Summaries(); !reflect.DeepEqual(qs, fs) {
		t.Errorf("final summaries %v, want %v", qs, fs)
	}
	t.Logf("%d ticks, %d quiet, %d fires", q.Ticks(), q.QuietTicks(), q.Fires())
}

// TestControllerQuietTickConcurrentIngest: producers push through the
// inbox (Push and PushBatch) and through cached window handles while a
// loop ticks, with violations firing and resetting windows along the
// way. Once they stop, one more tick leaves every sample in its window:
// a quiet tick may postpone a sample to the next tick, never lose it.
func TestControllerQuietTickConcurrentIngest(t *testing.T) {
	inbox := &Inbox{}
	c := NewController(AppSpec{Name: "ingest", Sensor: inbox, Window: 8, Debounce: 1,
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: "shared", Relation: monitor.AtMost, Target: 1},
			{Metric: "handle", Relation: monitor.AtMost, Target: 1},
		}},
		Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			return autotune.Config{"knob": 1}, true
		})})
	const per = 2000
	sample := func(i int) float64 {
		if i%97 == 0 {
			return 5 // a violation now and then, so ticks fire and reset
		}
		return 0.5
	}
	// The loop ticks from before the first push to after the last;
	// producers yield now and then so ticks land between their pushes.
	stop, started, ticked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		c.Tick()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
				c.Tick()
				goruntime.Gosched()
			}
		}
	}()
	<-started
	var producers sync.WaitGroup
	produce := func(fn func(i int)) {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < per; i++ {
				fn(i)
				if i%16 == 0 {
					goruntime.Gosched()
				}
			}
		}()
	}
	produce(func(i int) { inbox.Push("shared", sample(i)) })
	produce(func(i int) { inbox.Push("inbox", sample(i)) })
	produce(func(i int) {
		if i%4 == 0 {
			inbox.PushBatch([]Sample{{"shared", sample(i)}, {"inbox", 0.5}, {"shared", 0.5}, {"inbox", 0.5}})
		}
	})
	shared, handle := c.Metrics().Acquire("shared"), c.Metrics().Acquire("handle")
	produce(func(i int) { shared.Push(sample(i)) })
	produce(func(i int) { handle.Push(sample(i)) })
	producers.Wait()
	close(stop)
	<-ticked
	c.Tick()

	want := map[string]int64{"shared": 2*per + per/2, "inbox": per + per/2, "handle": per}
	for metric, n := range want {
		if got := c.Metrics().Window(metric).Total(); got != n {
			t.Errorf("window %q holds %d lifetime samples, want %d", metric, got, n)
		}
	}
	if inbox.Len() != 0 {
		t.Errorf("inbox still holds %d samples", inbox.Len())
	}
	t.Logf("%d ticks, %d quiet, %d fires", c.Ticks(), c.QuietTicks(), c.Fires())
}
