package monitor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 || w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Error("empty window should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		w.Push(v)
	}
	if w.Mean() != 2.5 || w.Min() != 1 || w.Max() != 4 || w.Len() != 4 {
		t.Errorf("stats: mean=%v min=%v max=%v", w.Mean(), w.Min(), w.Max())
	}
	// Eviction: pushing 5 evicts 1.
	w.Push(5)
	if w.Mean() != 3.5 || w.Min() != 2 || w.Len() != 4 {
		t.Errorf("after eviction: mean=%v min=%v len=%d", w.Mean(), w.Min(), w.Len())
	}
	if w.Total() != 5 {
		t.Errorf("total: %d", w.Total())
	}
	w.Reset()
	if w.Len() != 0 || w.Total() != 5 {
		t.Error("reset should clear live samples but keep lifetime count")
	}
}

func TestWindowVarianceMatchesDirect(t *testing.T) {
	w := NewWindow(8)
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		w.Push(v)
	}
	if math.Abs(w.Variance()-4) > 1e-9 {
		t.Errorf("variance %v, want 4", w.Variance())
	}
	if math.Abs(w.StdDev()-2) > 1e-9 {
		t.Errorf("stddev %v, want 2", w.StdDev())
	}
}

func TestPercentile(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Push(float64(i))
	}
	if p := w.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := w.Percentile(100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := w.Percentile(50); math.Abs(p-50.5) > 1 {
		t.Errorf("p50 = %v", p)
	}
	if p := w.Percentile(95); p < 94 || p > 97 {
		t.Errorf("p95 = %v", p)
	}
}

// TestPercentileNaN: a NaN rank is not a position in the window, so it
// reads NaN (empty or not) instead of indexing with int(NaN).
func TestPercentileNaN(t *testing.T) {
	w := NewWindow(4)
	if p := w.Percentile(math.NaN()); !math.IsNaN(p) {
		t.Errorf("empty window: p(NaN) = %v", p)
	}
	for _, v := range []float64{3, 1, 2} {
		w.Push(v)
	}
	if p := w.Percentile(math.NaN()); !math.IsNaN(p) {
		t.Errorf("p(NaN) = %v", p)
	}
	if p := w.Percentile(-5); p != 1 {
		t.Errorf("p(-5) = %v, want the minimum", p)
	}
	if p := w.Percentile(250); p != 3 {
		t.Errorf("p(250) = %v, want the maximum", p)
	}
}

// Property: windowed mean equals direct mean of the last `size` samples.
func TestWindowMeanProperty(t *testing.T) {
	f := func(raw []float64, szRaw uint8) bool {
		size := int(szRaw%16) + 1
		w := NewWindow(size)
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			clean = append(clean, v)
			w.Push(v)
		}
		if len(clean) == 0 {
			return w.Len() == 0
		}
		start := len(clean) - size
		if start < 0 {
			start = 0
		}
		var sum float64
		for _, v := range clean[start:] {
			sum += v
		}
		want := sum / float64(len(clean)-start)
		return math.Abs(w.Mean()-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA should be uninitialized")
	}
	e.Push(10)
	if e.Value() != 10 {
		t.Errorf("first sample: %v", e.Value())
	}
	e.Push(20)
	if e.Value() != 15 {
		t.Errorf("after 20: %v", e.Value())
	}
	// Converges toward a steady input.
	for i := 0; i < 50; i++ {
		e.Push(100)
	}
	if math.Abs(e.Value()-100) > 0.01 {
		t.Errorf("convergence: %v", e.Value())
	}
}

func TestGoalCheck(t *testing.T) {
	s := Summary{Count: 10, Mean: 2.0, P95: 3.0, Max: 5.0}
	cases := []struct {
		g    Goal
		ok   bool
		vMin float64
	}{
		{Goal{Metric: MetricLatency, Relation: AtMost, Target: 2.5}, true, 0},
		{Goal{Metric: MetricLatency, Relation: AtMost, Target: 1.0}, false, 0.9},
		{Goal{Metric: MetricThroughput, Relation: AtLeast, Target: 1.0}, true, 0},
		{Goal{Metric: MetricThroughput, Relation: AtLeast, Target: 4.0}, false, 0.4},
		{Goal{Metric: MetricLatency, Stat: "p95", Relation: AtMost, Target: 2.9}, false, 0.01},
		{Goal{Metric: MetricLatency, Stat: "max", Relation: AtMost, Target: 5.0}, true, 0},
	}
	for _, c := range cases {
		ok, v := c.g.Check(s)
		if ok != c.ok {
			t.Errorf("%s: ok=%v want %v", c.g, ok, c.ok)
		}
		if !ok && v < c.vMin {
			t.Errorf("%s: violation=%v want >= %v", c.g, v, c.vMin)
		}
	}
}

func TestSLACheckWorstViolation(t *testing.T) {
	sla := SLA{Name: "nav", Goals: []Goal{
		{Metric: MetricLatency, Relation: AtMost, Target: 1.0},
		{Metric: MetricThroughput, Relation: AtLeast, Target: 100},
	}}
	sums := map[string]Summary{
		MetricLatency:    {Count: 5, Mean: 1.2}, // 20% over
		MetricThroughput: {Count: 5, Mean: 40},  // 60% under
	}
	ok, worstGoal, worst := sla.Check(sums)
	if ok {
		t.Fatal("should violate")
	}
	if worstGoal != 1 {
		t.Errorf("worst goal %d, want 1 (throughput)", worstGoal)
	}
	if math.Abs(worst-0.6) > 1e-9 {
		t.Errorf("worst violation %v, want 0.6", worst)
	}
	// Missing metrics are not violations.
	ok, _, _ = sla.Check(map[string]Summary{})
	if !ok {
		t.Error("no data should not violate")
	}
}

// TestSLABreaches: the raw-sample hint compares against every goal on
// the sample's metric, ignores Stat, and is strict at the target.
func TestSLABreaches(t *testing.T) {
	sla := SLA{Goals: []Goal{
		{Metric: MetricLatency, Stat: "p95", Relation: AtMost, Target: 1.0},
		{Metric: MetricThroughput, Relation: AtLeast, Target: 100},
		{Metric: MetricLatency, Stat: "max", Relation: AtMost, Target: 0.5},
	}}
	cases := []struct {
		metric string
		v      float64
		want   bool
	}{
		{MetricLatency, 0.5, false}, // at the tightest target: satisfied
		{MetricLatency, 0.7, true},  // beyond the second latency goal only
		{MetricLatency, 1.5, true},
		{MetricThroughput, 100, false},
		{MetricThroughput, 99, true},
		{MetricThroughput, 500, false},
		{MetricEnergy, 1e9, false}, // no goal on the metric
	}
	for _, c := range cases {
		if got := sla.Breaches(c.metric, c.v); got != c.want {
			t.Errorf("Breaches(%s, %g) = %v, want %v", c.metric, c.v, got, c.want)
		}
	}
	if (SLA{}).Breaches(MetricLatency, 1e9) {
		t.Error("an SLA without goals cannot be breached")
	}
	// The hint's contract: a window holding no breaching sample satisfies
	// the goal under every Stat.
	for _, stat := range []string{"mean", "p95", "max"} {
		g := Goal{Metric: MetricLatency, Stat: stat, Relation: AtMost, Target: 1.0}
		w := NewWindow(8)
		for _, v := range []float64{1.0, 0.2, 0.99, 1.0, 0.5} {
			if (SLA{Goals: []Goal{g}}).Breaches(MetricLatency, v) {
				t.Fatalf("%g breaches %s", v, g)
			}
			w.Push(v)
		}
		if ok, _ := g.Check(w.Snapshot()); !ok {
			t.Errorf("%s violated by a window without a breaching sample", g)
		}
	}
}

func TestTriggerDebounce(t *testing.T) {
	tr := NewTrigger(3)
	seq := []bool{true, true, false, true, true, true, true}
	var fires []int
	for i, v := range seq {
		if tr.Observe(v) {
			fires = append(fires, i)
		}
	}
	// The run of 4 trues after the false fires once at index 5 (third
	// consecutive), then restarts its count.
	if len(fires) != 1 || fires[0] != 5 {
		t.Errorf("fires at %v, want [5]", fires)
	}
	if tr.Fires() != 1 {
		t.Errorf("lifetime fires: %d", tr.Fires())
	}
}

func TestSetSummaries(t *testing.T) {
	s := NewSet(8)
	s.Push("a", 1)
	s.Push("a", 3)
	s.Push("b", 10)
	sums := s.Summaries()
	if sums["a"].Mean != 2 || sums["b"].Mean != 10 {
		t.Errorf("summaries: %+v", sums)
	}
	if s.Window("nosuch") != nil {
		t.Error("unknown metric should be nil")
	}
	if sums["a"].String() == "" {
		t.Error("summary string empty")
	}
}
