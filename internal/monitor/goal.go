package monitor

import "fmt"

// Metric names used across the stack.
const (
	MetricThroughput = "throughput" // work units per second (higher better)
	MetricLatency    = "latency"    // seconds per request (lower better)
	MetricEnergy     = "energy"     // joules per work unit (lower better)
	MetricPower      = "power"      // watts (lower better)
	MetricQuality    = "quality"    // application-defined quality (higher better)
)

// Relation is the comparison direction of a goal.
type Relation int

// Relations.
const (
	AtMost  Relation = iota // observed <= target
	AtLeast                 // observed >= target
)

// String renders the relation.
func (r Relation) String() string {
	if r == AtMost {
		return "<="
	}
	return ">="
}

// Goal is one SLA clause: a bound on a windowed statistic of a metric.
type Goal struct {
	Metric string
	// Stat selects which statistic the bound applies to: "mean" (default),
	// "p95", or "max".
	Stat     string
	Relation Relation
	Target   float64
}

// Check evaluates the goal against a summary, returning whether it holds
// and the normalized violation magnitude (0 when satisfied; 0.5 means
// 50 % beyond target).
func (g Goal) Check(s Summary) (ok bool, violation float64) {
	var observed float64
	switch g.Stat {
	case "", "mean":
		observed = s.Mean
	case "p95":
		observed = s.P95
	case "max":
		observed = s.Max
	default:
		observed = s.Mean
	}
	switch g.Relation {
	case AtMost:
		if observed <= g.Target {
			return true, 0
		}
		if g.Target == 0 {
			return false, 1
		}
		return false, observed/g.Target - 1
	default: // AtLeast
		if observed >= g.Target {
			return true, 0
		}
		if g.Target == 0 {
			return false, 1
		}
		return false, 1 - observed/g.Target
	}
}

// String renders the goal.
func (g Goal) String() string {
	stat := g.Stat
	if stat == "" {
		stat = "mean"
	}
	return fmt.Sprintf("%s(%s) %s %g", stat, g.Metric, g.Relation, g.Target)
}

// SLA is a conjunction of goals.
type SLA struct {
	Name  string
	Goals []Goal
}

// Check evaluates all goals against per-metric summaries, returning
// overall satisfaction and the worst violation (goal index, magnitude).
func (s SLA) Check(summaries map[string]Summary) (ok bool, worstGoal int, worst float64) {
	ok = true
	worstGoal = -1
	for i, g := range s.Goals {
		sum, have := summaries[g.Metric]
		if !have || sum.Count == 0 {
			continue // no data yet: not a violation
		}
		gok, v := g.Check(sum)
		if !gok {
			ok = false
			if v > worst {
				worst, worstGoal = v, i
			}
		}
	}
	return ok, worstGoal, worst
}

// Breaches reports whether one raw sample lies beyond the target of any
// goal on its metric, whatever the goal's Stat. A window whose samples
// are all within target cannot violate under mean, p95 or max, so a
// tenant that never breaches never violates: the kernel's pacing uses
// this as its cheap "look now" hint at ingest (see runtime.Kernel.Nudge).
func (s SLA) Breaches(metric string, v float64) bool {
	for i := range s.Goals {
		g := &s.Goals[i]
		if g.Metric != metric {
			continue
		}
		if g.Relation == AtMost {
			if v > g.Target {
				return true
			}
		} else if v < g.Target {
			return true
		}
	}
	return false
}

// Trigger debounces SLA violations: it fires only after K consecutive
// violating checks, and re-arms after a satisfied check, preventing the
// autotuner from thrashing on noise.
type Trigger struct {
	// After is the number of consecutive violations required to fire.
	After int
	run   int
	fires int64
}

// NewTrigger returns a trigger firing after k consecutive violations.
func NewTrigger(k int) *Trigger {
	if k < 1 {
		k = 1
	}
	return &Trigger{After: k}
}

// Observe feeds one check outcome and reports whether the trigger fires.
func (t *Trigger) Observe(violated bool) bool {
	if !violated {
		t.run = 0
		return false
	}
	t.run++
	if t.run >= t.After {
		t.run = 0
		t.fires++
		return true
	}
	return false
}

// Fires returns the lifetime fire count.
func (t *Trigger) Fires() int64 { return t.fires }
