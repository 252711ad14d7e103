package rtrm

import (
	"testing"

	"repro/internal/simhpc"
)

func cpu() *simhpc.Device { return simhpc.NewDevice(simhpc.XeonCPUSpec(), "d", 0, nil) }

func TestGovernorBasics(t *testing.T) {
	d := cpu()
	task := simhpc.NewWorkloadGen(1).Balanced(100)
	if ps := (PerformanceGovernor{}).PickPState(d, task); ps != d.Spec.MaxPState() {
		t.Errorf("performance picked %d", ps)
	}
	if ps := (PowersaveGovernor{}).PickPState(d, task); ps != 0 {
		t.Errorf("powersave picked %d", ps)
	}
	od := NewOnDemand()
	od.Observe(1)
	if ps := od.PickPState(d, task); ps != d.Spec.MaxPState() {
		t.Errorf("ondemand under full busyness picked %d, want max", ps)
	}
	for i := 0; i < 20; i++ {
		od.Observe(0.1)
	}
	if ps := od.PickPState(d, task); ps >= d.Spec.MaxPState() {
		t.Errorf("ondemand under light load picked %d, want below max", ps)
	}
}

// TestGovernorSavingsClaim reproduces the §V claim: optimal operating
// point selection saves 18-50 % node energy vs the Linux default,
// depending on the application's frequency sensitivity.
func TestGovernorSavingsClaim(t *testing.T) {
	gen := simhpc.NewWorkloadGen(3)
	cases := []struct {
		name       string
		tasks      []*simhpc.Task
		minS, maxS float64
	}{
		{"memory-bound", []*simhpc.Task{gen.MemoryBound(100), gen.MemoryBound(80)}, 0.30, 0.60},
		{"balanced", []*simhpc.Task{gen.Balanced(100), gen.Balanced(80)}, 0.18, 0.50},
		{"compute-bound", []*simhpc.Task{gen.ComputeBound(100), gen.ComputeBound(80)}, 0.05, 0.40},
	}
	for _, c := range cases {
		_, _, saving := GovernorSavings(cpu(), c.tasks, 0)
		if saving < c.minS || saving > c.maxS {
			t.Errorf("%s: saving %.1f%%, want in [%.0f%%, %.0f%%]",
				c.name, saving*100, c.minS*100, c.maxS*100)
		}
	}
}

func TestOptimalGovernorRespectsSlowdownBound(t *testing.T) {
	d := cpu()
	task := simhpc.NewWorkloadGen(5).ComputeBound(100)
	unbounded := (&OptimalGovernor{}).PickPState(d, task)
	bounded := (&OptimalGovernor{MaxSlowdown: 1.1}).PickPState(d, task)
	tMax := d.ExecTime(task, d.Spec.MaxPState())
	if d.ExecTime(task, bounded) > 1.1*tMax*1.0001 {
		t.Errorf("bounded pick %d violates slowdown bound", bounded)
	}
	if bounded < unbounded {
		t.Errorf("tighter bound should not pick lower frequency (%d < %d)", bounded, unbounded)
	}
	// Unbounded optimal for compute-bound work is not the minimum
	// P-state (static energy accumulates over longer runtime).
	if eLow, eOpt := d.ExecEnergy(task, 0), d.ExecEnergy(task, unbounded); eOpt > eLow {
		t.Errorf("optimal %d (E=%.1f) worse than floor (E=%.1f)", unbounded, eOpt, eLow)
	}
}

func TestPowerCapper(t *testing.T) {
	rng := simhpc.NewRNG(17)
	c := simhpc.NewCluster(16, 20, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0.15, rng)
	})
	uncapped := c.FacilityPowerW(1)
	pc := &PowerCapper{CapW: uncapped * 0.7}
	res := pc.Apply(c, 1)
	if res.FacilityW > pc.CapW*1.0001 {
		t.Errorf("cap violated: %.0f > %.0f", res.FacilityW, pc.CapW)
	}
	if res.Demotions == 0 {
		t.Error("a 30%% cut must demote someone")
	}
	if res.ThroughputGFLOPS <= 0 || res.ThroughputGFLOPS >= c.PeakGFLOPS() {
		t.Errorf("throughput %.0f implausible vs peak %.0f", res.ThroughputGFLOPS, c.PeakGFLOPS())
	}
	// Greedy beats uniform derating on throughput at the same cap.
	uni := pc.UniformCap(c, 1)
	if uni.FacilityW > pc.CapW*1.0001 {
		t.Errorf("uniform cap violated: %.0f", uni.FacilityW)
	}
	if res.ThroughputGFLOPS < uni.ThroughputGFLOPS*0.999 {
		t.Errorf("greedy (%.0f GFLOPS) should be at least uniform (%.0f)",
			res.ThroughputGFLOPS, uni.ThroughputGFLOPS)
	}
	// A generous cap demotes nothing.
	loose := &PowerCapper{CapW: uncapped * 2}
	if r := loose.Apply(c, 1); r.Demotions != 0 {
		t.Errorf("loose cap demoted %d", r.Demotions)
	}
	// An infeasible cap bottoms out without looping forever.
	tight := &PowerCapper{CapW: 1}
	r := tight.Apply(c, 1)
	for _, ps := range r.PStates {
		if ps != 0 {
			t.Errorf("infeasible cap should floor all P-states: %v", r.PStates)
			break
		}
	}
}

func TestThermalControllerHysteresis(t *testing.T) {
	tc := NewThermalController()
	n := simhpc.HomogeneousNode("n", 0, nil)
	maxPS := n.CPUDevice().Spec.MaxPState()

	n.TempC = 40
	if got := tc.Update(n); got != maxPS {
		t.Errorf("cool node capped to %d", got)
	}
	// Heat up past the guard band: caps tighten monotonically.
	n.TempC = n.TSafeC - 2
	first := tc.Update(n)
	if first != maxPS-1 {
		t.Errorf("first cap %d, want %d", first, maxPS-1)
	}
	second := tc.Update(n)
	if second >= first {
		t.Errorf("cap should tighten while hot: %d then %d", first, second)
	}
	if tc.CappedNodes() != 1 {
		t.Errorf("capped nodes: %d", tc.CappedNodes())
	}
	// Cooling inside the hysteresis band holds the cap.
	n.TempC = n.TSafeC - tc.MarginC - 1
	held := tc.Update(n)
	if held != second {
		t.Errorf("cap should hold in hysteresis band: %d -> %d", second, held)
	}
	// Cooling past the release band relaxes one step at a time.
	n.TempC = n.TSafeC - tc.MarginC - tc.ReleaseC - 5
	relaxed := tc.Update(n)
	if relaxed != held+1 {
		t.Errorf("cap should relax one step: %d -> %d", held, relaxed)
	}
	for i := 0; i < 20; i++ {
		tc.Update(n)
	}
	if tc.CappedNodes() != 0 {
		t.Error("cap should eventually be forgotten")
	}
	if got := tc.Ceiling(n); got != maxPS {
		t.Errorf("ceiling after release: %d", got)
	}
}

func TestMS3Scheduler(t *testing.T) {
	s := NewMS3()
	cool := simhpc.NewCluster(4, 12, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0, nil)
	})
	hot := simhpc.NewCluster(4, 35, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0, nil)
	})
	pCool := s.Decide(cool)
	pHot := s.Decide(hot)
	if pCool.AdmitFraction != 1 || pCool.CoolingBoost != 0 {
		t.Errorf("cool plan should be full throttle: %+v", pCool)
	}
	if pHot.AdmitFraction >= 1 {
		t.Errorf("hot plan should defer load: %+v", pHot)
	}
	if pHot.CoolingBoost <= 0 {
		t.Errorf("hot plan should boost cooling: %+v", pHot)
	}
	// MS3 energy-to-solution in summer beats the do-nothing plan.
	naive := Plan{AdmitFraction: 1, PUE: hot.Cooling.PUE(hot.AmbientC)}
	eMS3 := s.EnergyToSolution(hot, pHot, 1e6)
	eNaive := s.EnergyToSolution(hot, naive, 1e6)
	if eMS3 >= eNaive {
		t.Errorf("MS3 (%.0f J) should beat naive (%.0f J) in summer", eMS3, eNaive)
	}
}

func TestManagerEpochs(t *testing.T) {
	rng := simhpc.NewRNG(23)
	c := simhpc.NewCluster(8, 30, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0.15, rng)
	})
	capW := c.FacilityPowerW(1) * 0.8
	m := NewManager(c, capW)
	gen := simhpc.NewWorkloadGen(29)
	var totalOffered float64
	for epoch := 0; epoch < 20; epoch++ {
		tasks := gen.Mix(32, 1, 1, 1, 20)
		for _, task := range tasks {
			totalOffered += task.GFlop
		}
		rep := m.RunEpoch(60, tasks, 1)
		if rep.Cap.FacilityW > capW*1.001 {
			t.Fatalf("epoch %d: cap violated (%.0f > %.0f)", epoch, rep.Cap.FacilityW, capW)
		}
	}
	if m.EpochCount != 20 {
		t.Errorf("epochs: %d", m.EpochCount)
	}
	if m.WorkGFlop <= 0 || m.EnergyJ <= 0 {
		t.Error("no work accounted")
	}
	if m.WorkGFlop+m.DeferredGFlop < totalOffered*0.999 {
		t.Errorf("work leaked: done=%.0f deferred=%.0f offered=%.0f",
			m.WorkGFlop, m.DeferredGFlop, totalOffered)
	}
	if m.EfficiencyGFLOPSPerJ() <= 0 {
		t.Error("efficiency should be positive")
	}
	// At 30C ambient MS3 must have deferred something.
	if m.DeferredGFlop == 0 {
		t.Error("summer epochs should defer load")
	}
}

// TestCapPStateIndexing is the regression test for the cap plan being
// indexed by task instead of by node: a plan shorter than the cluster
// (or empty) must leave uncovered nodes uncapped, never wrap around to
// another node's P-state or panic.
func TestCapPStateIndexing(t *testing.T) {
	cap := CapResult{PStates: []int{3, 1}}
	if ps, ok := capPState(cap, 0); !ok || ps != 3 {
		t.Errorf("node 0: got (%d,%v), want (3,true)", ps, ok)
	}
	if ps, ok := capPState(cap, 1); !ok || ps != 1 {
		t.Errorf("node 1: got (%d,%v), want (1,true)", ps, ok)
	}
	// Node 2 is not covered by the plan: the old i%len wrap would have
	// silently handed it node 0's P-state.
	if _, ok := capPState(cap, 2); ok {
		t.Error("node beyond the plan must be uncapped, not wrapped")
	}
	if _, ok := capPState(CapResult{}, 0); ok {
		t.Error("an empty plan must cap nothing (old code panicked)")
	}
	if _, ok := capPState(cap, -1); ok {
		t.Error("negative node index must cap nothing")
	}
}

// TestManagerEpochShortCapPlan drives a full epoch where the cap plan
// covers fewer nodes than receive tasks and checks the epoch completes
// with the plan applied per node (no wraparound panic path).
func TestManagerEpochShortCapPlan(t *testing.T) {
	rng := simhpc.NewRNG(41)
	c := simhpc.NewCluster(4, 20, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0.15, rng)
	})
	m := NewManager(c, c.FacilityPowerW(1)*2) // generous: no demotions
	gen := simhpc.NewWorkloadGen(43)
	// More tasks than nodes forces the round-robin to wrap the node
	// list several times, exercising every nodeIdx against the plan.
	rep := m.RunEpoch(60, gen.Mix(16, 1, 1, 1, 10), 1)
	if len(rep.Cap.PStates) != len(c.Nodes) {
		t.Fatalf("plan covers %d of %d nodes", len(rep.Cap.PStates), len(c.Nodes))
	}
	if rep.DoneGFlop <= 0 {
		t.Error("epoch did no work")
	}
}

// TestPowerCapperApplyAllocs pins the fast-path property the kernel
// relies on: Apply allocates only the escaping result slice.
func TestPowerCapperApplyAllocs(t *testing.T) {
	rng := simhpc.NewRNG(59)
	c := simhpc.NewCluster(16, 20, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode("n", 0.15, rng)
	})
	pc := &PowerCapper{CapW: c.FacilityPowerW(1) * 0.8}
	allocs := testing.AllocsPerRun(100, func() {
		pc.Apply(c, 1)
	})
	if allocs > 1 {
		t.Errorf("Apply allocates %.0f objects per call, want <= 1 (the result slice)", allocs)
	}
}

// TestOptimalGovernorMemoTracksSlowdownBound: the memoized DVFS sweep
// must not serve a point cached under a different MaxSlowdown.
func TestOptimalGovernorMemoTracksSlowdownBound(t *testing.T) {
	d := cpu()
	task := simhpc.NewWorkloadGen(3).ComputeBound(100)
	g := &OptimalGovernor{} // unconstrained: free to pick a slow point
	free := g.PickPState(d, task)
	g.MaxSlowdown = 1.0000001 // effectively "no slowdown allowed"
	bound := g.PickPState(d, task)
	if bound != d.Spec.MaxPState() {
		t.Errorf("near-1.0 slowdown bound picked %d, want max %d (stale memo?)",
			bound, d.Spec.MaxPState())
	}
	if free == d.Spec.MaxPState() {
		t.Skip("unconstrained sweep already picked max; bound change not observable")
	}
}
