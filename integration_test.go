package repro

import (
	"strings"
	"testing"

	"repro/internal/apps/nav"
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/dsl/interp"
	"repro/internal/ir"
	"repro/internal/precision"
	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// TestIntegrationWeaveToRTRM crosses the full stack: a woven, dynamically
// specialized application runs on the IR VM; its cycle cost is mapped to
// a simulator task; the RTRM's governors then pick the operating point —
// connecting the application autotuning loop to the system control loop
// exactly as Fig. 1 draws them.
func TestIntegrationWeaveToRTRM(t *testing.T) {
	tf, err := core.NewToolFlow("app.c", benchKernelSrc, benchAspects)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.WeaveAspect("SpecializeKernel", interp.Num(4), interp.Num(64)); err != nil {
		t.Fatal(err)
	}
	if err := tf.Compile(); err != nil {
		t.Fatal(err)
	}
	buf := benchBuf(32)
	measure := func() float64 {
		before := tf.VM.Cycles
		if _, err := tf.Invoke("run", ir.PtrValue(buf), ir.NumValue(32), ir.NumValue(20)); err != nil {
			t.Fatal(err)
		}
		return float64(tf.VM.Cycles - before)
	}
	warm := measure() // triggers specialization
	steady := measure()
	if steady > warm {
		t.Errorf("steady-state cycles %v should not exceed warm-up %v", steady, warm)
	}

	// Map simulated cycles to a cluster task: this kernel is a streaming
	// reduction, so treat its work as balanced roofline traffic.
	task := &simhpc.Task{GFlop: steady / 1e4, MemGB: steady / 3e5}
	dev := simhpc.NewDevice(simhpc.XeonCPUSpec(), "node0-cpu", 0, nil)
	baseline, optimal, saving := rtrm.GovernorSavings(dev, []*simhpc.Task{task}, 0)
	if saving <= 0 {
		t.Errorf("optimal governor should save energy: baseline %v optimal %v",
			baseline.EnergyJ, optimal.EnergyJ)
	}
}

// TestIntegrationNavigationAutotunedFidelity uses the real autotuner
// (UCB bandit) to pick the navigation fidelity offline for a given load,
// cross-checking the use case against the autotune package.
func TestIntegrationNavigationAutotunedFidelity(t *testing.T) {
	g := nav.NewGraph(24, 24, 3, 7)
	srv := nav.NewServer(g, 3000, 0.5, 5)
	space := autotune.NewSpace(autotune.VariantKnob("fidelity",
		"exact", "astar", "coarse2", "coarse4"))
	// Cost under storm load: latency penalty (SLA-weighted) + quality loss.
	lambda := 40.0
	obj := func(cfg autotune.Config) autotune.Measurement {
		srv.Fid = nav.Fidelity(int(cfg["fidelity"]))
		st := srv.RunEpoch(0, lambda, 20)
		cost := st.P95Latency / 0.5 // normalized against the SLA
		if cost < 1 {
			cost = 1 // met: only quality matters below the SLA
		}
		cost += (1 - st.Quality) * 0.5
		return autotune.Measurement{Cost: cost}
	}
	tuner := autotune.NewTuner(space, &autotune.UCB{Budget: 40, C: 0.3}, obj)
	best, _, err := tuner.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	chosen := nav.Fidelity(int(space.At(best)["fidelity"]))
	// Under a 40 req/s storm with 3000 expansions/s, only the coarse
	// fidelities hold the SLA.
	if chosen == nav.Exact || chosen == nav.AStar {
		t.Errorf("autotuner picked %s under storm load; expected a coarse fidelity", chosen)
	}
}

// TestIntegrationPrecisionAsKnob exposes the precision format as an
// autotune knob and lets exhaustive search find the energy-optimal
// format under an error budget, uniting §IV's two autotuning paths.
func TestIntegrationPrecisionAsKnob(t *testing.T) {
	rng := simhpc.NewRNG(31)
	n := 256
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Uniform(-1, 1)
		y[i] = rng.Uniform(-1, 1)
	}
	k := &precision.Dot{X: x, Y: y}
	evals := precision.Evaluate(k)
	space := autotune.NewSpace(autotune.VariantKnob("format",
		"float64", "float32", "bfloat16", "fixed16"))
	const errBudget = 1e-2
	obj := func(cfg autotune.Config) autotune.Measurement {
		e := evals[int(cfg["format"])]
		cost := e.EnergyAU
		if e.RelError > errBudget {
			cost += 1e12 // constraint violation
		}
		return autotune.Measurement{Cost: cost}
	}
	tuner := autotune.NewTuner(space, &autotune.Exhaustive{}, obj)
	best, m, err := tuner.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost >= 1e12 {
		t.Fatal("tuner picked a budget-violating format")
	}
	want := precision.Tune(k, errBudget).Chosen
	got := precision.Formats()[int(space.At(best)["format"])]
	if got != want {
		t.Errorf("autotuner chose %s, precision.Tune chooses %s", got, want)
	}
}

// TestIntegrationDeterminism re-runs a cross-stack scenario twice and
// demands bit-identical results — the reproducibility contract of
// DESIGN.md.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() (float64, int64, float64) {
		// Cluster epoch under manager.
		rng := simhpc.NewRNG(77)
		cluster := simhpc.NewCluster(6, 28, func(int) *simhpc.Node {
			return simhpc.HeterogeneousNode("n", 0.15, rng)
		})
		m := rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.8)
		gen := simhpc.NewWorkloadGen(78)
		for i := 0; i < 10; i++ {
			m.RunEpoch(60, gen.Mix(24, 1, 1, 1, 12), 1)
		}
		// Woven VM execution.
		tf, err := core.NewToolFlow("app.c", benchKernelSrc, benchAspects)
		if err != nil {
			t.Fatal(err)
		}
		if err := tf.WeaveAspect("SpecializeKernel", interp.Num(4), interp.Num(64)); err != nil {
			t.Fatal(err)
		}
		if err := tf.Compile(); err != nil {
			t.Fatal(err)
		}
		buf := benchBuf(16)
		if _, err := tf.Invoke("run", ir.PtrValue(buf), ir.NumValue(16), ir.NumValue(5)); err != nil {
			t.Fatal(err)
		}
		return m.EnergyJ, tf.VM.Cycles, m.WorkGFlop
	}
	e1, c1, w1 := run()
	e2, c2, w2 := run()
	if e1 != e2 || c1 != c2 || w1 != w2 {
		t.Errorf("not deterministic: (%v,%v,%v) vs (%v,%v,%v)", e1, c1, w1, e2, c2, w2)
	}
}

// TestIntegrationWovenSourceIsValidMiniC re-parses woven output: the
// weaver must always produce syntactically valid source (a property the
// printer round-trip guarantees per-construct; this checks it end to
// end after aspect application).
func TestIntegrationWovenSourceIsValidMiniC(t *testing.T) {
	tf, err := core.NewToolFlow("app.c", benchKernelSrc, benchAspects)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.WeaveAspect("ProfileArguments", interp.Str("kernel")); err != nil {
		t.Fatal(err)
	}
	src := tf.Source()
	if !strings.Contains(src, "profile_args") {
		t.Fatal("weaving had no effect")
	}
	tf2, err := core.NewToolFlow("rewoven.c", src, benchAspects)
	if err != nil {
		t.Fatalf("woven source does not re-parse: %v", err)
	}
	if err := tf2.Compile(); err != nil {
		t.Fatalf("woven source does not recompile: %v", err)
	}
	if err := tf.Compile(); err != nil {
		t.Fatal(err)
	}
	buf := benchBuf(8)
	v1, err := tf.Invoke("kernel", ir.PtrValue(buf), ir.NumValue(8))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tf2.Invoke("kernel", ir.PtrValue(buf), ir.NumValue(8))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Num != v2.Num {
		t.Errorf("rewoven result %v != original %v", v2.Num, v1.Num)
	}
}

// TestIntegrationProfileDrivenPrecision wires the Fig. 2 profiling
// aspect to the precision package's dynamic-range profiler: the woven
// probes observe every runtime argument of kernel, and the profiler
// recommends the narrowest safe format — the paper's "fully automatic
// dynamic optimizations based on ... dynamic range of function
// parameters".
func TestIntegrationProfileDrivenPrecision(t *testing.T) {
	tf, err := core.NewToolFlow("app.c", benchKernelSrc, benchAspects)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.WeaveAspect("ProfileArguments", interp.Str("kernel")); err != nil {
		t.Fatal(err)
	}
	if err := tf.Compile(); err != nil {
		t.Fatal(err)
	}
	prof := precision.NewRangeProfiler()
	// Rebind the woven probe to feed the range profiler. The callee's
	// scalar parameters map to the trailing probe arguments.
	tf.VM.RegisterExtern("profile_args", func(_ *ir.VM, args []ir.Value) (ir.Value, error) {
		if len(args) >= 4 && args[3].Kind == ir.KindNum {
			prof.Observe(args[0].Str, "size", args[3].Num)
		}
		return ir.NumValue(0), nil
	})
	buf := benchBuf(48)
	for _, size := range []float64{16, 32, 48} {
		if _, err := tf.Invoke("run", ir.PtrValue(buf), ir.NumValue(size), ir.NumValue(3)); err != nil {
			t.Fatal(err)
		}
	}
	r := prof.Range("kernel", "size")
	if r == nil || r.N != 9 || r.Min != 16 || r.Max != 48 {
		t.Fatalf("profiled range: %+v", r)
	}
	// Small integral values at a loose budget: fixed point suffices.
	if got := prof.Recommend("kernel", "size", 1e-2); got != precision.Fixed16 {
		t.Errorf("recommended %s, want fixed16.16", got)
	}
}
