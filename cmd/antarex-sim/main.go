// antarex-sim runs the cluster-level experiments of the reproduction
// from the command line and prints the paper-vs-measured tables.
//
// Usage:
//
//	antarex-sim efficiency    # C1: hetero vs homog MFLOPS/W
//	antarex-sim variability   # C2: 15% component variation
//	antarex-sim governor      # C3: optimal vs Linux-default savings
//	antarex-sim pue           # C4: seasonal PUE + MS3 mitigation
//	antarex-sim powercap      # C5: throughput under the power envelope
//	antarex-sim docking       # U1: load-balancing comparison
//	antarex-sim kernel        # concurrent adaptation kernel: N apps, one RTRM
//	antarex-sim all           # everything
//
// Offline profile capture wraps any experiment:
//
//	antarex-sim -cpuprofile cpu.out -memprofile mem.out kernel
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/apps/dock"
	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// experimentOrder is the "all" sequence; experiments maps names to
// runnable experiments (the dispatch table exercised by main_test.go).
var experimentOrder = []string{"efficiency", "variability", "governor", "pue", "powercap", "docking", "kernel", "chaos", "crashloop"}

var experiments = map[string]func(){
	"efficiency":  efficiency,
	"variability": variability,
	"governor":    governor,
	"pue":         pue,
	"powercap":    powercap,
	"docking":     docking,
	"kernel":      kernelDemo,
	"chaos":       chaos,
	"crashloop":   crashloop,
}

// runExperiment dispatches one experiment (or "all"), returning an
// error for unknown names.
func runExperiment(name string) error {
	if name == "all" {
		for _, n := range experimentOrder {
			experiments[n]()
			fmt.Println()
		}
		return nil
	}
	fn, ok := experiments[name]
	if !ok {
		return fmt.Errorf("antarex-sim: unknown experiment %q", name)
	}
	fn()
	return nil
}

func main() {
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile after the experiment run to this file")
	flag.Int64Var(&crashloopSeed, "seed", crashloopSeed, "seed of the crashloop experiment's churn and kill schedule")
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antarex-sim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "antarex-sim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := runExperiment(cmd); err != nil {
		pprof.StopCPUProfile() // no-op when not started; os.Exit skips defers
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antarex-sim: -memprofile: %v\n", err)
			os.Exit(2)
		}
		goruntime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "antarex-sim: -memprofile: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}
}

func efficiency() {
	fmt.Println("== C1: heterogeneous vs homogeneous efficiency (paper §I: 7032 vs 2304 MFLOPS/W, ~3x) ==")
	het := simhpc.HeterogeneousNode("h", 0, nil)
	hom := simhpc.HomogeneousNode("o", 0, nil)
	he := het.EfficiencyGFLOPSPerW() * 1000
	ho := hom.EfficiencyGFLOPSPerW() * 1000
	fmt.Printf("  heterogeneous node (CPU+2 GPGPU): %7.0f MFLOPS/W\n", he)
	fmt.Printf("  homogeneous node (2 CPU):         %7.0f MFLOPS/W\n", ho)
	fmt.Printf("  ratio: %.2fx\n", he/ho)
}

func variability() {
	fmt.Println("== C2: energy variation across instances of the same component (paper §V: 15%) ==")
	rng := simhpc.NewRNG(42)
	task := &simhpc.Task{GFlop: 100, MemGB: 2}
	var min, max, sum float64
	const n = 64
	for i := 0; i < n; i++ {
		d := simhpc.NewDevice(simhpc.XeonCPUSpec(), "d", 0.15, rng)
		e := d.ExecEnergy(task, d.Spec.MaxPState())
		if i == 0 || e < min {
			min = e
		}
		if e > max {
			max = e
		}
		sum += e
	}
	fmt.Printf("  %d instances, same binary: min %.1f J, max %.1f J, spread %.1f%% of mean\n",
		n, min, max, (max-min)/(sum/n)*100)
}

func governor() {
	fmt.Println("== C3: optimal operating point vs Linux default governor (paper §V: 18-50% savings) ==")
	gen := simhpc.NewWorkloadGen(3)
	apps := []struct {
		name  string
		tasks []*simhpc.Task
	}{
		{"memory-bound", []*simhpc.Task{gen.MemoryBound(100), gen.MemoryBound(60)}},
		{"balanced", []*simhpc.Task{gen.Balanced(100), gen.Balanced(60)}},
		{"compute-bound", []*simhpc.Task{gen.ComputeBound(100), gen.ComputeBound(60)}},
	}
	for _, app := range apps {
		d := simhpc.NewDevice(simhpc.XeonCPUSpec(), "d", 0, nil)
		base, opt, saving := rtrm.GovernorSavings(d, app.tasks, 0)
		fmt.Printf("  %-14s ondemand: %7.1f J  optimal: %7.1f J  saving: %4.1f%%  (slowdown %.2fx)\n",
			app.name, base.EnergyJ, opt.EnergyJ, saving*100, opt.TimeS/base.TimeS)
	}
}

func pue() {
	fmt.Println("== C4: seasonal PUE and MS3 mitigation (paper §V: >10% loss winter→summer) ==")
	cool := simhpc.DefaultCooling()
	w, s := cool.PUE(15), cool.PUE(35)
	fmt.Printf("  PUE at 15C (winter): %.3f   at 35C (summer): %.3f   loss: %.1f%%\n", w, s, (s-w)/w*100)
	hot := simhpc.NewCluster(8, 35, func(int) *simhpc.Node { return simhpc.HomogeneousNode("n", 0, nil) })
	ms3 := rtrm.NewMS3()
	plan := ms3.Decide(hot)
	naive := rtrm.Plan{AdmitFraction: 1, PUE: hot.Cooling.PUE(hot.AmbientC)}
	fmt.Printf("  MS3 summer plan: admit %.0f%%, cooling boost %.2f, PUE %.3f\n",
		plan.AdmitFraction*100, plan.CoolingBoost, plan.PUE)
	fmt.Printf("  energy-to-solution: MS3 %.2e J vs naive %.2e J (%.1f%% saved)\n",
		ms3.EnergyToSolution(hot, plan, 1e6), ms3.EnergyToSolution(hot, naive, 1e6),
		(1-ms3.EnergyToSolution(hot, plan, 1e6)/ms3.EnergyToSolution(hot, naive, 1e6))*100)
}

func powercap() {
	fmt.Println("== C5: throughput under the facility power envelope (paper §I: 20 MW target) ==")
	rng := simhpc.NewRNG(17)
	c := simhpc.NewCluster(64, 20, func(i int) *simhpc.Node {
		if i%2 == 0 {
			return simhpc.HeterogeneousNode("h", 0.15, rng)
		}
		return simhpc.HomogeneousNode("c", 0.15, rng)
	})
	full := c.FacilityPowerW(1)
	fmt.Printf("  64-node mixed cluster: peak %.0f GFLOPS at %.0f kW facility\n", c.PeakGFLOPS(), full/1000)
	for _, frac := range []float64{1.0, 0.9, 0.85, 0.8} {
		cap := rtrm.PowerCapper{CapW: full * frac}
		g := cap.Apply(c, 1)
		u := cap.UniformCap(c, 1)
		fmt.Printf("  cap %3.0f%%: greedy %7.0f GFLOPS (%4.1f%%)  uniform %7.0f GFLOPS (%4.1f%%)  demotions %d\n",
			frac*100, g.ThroughputGFLOPS, g.ThroughputGFLOPS/c.PeakGFLOPS()*100,
			u.ThroughputGFLOPS, u.ThroughputGFLOPS/c.PeakGFLOPS()*100, g.Demotions)
	}
}

func docking() {
	fmt.Println("== U1: docking load balancing under heavy-tailed ligand costs (paper §VII-a) ==")
	for _, alpha := range []float64{1.2, 1.4, 1.8} {
		fmt.Printf("  Pareto alpha=%.1f (heavier tail = smaller alpha):\n", alpha)
		for _, r := range dock.Campaign(8, 400, alpha, 42) {
			fmt.Printf("    %s\n", r)
		}
	}
}

func kernelDemo() {
	fmt.Println("== concurrent adaptation kernel: 8 adaptive apps on one shared RTRM ==")
	const nApps = 8
	rng := simhpc.NewRNG(29)
	cluster := simhpc.NewCluster(16, 24, func(i int) *simhpc.Node {
		return simhpc.HeterogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	kern := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.85))

	gen := simhpc.NewWorkloadGen(31)
	var genMu sync.Mutex
	type appState struct {
		inbox *runtime.Inbox
		ctl   *runtime.Controller
		level float64
		mu    sync.Mutex
	}
	states := make([]*appState, nApps)
	for i := 0; i < nApps; i++ {
		st := &appState{inbox: &runtime.Inbox{}, level: 8}
		states[i] = st
		ctl, err := kern.Attach(runtime.AppSpec{
			Name: fmt.Sprintf("app%d", i),
			SLA: monitor.SLA{Goals: []monitor.Goal{
				{Metric: monitor.MetricLatency, Stat: "p95", Relation: monitor.AtMost, Target: 1.0},
			}},
			Window:   32,
			Debounce: 2,
			Sensor:   st.inbox,
			Policy: runtime.PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
				st.mu.Lock()
				defer st.mu.Unlock()
				if st.level <= 1 {
					return nil, false
				}
				return autotune.Config{"level": st.level / 2}, true
			}),
			Knob: runtime.KnobFunc(func(cfg autotune.Config) {
				st.mu.Lock()
				st.level = cfg["level"]
				st.mu.Unlock()
			}),
			Workload: func() ([]*simhpc.Task, error) {
				st.mu.Lock()
				n := int(st.level)
				st.mu.Unlock()
				genMu.Lock()
				defer genMu.Unlock()
				return gen.Mix(n, 1, 1, 1, 10), nil
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		st.ctl = ctl
	}

	// Telemetry producers: the odd apps run hot (SLA-violating latency)
	// and must shed load; the even apps stay healthy.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *appState) {
			defer wg.Done()
			lat := 0.2
			if i%2 == 1 {
				lat = 3.0
			}
			for ctx.Err() == nil {
				st.inbox.Push(monitor.MetricLatency, lat)
				time.Sleep(500 * time.Microsecond) // the producer's sample rate: a fixture
			}
		}(i, st)
	}

	start := time.Now()
	if err := kern.Start(ctx, runtime.Options{EpochDt: 60, Flush: 5 * time.Millisecond}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		cancel()
		wg.Wait()
		return
	}
	sig, unsub := kern.EpochSignal()
	for kern.Epochs() < 200 {
		<-sig // every epoch rings the signal
	}
	unsub()
	kern.Stop()
	cancel()
	wg.Wait()
	elapsed := time.Since(start)

	stats := kern.ManagerStats()
	totals := kern.TotalsPerApp()
	fmt.Printf("  %d epochs across %d apps in %v (%.0f epochs/s)\n",
		kern.Epochs(), nApps, elapsed.Round(time.Millisecond),
		float64(kern.Epochs())/elapsed.Seconds())
	eff := 0.0
	if stats.EnergyJ > 0 {
		eff = stats.WorkGFlop / stats.EnergyJ
	}
	fmt.Printf("  cluster: %.1f TFLOP done, %.2f MJ, efficiency %.3f GFLOP/J\n",
		stats.WorkGFlop/1000, stats.EnergyJ/1e6, eff)
	for i, st := range states {
		st.mu.Lock()
		level := st.level
		st.mu.Unlock()
		fmt.Printf("  app%d: %7.1f GFLOP  ticks %4d  adaptations %d  level %g\n",
			i, totals[fmt.Sprintf("app%d", i)], st.ctl.Ticks(), st.ctl.Adaptations(), level)
	}
}
