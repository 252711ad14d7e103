package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

func testManager(nodes int) *rtrm.Manager {
	rng := simhpc.NewRNG(101)
	cluster := simhpc.NewCluster(nodes, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	return rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9)
}

// simpleSpec is an app that offers a fixed workload each epoch.
func simpleSpec(name string, gen *simhpc.WorkloadGen, tasks int) AppSpec {
	return AppSpec{
		Name: name,
		Workload: func() ([]*simhpc.Task, error) {
			return gen.Mix(tasks, 1, 1, 1, 8), nil
		},
	}
}

func TestKernelAttachValidation(t *testing.T) {
	k := NewKernel(testManager(2))
	if _, err := k.Attach(AppSpec{}); !errors.Is(err, ErrEmptyAppName) {
		t.Errorf("empty name: %v, want ErrEmptyAppName", err)
	}
	if _, err := k.Attach(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(AppSpec{Name: "a"}); !errors.Is(err, ErrDuplicateApp) {
		t.Errorf("duplicate name: %v, want ErrDuplicateApp", err)
	}
	if err := k.Detach("nope"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("unknown detach: %v, want ErrUnknownApp", err)
	}
	if err := k.Start(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	// Live attach is allowed since the membership epoch landed; the
	// duplicate check still applies while running.
	if _, err := k.Attach(AppSpec{Name: "b"}); err != nil {
		t.Errorf("attach while running: %v, want success", err)
	}
	if _, err := k.Attach(AppSpec{Name: "b"}); !errors.Is(err, ErrDuplicateApp) {
		t.Errorf("duplicate live attach: %v, want ErrDuplicateApp", err)
	}
	if err := k.Start(context.Background(), Options{}); !errors.Is(err, ErrRunning) {
		t.Errorf("double start: %v, want ErrRunning", err)
	}
	if _, err := k.RunEpoch(60); !errors.Is(err, ErrRunning) {
		t.Errorf("synchronous RunEpoch while running: %v, want ErrRunning", err)
	}
}

// TestKernelErrClearedOnRestart: a previous run's workload error must
// not outlive a Stop/Start restart.
func TestKernelErrClearedOnRestart(t *testing.T) {
	k := NewKernel(testManager(2))
	var failing atomic.Bool
	failing.Store(true)
	if _, err := k.Attach(AppSpec{
		Name: "flaky",
		Workload: func() ([]*simhpc.Task, error) {
			if failing.Load() {
				return nil, fmt.Errorf("transient")
			}
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// The failing app still contributes (no tasks), so the epoch after
	// its error rings the signal.
	waitEpoch(t, k, "the workload error", func() bool { return k.Err() != nil })
	k.Stop()
	failing.Store(false)
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	want := k.Epochs() + 2
	waitEpoch(t, k, "epochs after a healthy restart", func() bool { return k.Epochs() >= want })
	k.Stop()
	if err := k.Err(); err != nil {
		t.Errorf("stale error after healthy restart: %v", err)
	}
}

// TestKernelStartEmptyThenAttach: starting with zero apps parks the
// supervisor until the first attach — the serving-system shape, where
// the kernel is up before any tenant registers.
func TestKernelStartEmptyThenAttach(t *testing.T) {
	k := NewKernel(testManager(2))
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatalf("start with no apps: %v", err)
	}
	defer k.Stop()
	if got := k.Epochs(); got != 0 {
		t.Fatalf("epochs before any app: %d", got)
	}
	gen := simhpc.NewWorkloadGen(3)
	if _, err := k.Attach(simpleSpec("late", gen, 2)); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "epochs driven by the late-attached app", func() bool { return k.Epochs() >= 3 })
	if k.TotalsPerApp()["late"] <= 0 {
		t.Error("late app contributed no work")
	}
}

// TestKernelSynchronousEpochs covers the deterministic driving mode:
// the old core.System behaviour, now multiplexing several apps.
func TestKernelSynchronousEpochs(t *testing.T) {
	k := NewKernel(testManager(4))
	for i := 0; i < 3; i++ {
		gen := simhpc.NewWorkloadGen(uint64(5 + i))
		if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), gen, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 5; e++ {
		res, err := k.RunEpoch(60)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerApp) != 3 {
			t.Fatalf("epoch %d contributors: %v", e, res.PerApp)
		}
		for name, g := range res.PerApp {
			if g <= 0 {
				t.Errorf("epoch %d: app %s offered no work", e, name)
			}
		}
	}
	if stats := k.ManagerStats(); k.Epochs() != 5 || stats.Epochs != 5 {
		t.Errorf("epochs: kernel=%d manager=%d", k.Epochs(), stats.Epochs)
	}
	if k.ManagerStats().WorkGFlop <= 0 {
		t.Error("no work recorded")
	}
}

// TestKernelWorkloadError verifies error propagation in sync mode.
func TestKernelWorkloadError(t *testing.T) {
	k := NewKernel(testManager(2))
	boom := fmt.Errorf("not tuned")
	if _, err := k.Attach(AppSpec{
		Name:     "bad",
		Workload: func() ([]*simhpc.Task, error) { return nil, boom },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunEpoch(60); err == nil {
		t.Fatal("workload error should propagate")
	}
}

// TestRunEpochSequential: RunEpoch ticks apps in attach order on the
// caller's goroutine even when cores are free for a fan-out, so no two
// Workload calls ever overlap; a failing app ends the epoch there — the
// apps after it are not called, and no epoch is counted.
func TestRunEpochSequential(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(prev)

	const nApps = 8
	var (
		mu                    sync.Mutex // guards calls, inFlight, maxInFlight
		calls                 []int
		inFlight, maxInFlight int
		failing               atomic.Bool
	)
	k := NewKernel(testManager(2))
	for i := 0; i < nApps; i++ {
		gen := simhpc.NewWorkloadGen(uint64(50 + i))
		if _, err := k.Attach(AppSpec{
			Name: fmt.Sprintf("app%d", i),
			Workload: func() ([]*simhpc.Task, error) {
				mu.Lock()
				inFlight++
				maxInFlight = max(maxInFlight, inFlight)
				calls = append(calls, i)
				mu.Unlock()
				// The sleep is the fixture: it holds the call open, so a
				// concurrent tick of another app would overlap it.
				time.Sleep(200 * time.Microsecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
				if i == 3 && failing.Load() {
					return nil, fmt.Errorf("not tuned")
				}
				return gen.Mix(2, 1, 1, 1, 8), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	inOrder := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for e := 0; e < 3; e++ {
		calls = calls[:0]
		if _, err := k.RunEpoch(60); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(calls, inOrder) {
			t.Fatalf("epoch %d: Workload calls %v, want attach order %v", e, calls, inOrder)
		}
	}
	if maxInFlight != 1 {
		t.Fatalf("%d Workload calls in flight at once, want 1", maxInFlight)
	}

	failing.Store(true)
	before := k.ManagerStats().Epochs
	calls = calls[:0]
	_, err := k.RunEpoch(60)
	if err == nil || !strings.Contains(err.Error(), "app3") {
		t.Fatalf("RunEpoch error = %v, want one naming app3", err)
	}
	if want := inOrder[:4]; !slices.Equal(calls, want) {
		t.Errorf("Workload calls %v, want %v: apps after the failing one are not ticked", calls, want)
	}
	if got := k.ManagerStats().Epochs; got != before {
		t.Errorf("epochs moved %d -> %d on a failed epoch", before, got)
	}
}

// TestKernelAdaptationLoop runs a full collect-analyse-decide-act cycle
// through the kernel: a sensor reports SLA-violating latency, the policy
// picks a cheaper configuration, the knob applies it, and the workload
// shrinks accordingly.
func TestKernelAdaptationLoop(t *testing.T) {
	k := NewKernel(testManager(2))
	gen := simhpc.NewWorkloadGen(9)
	inbox := &Inbox{}
	var mu sync.Mutex
	level := 4.0 // work level; policy halves it under violation

	ctl, err := k.Attach(AppSpec{
		Name: "adaptive",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   8,
		Debounce: 2,
		Sensor:   inbox,
		Policy: PolicyFunc(func(d monitor.Decision, _ map[string]monitor.Summary) (autotune.Config, bool) {
			mu.Lock()
			defer mu.Unlock()
			if level <= 1 {
				return nil, false
			}
			return autotune.Config{"level": level / 2}, true
		}),
		Knob: KnobFunc(func(cfg autotune.Config) {
			mu.Lock()
			level = cfg["level"]
			mu.Unlock()
		}),
		Workload: func() ([]*simhpc.Task, error) {
			mu.Lock()
			n := int(level)
			mu.Unlock()
			return gen.Mix(n, 1, 1, 1, 5), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy epochs: no adaptation.
	inbox.Push(monitor.MetricLatency, 0.5)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if ctl.Adaptations() != 0 {
		t.Fatal("adapted while healthy")
	}
	// Sustained violation: adapts after the debounce.
	for e := 0; e < 3; e++ {
		inbox.Push(monitor.MetricLatency, 3.0)
		if _, err := k.RunEpoch(60); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.Adaptations() != 1 {
		t.Fatalf("adaptations: %d, want 1", ctl.Adaptations())
	}
	mu.Lock()
	got := level
	mu.Unlock()
	if got != 2 {
		t.Errorf("level after adaptation: %v, want 2", got)
	}
	// The firing decision reset the windows; only the sample collected
	// after the adaptation remains.
	if n := ctl.Metrics().Window(monitor.MetricLatency).Len(); n != 1 {
		t.Errorf("window has %d samples after reset+1 push, want 1", n)
	}
}

// TestKernelConcurrentApps is the acceptance-criterion test: the kernel
// drives many apps at once through one shared manager, with producer
// goroutines pushing telemetry the whole time. Run under -race in CI.
func TestKernelConcurrentApps(t *testing.T) {
	const nApps = 8
	k := NewKernel(testManager(8))
	gen := simhpc.NewWorkloadGen(13)
	var genMu sync.Mutex
	inboxes := make([]*Inbox, nApps)
	ctls := make([]*Controller, nApps)
	for i := 0; i < nApps; i++ {
		inbox := &Inbox{}
		inboxes[i] = inbox
		ctl, err := k.Attach(AppSpec{
			Name: fmt.Sprintf("app%d", i),
			SLA: monitor.SLA{Goals: []monitor.Goal{
				{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
			}},
			Window:   16,
			Debounce: 2,
			Sensor:   inbox,
			Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
				return autotune.Config{"x": 1}, true
			}),
			Knob: KnobFunc(func(autotune.Config) {}),
			Workload: func() ([]*simhpc.Task, error) {
				genMu.Lock()
				defer genMu.Unlock()
				return gen.Mix(2, 1, 1, 1, 4), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctls[i] = ctl
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Telemetry producers run concurrently with the kernel loops; half
	// the apps see violating latency and must adapt.
	var prodWG sync.WaitGroup
	for i := 0; i < nApps; i++ {
		prodWG.Add(1)
		go func(i int) {
			defer prodWG.Done()
			lat := 0.2
			if i%2 == 0 {
				lat = 5.0
			}
			for ctx.Err() == nil {
				inboxes[i].Push(monitor.MetricLatency, lat)
				time.Sleep(time.Millisecond) // the producer's sample rate is the fixture
			}
		}(i)
	}

	if err := k.Start(ctx, Options{EpochDt: 60, Flush: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "20 epochs", func() bool { return k.Epochs() >= 20 })
	k.Stop()
	cancel()
	prodWG.Wait()

	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	totals := k.TotalsPerApp()
	for i := 0; i < nApps; i++ {
		name := fmt.Sprintf("app%d", i)
		if totals[name] <= 0 {
			t.Errorf("%s contributed no work (totals %v)", name, totals)
		}
		if ctls[i].Ticks() == 0 {
			t.Errorf("%s never ticked", name)
		}
	}
	// The violating half adapted; the healthy half did not.
	for i := 0; i < nApps; i++ {
		adapted := ctls[i].Adaptations() > 0
		if i%2 == 0 && !adapted {
			t.Errorf("app%d saw violations but never adapted", i)
		}
		if i%2 == 1 && adapted {
			t.Errorf("app%d was healthy but adapted", i)
		}
	}
	if stats := k.ManagerStats(); stats.Epochs != int(k.Epochs()) {
		t.Errorf("manager epochs %d != kernel epochs %d", stats.Epochs, k.Epochs())
	}
}

// TestKernelFlushToleratesStragglers: a stalled app must not wedge the
// other apps' epochs.
func TestKernelFlushToleratesStragglers(t *testing.T) {
	k := NewKernel(testManager(2))
	gen := simhpc.NewWorkloadGen(17)
	var genMu sync.Mutex
	mkWorkload := func(delay time.Duration) Workload {
		return func() ([]*simhpc.Task, error) {
			if delay > 0 {
				time.Sleep(delay) // the stall is the fixture
			}
			genMu.Lock()
			defer genMu.Unlock()
			return gen.Mix(1, 1, 1, 1, 4), nil
		}
	}
	if _, err := k.Attach(AppSpec{Name: "fast", Workload: mkWorkload(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(AppSpec{Name: "slow", Workload: mkWorkload(400 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "6 epochs past the stalled app", func() bool { return k.Epochs() >= 6 })
	k.Stop()
	totals := k.TotalsPerApp()
	if totals["fast"] <= totals["slow"] {
		t.Errorf("fast app should outpace slow: %v", totals)
	}
}

// TestKernelRestart: Stop then Start again reuses the kernel.
func TestKernelRestart(t *testing.T) {
	k := NewKernel(testManager(2))
	gen := simhpc.NewWorkloadGen(23)
	if _, err := k.Attach(simpleSpec("a", gen, 2)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := k.Start(context.Background(), Options{Flush: 10 * time.Millisecond}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := k.Epochs() + 3
		waitEpoch(t, k, fmt.Sprintf("round %d epochs", round), func() bool { return k.Epochs() >= want })
		k.Stop()
	}
	// Synchronous driving still works after concurrent rounds.
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
}

// TestStartWaitsForRunEpoch: Start called while a synchronous RunEpoch
// is in flight waits for it instead of launching loops that share its
// epoch scratch and reply channels — the RunEpoch loop then sees
// ErrRunning, the concurrent epochs advance and Stop returns.
func TestStartWaitsForRunEpoch(t *testing.T) {
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still blocked after 10s", what)
		}
	}
	for round := 0; round < 50; round++ {
		k := NewKernel(testManager(2), testManager(2))
		for i := 0; i < 8; i++ {
			gen := simhpc.NewWorkloadGen(uint64(61 + i))
			if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), gen, 2)); err != nil {
				t.Fatal(err)
			}
		}
		first := make(chan struct{})
		syncDone := make(chan error, 1)
		go func() {
			for n := 0; ; n++ {
				_, err := k.RunEpoch(60)
				if n == 0 {
					close(first)
				}
				if err != nil {
					syncDone <- err
					return
				}
			}
		}()
		<-first // the next RunEpoch is about to start, or running
		if err := k.Start(context.Background(), Options{Flush: time.Millisecond}); err != nil {
			t.Fatalf("round %d: start: %v", round, err)
		}
		within("RunEpoch loop", func() {
			if err := <-syncDone; !errors.Is(err, ErrRunning) {
				t.Errorf("round %d: RunEpoch after Start: %v, want ErrRunning", round, err)
			}
		})
		want := k.Epochs() + 3
		waitFor(t, "concurrent epochs", func() bool { return k.Epochs() >= want })
		within("Stop", k.Stop)
		if err := k.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestKernelScratchReuseAcrossRestarts: the epoch engine's reused
// scratch buffers (per-backend task batches, the sync driver's
// contributions) must not leak state across Start/Stop cycles or
// between the two driving modes, and a published EpochResult must stay
// immutable once later epochs run.
func TestKernelScratchReuseAcrossRestarts(t *testing.T) {
	k := NewKernel(testManager(4))
	const nApps = 6
	for i := 0; i < nApps; i++ {
		gen := simhpc.NewWorkloadGen(uint64(31 + i))
		if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), gen, 1+i%3)); err != nil {
			t.Fatal(err)
		}
	}

	// Sync epochs before, between and after concurrent rounds.
	prev, err := k.RunEpoch(60)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make(map[string]float64, len(prev.PerApp))
	for name, g := range prev.PerApp {
		snapshot[name] = g
	}
	for round := 0; round < 2; round++ {
		if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := k.Epochs() + 4
		waitEpoch(t, k, fmt.Sprintf("round %d epochs", round), func() bool { return k.Epochs() >= want })
		k.Stop()
		res, err := k.RunEpoch(60)
		if err != nil {
			t.Fatalf("round %d: sync after concurrent: %v", round, err)
		}
		if len(res.PerApp) != nApps {
			t.Fatalf("round %d: %d contributors, want %d (stale scratch?)", round, len(res.PerApp), nApps)
		}
		for name, g := range res.PerApp {
			if g <= 0 {
				t.Errorf("round %d: %s offered no work", round, name)
			}
		}
	}
	// The first epoch's result must not have been clobbered by any of
	// the later epochs reusing kernel scratch.
	if len(prev.PerApp) != len(snapshot) {
		t.Fatalf("published PerApp mutated: %v vs %v", prev.PerApp, snapshot)
	}
	for name, g := range snapshot {
		if prev.PerApp[name] != g {
			t.Errorf("published PerApp[%s] changed: %v -> %v", name, g, prev.PerApp[name])
		}
	}
	totals := k.TotalsPerApp()
	for i := 0; i < nApps; i++ {
		if totals[fmt.Sprintf("app%d", i)] <= 0 {
			t.Errorf("app%d lost its totals across restarts: %v", i, totals)
		}
	}
}

// TestKernelSyncEpochAllocs pins the tentpole property: a synchronous
// epoch's kernel-side overhead stays within a small constant allocation
// budget regardless of app count (the workloads themselves still
// allocate their tasks).
func TestKernelSyncEpochAllocs(t *testing.T) {
	const nApps = 16
	k := NewKernel(testManager(4))
	for i := 0; i < nApps; i++ {
		name := fmt.Sprintf("app%d", i)
		if _, err := k.Attach(AppSpec{Name: name}); err != nil { // no Workload: kernel overhead only
			t.Fatal(err)
		}
	}
	if _, err := k.RunEpoch(60); err != nil { // warm scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := k.RunEpoch(60); err != nil {
			t.Fatal(err)
		}
	})
	// The escaping PerApp map (4 objects at 16 entries) and the
	// manager's cap plan (1) are the only per-epoch allocations; the
	// budget leaves one object of headroom. Anything growing with nApps
	// would land far above it.
	if allocs > 6 {
		t.Errorf("sync epoch allocates %.0f objects for %d apps, want <= 6", allocs, nApps)
	}
}

// TestOnEpochSeesPerApp: a concurrent epoch builds PerApp and Backends
// only when it has a reader, and one app's OnEpoch is a reader — every
// call it gets lists every contributor with its offered GFlop, the apps
// without an OnEpoch included, and every backend that committed. Flush
// is long, so no epoch before Stop cuts a partial batch.
func TestOnEpochSeesPerApp(t *testing.T) {
	const nApps = 6
	var mu sync.Mutex
	var seen []map[string]float64
	var seenBackends [][]BackendEpoch
	k := NewKernel(testManager(2), testManager(2))
	for i := 0; i < nApps; i++ {
		g := float64(i + 1)
		spec := AppSpec{
			Name: fmt.Sprintf("app%d", i),
			Workload: func() ([]*simhpc.Task, error) {
				return []*simhpc.Task{{GFlop: g}, {GFlop: g}}, nil
			},
		}
		if i == 2 {
			spec.OnEpoch = func(res EpochResult) {
				mu.Lock()
				seen = append(seen, res.PerApp)
				seenBackends = append(seenBackends, res.Backends)
				mu.Unlock()
			}
		}
		if _, err := k.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), Options{Flush: time.Minute}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "observed epochs", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= 20
	})
	mu.Lock()
	got := append([]map[string]float64(nil), seen[:20]...)
	gotBackends := append([][]BackendEpoch(nil), seenBackends[:20]...)
	mu.Unlock()
	// Pinned placement never migrates, so every epoch commits on the
	// backends the apps were placed on, in registration order.
	var want []string
	for _, b := range k.Backends() {
		for i := 0; i < nApps; i++ {
			if k.AppBackend(fmt.Sprintf("app%d", i)) == b {
				want = append(want, b)
				break
			}
		}
	}
	for e, perApp := range got {
		var names []string
		for _, be := range gotBackends[e] {
			names = append(names, be.Name)
		}
		if !slices.Equal(names, want) {
			t.Errorf("call %d: Backends %v, want an entry for each committing backend %v", e, names, want)
		}
		if len(perApp) != nApps {
			t.Fatalf("call %d: PerApp %v, want all %d contributors", e, perApp, nApps)
		}
		for i := 0; i < nApps; i++ {
			if name, want := fmt.Sprintf("app%d", i), 2*float64(i+1); perApp[name] != want {
				t.Errorf("call %d: PerApp[%s] = %v, want %v", e, name, perApp[name], want)
			}
		}
	}
}
