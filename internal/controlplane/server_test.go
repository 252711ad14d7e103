package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

func newTestPlane(t *testing.T) (*runtime.Kernel, *Client) {
	t.Helper()
	rng := simhpc.NewRNG(101)
	cluster := simhpc.NewCluster(4, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	k := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	srv := httptest.NewServer(NewServer(k))
	t.Cleanup(srv.Close)
	return k, NewClient(srv.URL, srv.Client())
}

// waitFor blocks on the kernel's epoch signal (see waitEpoch) until
// cond holds, and fails the test on waitEpoch's timeout. cond must read
// state whose every change rings the signal: epochs, levels, placement,
// health, totals, served generations.
func waitFor(t *testing.T, k *runtime.Kernel, what string, cond func() bool) {
	t.Helper()
	if !waitEpoch(k, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// pollFor polls cond every 2 ms for up to 10 s. It is for conditions no
// kernel event rings; each caller says why waitFor does not apply.
func pollFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerLifecycle is the end-to-end acceptance path: the kernel is
// started empty as a service, two tenants register over HTTP, stream
// observations, one adapts down its level ladder under a violated SLA,
// one detaches live — all while epochs keep flowing for the survivor.
func TestServerLifecycle(t *testing.T) {
	k, c := newTestPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	if h, err := c.Health(); err != nil || h.Status != "ok" || !h.Running {
		t.Fatalf("health before tenants: %+v, %v", h, err)
	}

	// Tenant A: healthy SLA. Tenant B: violated SLA with a level ladder.
	if _, err := c.Register(AppSpec{
		Name:     "healthy",
		Goals:    []GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: WorkloadSpec{Tasks: 2, GFlop: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(AppSpec{
		Name:     "overloaded",
		Window:   8,
		Debounce: 2,
		Goals:    []GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: WorkloadSpec{Tasks: 2, GFlop: 4},
		Policy:   &PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.5, 0.25}},
	}); err != nil {
		t.Fatal(err)
	}

	// Stream observations until the test winds down.
	streamCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	var streams sync.WaitGroup
	for name, lat := range map[string]float64{"healthy": 0.2, "overloaded": 5.0} {
		streams.Add(1)
		go func(name string, lat float64) {
			defer streams.Done()
			for streamCtx.Err() == nil {
				if _, err := c.Observe(name, []Observation{
					{Metric: monitor.MetricLatency, Value: lat},
					{Metric: monitor.MetricLatency, Value: lat},
				}); err != nil {
					return // app detached or server closing
				}
				time.Sleep(time.Millisecond)
			}
		}(name, lat)
	}

	// Both tenants get admitted and contribute; the overloaded one walks
	// its ladder down.
	waitFor(t, k, "both tenants contributing", func() bool {
		ep, err := c.Epochs()
		return err == nil && ep.TotalsPerApp["healthy"] > 0 && ep.TotalsPerApp["overloaded"] > 0
	})
	waitFor(t, k, "overloaded tenant adapting", func() bool {
		st, err := c.App("overloaded")
		return err == nil && st.Adaptations > 0 && st.Level < 1
	})
	if st, err := c.App("healthy"); err != nil || st.Adaptations != 0 {
		t.Errorf("healthy tenant adapted: %+v, %v", st, err)
	}

	// Live detach: the healthy tenant leaves; the overloaded one keeps
	// its epochs.
	if err := c.Detach("healthy"); err != nil {
		t.Fatal(err)
	}
	// 2 → 1 apps also changes the loop count: a rebuild, not a patch.
	waitFor(t, k, "membership served after detach", func() bool {
		h, err := c.Health()
		return err == nil && h.Generation == h.ServedGeneration && h.Apps == 1 && h.Rebuilds >= 1
	})
	if _, err := c.App("healthy"); !IsNotFound(err) {
		t.Errorf("detached app lookup: %v, want 404", err)
	}
	ep0, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "survivor epochs after detach", func() bool {
		ep, err := c.Epochs()
		return err == nil && ep.Epochs >= ep0.Epochs+5 &&
			ep.TotalsPerApp["overloaded"] > ep0.TotalsPerApp["overloaded"]
	})
	// Detached tenants keep their cumulative totals in /v1/epochs.
	if ep, _ := c.Epochs(); ep.TotalsPerApp["healthy"] <= 0 {
		t.Error("detached tenant's totals were dropped")
	}

	stopStreams()
	streams.Wait()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := c.App("overloaded")
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples == 0 || st.Ticks == 0 || st.TotalGFlop <= 0 {
		t.Errorf("overloaded status not populated: %+v", st)
	}
}

// TestServerValidation covers the error mapping: 400 for malformed
// specs, 409 for duplicates, 404 for unknown tenants.
func TestServerValidation(t *testing.T) {
	k, c := newTestPlane(t)
	_ = k
	if _, err := c.Register(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	var api *APIError
	if _, err := c.Register(AppSpec{Name: "a"}); !asAPI(err, &api) || api.Status != http.StatusConflict {
		t.Errorf("duplicate register: %v, want 409", err)
	}
	if _, err := c.Register(AppSpec{}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("empty name: %v, want 400", err)
	}
	if _, err := c.Register(AppSpec{Name: "b", Goals: []GoalSpec{{Metric: "x", Relation: "sideways"}}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("bad relation: %v, want 400", err)
	}
	if _, err := c.Register(AppSpec{Name: "b", Goals: []GoalSpec{{Target: 1}}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("goal without metric: %v, want 400", err)
	}
	// Magnitude ceilings: numbers a 64 KiB body can carry must not be
	// able to make the kernel allocate gigabytes or feed the simulator
	// negative work.
	if _, err := c.Register(AppSpec{Name: "huge", Workload: WorkloadSpec{Tasks: 1 << 30}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("oversized task count: %v, want 400", err)
	}
	if _, err := c.Register(AppSpec{Name: "wide", Window: 1 << 30}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("oversized window: %v, want 400", err)
	}
	if _, err := c.Register(AppSpec{Name: "neg", Policy: &PolicySpec{Type: PolicyLadder, Levels: []float64{1, -0.5}}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("negative level: %v, want 400", err)
	}
	// Names must stay addressable as a URL path segment — "..", "." and
	// slashes would 201 on register but 404 on every per-app route.
	for _, name := range []string{"..", ".", "a/b", "a b", "é"} {
		if _, err := c.Register(AppSpec{Name: name}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
			t.Errorf("unaddressable name %q: %v, want 400", name, err)
		}
	}
	// Metric cardinality: each distinct name permanently allocates a
	// window, so the per-app cap must hold across batches.
	if _, err := c.Register(AppSpec{Name: "cardinal"}); err != nil {
		t.Fatal(err)
	}
	wide := make([]Observation, maxMetricsPerApp)
	for i := range wide {
		wide[i] = Observation{Metric: fmt.Sprintf("m%d", i), Value: 1}
	}
	// A rejected over-cap batch must be all-or-nothing: its leading
	// names may not burn slots the next well-formed batch needs.
	over := append(append([]Observation(nil), wide...), Observation{Metric: "m-over", Value: 1})
	if _, err := c.Observe("cardinal", append(over, over...)); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("over-cap batch: %v, want 400", err)
	}
	if n, err := c.Observe("cardinal", wide); err != nil || n != maxMetricsPerApp {
		t.Fatalf("at-cap batch after rejected one: %d, %v (cardinality slots burned?)", n, err)
	}
	if _, err := c.Observe("cardinal", wide[:1]); err != nil {
		t.Errorf("known metric after cap: %v", err)
	}
	if _, err := c.Observe("cardinal", []Observation{{Metric: "fresh", Value: 1}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("metric past cap: %v, want 400", err)
	}
	if err := c.Detach("ghost"); !IsNotFound(err) {
		t.Errorf("unknown detach: %v, want 404", err)
	}
	if _, err := c.App("ghost"); !IsNotFound(err) {
		t.Errorf("unknown app: %v, want 404", err)
	}
	if _, err := c.Observe("ghost", []Observation{{Metric: "m", Value: 1}}); !IsNotFound(err) {
		t.Errorf("unknown observe: %v, want 404", err)
	}
	// Malformed JSON body straight at the handler.
	resp, err := http.Post(c.base+"/v1/apps", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected, so spec typos fail loudly.
	resp, err = http.Post(c.base+"/v1/apps", "application/json", strings.NewReader(`{"name":"c","debouce":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
}

// TestServerIngressBackpressure: with the kernel not draining, the
// inbox's pending bound must turn into 429s instead of unbounded
// buffering.
func TestServerIngressBackpressure(t *testing.T) {
	rng := simhpc.NewRNG(101)
	cluster := simhpc.NewCluster(2, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	k := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	s := NewServer(k)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Register(AppSpec{Name: "firehose"}); err != nil {
		t.Fatal(err)
	}
	// Fill the inbox from inside (the kernel is stopped, nothing drains).
	ra := s.apps["firehose"]
	for i := 0; i < maxPendingSamples; i++ {
		ra.inbox.Push(monitor.MetricLatency, 1)
	}
	var api *APIError
	if _, err := c.Observe("firehose", []Observation{{Metric: monitor.MetricLatency, Value: 1}}); !asAPI(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Fatalf("observe at pending cap: %v, want 429", err)
	}
	// Draining the backlog re-opens the ingress.
	ra.ctl.Tick()
	if _, err := c.Observe("firehose", []Observation{{Metric: monitor.MetricLatency, Value: 1}}); err != nil {
		t.Fatalf("observe after drain: %v", err)
	}
}

func asAPI(err error, target **APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

// TestServerConcurrentIngress is the -race stress for the HTTP funnel:
// many producers stream batches at two tenants while a churner
// registers and detaches a third and readers poll every endpoint.
func TestServerConcurrentIngress(t *testing.T) {
	k, c := newTestPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for _, name := range []string{"t0", "t1"} {
		if _, err := c.Register(AppSpec{Name: name, Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", p%2)
			batch := []Observation{{Metric: monitor.MetricLatency, Value: 0.5}, {Metric: monitor.MetricPower, Value: 80}}
			for i := 0; i < 40; i++ {
				if _, err := c.Observe(name, batch); err != nil {
					t.Errorf("observe %s: %v", name, err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.Register(AppSpec{Name: "churn"}); err != nil {
				t.Errorf("churn register: %v", err)
				return
			}
			if err := c.Detach("churn"); err != nil {
				t.Errorf("churn detach: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := c.Health(); err != nil {
				t.Errorf("health: %v", err)
				return
			}
			if _, err := c.Epochs(); err != nil {
				t.Errorf("epochs: %v", err)
				return
			}
			if _, err := c.Apps(); err != nil {
				t.Errorf("apps: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	waitFor(t, k, "tenants contributing", func() bool {
		tp := k.TotalsPerApp()
		return tp["t0"] > 0 && tp["t1"] > 0
	})
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	st0, err := c.App("t0")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c.App("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st0.Samples+st1.Samples != 4*40*2 {
		t.Errorf("accepted samples %d+%d, want %d", st0.Samples, st1.Samples, 4*40*2)
	}
}

// TestServingEpochAllocsFlat: a served epoch allocates O(1), not
// O(tenants). A quiet ladder tenant's workload closure hands back its
// memoized tasks while its level holds, an unobserved concurrent epoch
// builds no PerApp map or Backends list, and a backend commit off the
// epoch goroutine reuses its slot's reply channel, batch buffer and the
// kernel's deadline timer — so heap objects and bytes per kernel epoch
// at 1024 tenants stay within a small constant of the 16-tenant
// plane's, with the commit deadline off and at antarex-serve's 2 s
// default alike. A closure that rebuilds its tasks costs five objects
// per tenant per epoch; a PerApp map built with no reader, tens of KB.
//
// The constant itself is bounded on at most two Ps, as the end-to-end
// bench runs antarex-serve: with more, each commit's dispatch fans out
// over goroutines inside rtrm.Manager (about five objects per commit at
// four Ps) — a per-core cost, not this path's. Above two Ps the plane
// is measured a second time, pinned to two, for that bound; a channel,
// timer and batch copy per commit cost about 18 objects per epoch.
func TestServingEpochAllocsFlat(t *testing.T) {
	for _, timeout := range []time.Duration{0, 2 * time.Second} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			small, big := servingEpochAllocs(t, timeout, 16), servingEpochAllocs(t, timeout, 1024)
			t.Logf("per epoch at %d Ps: 16 tenants %.1f objects / %.0f B; 1024 tenants %.1f objects / %.0f B",
				goruntime.GOMAXPROCS(0), small.objs, small.bytes, big.objs, big.bytes)
			if big.objs > small.objs+32 {
				t.Errorf("1024 tenants allocate %.1f objects per epoch, 16 tenants %.1f: want within 32", big.objs, small.objs)
			}
			if big.bytes > small.bytes+4096 {
				t.Errorf("1024 tenants allocate %.0f B per epoch, 16 tenants %.0f B: want within 4 KiB", big.bytes, small.bytes)
			}
			if goruntime.GOMAXPROCS(0) > 2 {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
				small, big = servingEpochAllocs(t, timeout, 16), servingEpochAllocs(t, timeout, 1024)
				t.Logf("per epoch at 2 Ps: 16 tenants %.1f objects; 1024 tenants %.1f objects", small.objs, big.objs)
			}
			for _, objs := range []float64{small.objs, big.objs} {
				if objs > 6 {
					t.Errorf("a served epoch allocates %.1f objects, want <= 6", objs)
				}
			}
		})
	}
}

// epochAllocs is the heap cost of one served epoch.
type epochAllocs struct{ objs, bytes float64 }

// servingEpochAllocs serves n quiet ladder tenants over two backends,
// unpaced, and returns the heap objects and bytes per kernel epoch.
func servingEpochAllocs(t *testing.T, timeout time.Duration, n int) epochAllocs {
	t.Helper()
	k := runtime.NewKernel(BuildBackend(BackendSpec{Name: "b0", Nodes: 4}))
	if err := k.AddBackend("b1", BuildBackend(BackendSpec{Name: "b1", Nodes: 4})); err != nil {
		t.Fatal(err)
	}
	k.SetBackendTimeout(timeout)
	srv := httptest.NewServer(NewServer(k))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	for i := 0; i < n; i++ {
		if _, err := c.Register(AppSpec{
			Name:      fmt.Sprintf("t%d", i),
			Placement: fmt.Sprintf("b%d", i%2),
			Goals:     []GoalSpec{{Metric: monitor.MetricLatency, Target: 1}},
			Workload:  WorkloadSpec{Tasks: 4, GFlop: 2},
			Policy:    &PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.5}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), runtime.Options{}); err != nil { // unpaced
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, k, "warm-up epochs", func() bool { return k.Epochs() >= 20 })
	// Stopping the world waits for running goroutines to yield, and a
	// 16-tenant plane completes hundreds of epochs meanwhile; an epoch
	// count read beside the heap counters is only theirs when it did
	// not move across the read.
	mark := func() (ms goruntime.MemStats, epoch int64) {
		var drift int64
		for range 1000 {
			epoch = k.Epochs()
			goruntime.ReadMemStats(&ms)
			if drift = k.Epochs() - epoch; drift == 0 {
				return ms, epoch
			}
		}
		t.Fatalf("epoch count moved across every one of 1000 heap reads (last by %d)", drift)
		return ms, epoch
	}
	before, e0 := mark()
	waitFor(t, k, "measured epochs", func() bool { return k.Epochs() >= e0+100 })
	after, e1 := mark()
	epochs := float64(e1 - e0)
	return epochAllocs{float64(after.Mallocs-before.Mallocs) / epochs, float64(after.TotalAlloc-before.TotalAlloc) / epochs}
}
