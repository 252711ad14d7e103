package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// The chaos experiment stresses the backend failure domain. Mid-run it
// kills (panic), stalls (deadline overrun) and resurrects
// each backend, plus one full drain/remove/re-add cycle and one app's
// detach/re-attach under the same name, then asserts
// total-accounting exactness: every app's cumulative offered GFlop in
// the kernel's ledger must equal — bit for bit — what the app's own
// workload closure produced. Zero observation loss under fault, or
// the process exits non-zero.

// chaosBackend wraps a real backend with fault injection: Kill arms a
// one-shot panic inside the next RunEpoch; Stall delays the next
// RunEpoch by the given duration (one-shot as well). Stats delegate
// untouched.
type chaosBackend struct {
	inner    runtime.Backend
	killNext atomic.Bool
	stallNS  atomic.Int64
}

func (c *chaosBackend) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	if d := c.stallNS.Swap(0); d > 0 {
		time.Sleep(time.Duration(d)) // the injected stall is the fixture
	}
	if c.killNext.CompareAndSwap(true, false) {
		panic("chaos: injected backend failure")
	}
	return c.inner.RunEpoch(dt, offered, workers)
}

func (c *chaosBackend) Stats() rtrm.Stats { return c.inner.Stats() }

// chaos runs the failure-domain experiment.
func chaos() {
	fmt.Println("== chaos: backend kill/stall/drain, exact totals required ==")
	if !chaosRun() {
		fmt.Println("  CHAOS: FAIL")
		os.Exit(1)
	}
}

// chaosRun is the round: 3 backends × 9 hinted apps; each backend is
// killed and resurrected, then stalled past the commit deadline and
// auto-healed; one backend is additionally drained, removed and
// re-added, and one app detached and re-attached. Returns false on any
// violated invariant.
func chaosRun() bool {
	const (
		nBackends = 3
		nApps     = 9
		timeout   = 25 * time.Millisecond // commit deadline
		stallFor  = 150 * time.Millisecond
	)
	fail := func(format string, args ...any) bool {
		fmt.Printf("  FAIL: %s\n", fmt.Sprintf(format, args...))
		return false
	}

	kern := runtime.NewKernel()
	injectors := make([]*chaosBackend, nBackends)
	makeBackend := func(i int) *chaosBackend {
		rng := simhpc.NewRNG(uint64(100 + i))
		cluster := simhpc.NewCluster(8, 24, func(n int) *simhpc.Node {
			return simhpc.HeterogeneousNode(fmt.Sprintf("p%d-n%d", i, n), 0.15, rng)
		})
		return &chaosBackend{inner: rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.85)}
	}
	for i := 0; i < nBackends; i++ {
		injectors[i] = makeBackend(i)
		if err := kern.AddBackend(fmt.Sprintf("b%d", i), injectors[i]); err != nil {
			return fail("add backend: %v", err)
		}
	}
	kern.SetBackendTimeout(timeout)

	// Every app tracks its own expected total inside its workload
	// closure: the kernel sums each contribution's task GFlop in task
	// order, so summing the same slice the same way and accumulating
	// per call reproduces the identical float sequence — the exactness
	// assertion is ==, not within-epsilon.
	var expMu sync.Mutex
	expected := make(map[string]float64, nApps)
	gen := simhpc.NewWorkloadGen(7)
	var genMu sync.Mutex
	specs := make([]runtime.AppSpec, nApps)
	for i := range specs {
		name := fmt.Sprintf("app%d", i)
		specs[i] = runtime.AppSpec{
			Name:    name,
			Backend: fmt.Sprintf("b%d", i%nBackends), // hinted home: apps return after their backend heals
			Workload: func() ([]*simhpc.Task, error) {
				genMu.Lock()
				tasks := gen.Mix(2, 1, 1, 1, 5)
				genMu.Unlock()
				sum := 0.0
				for _, t := range tasks {
					sum += t.GFlop
				}
				expMu.Lock()
				expected[name] += sum
				expMu.Unlock()
				return tasks, nil
			},
		}
		if _, err := kern.Attach(specs[i]); err != nil {
			return fail("attach %s: %v", name, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := kern.Start(ctx, runtime.Options{
		EpochDt:  60,
		Flush:    2 * time.Millisecond,
		Interval: 200 * time.Microsecond,
	}); err != nil {
		return fail("start: %v", err)
	}
	defer kern.Stop()

	// waitFor blocks on the kernel's epoch signal until cond holds.
	// Every condition below is an epoch count, a backend's Seq or
	// health, or the served generation, and each of those rings the
	// signal; the deadline is a harness hang guard.
	waitFor := func(what string, cond func() bool) bool {
		sig, unsub := kern.EpochSignal()
		defer unsub()
		deadline := time.NewTimer(20 * time.Second)
		defer deadline.Stop()
		for !cond() {
			select {
			case <-sig:
			case <-deadline.C:
				fail("timed out waiting for %s", what)
				for _, st := range kern.BackendStats() {
					fmt.Printf("    %s: %s/%s seq=%d apps=%d lastErr=%q\n",
						st.Name, st.State, st.Health, st.Seq, st.Apps, st.LastErr)
				}
				return false
			}
		}
		return true
	}
	backendBy := func(name string) (runtime.BackendStats, bool) {
		for _, st := range kern.BackendStats() {
			if st.Name == name {
				return st, true
			}
		}
		return runtime.BackendStats{}, false
	}
	// Health polls go through BackendState: one slot's atomics, not a
	// snapshot of every backend.
	healthIs := func(name string, h runtime.BackendHealth) func() bool {
		return func() bool {
			_, got, ok := kern.BackendState(name)
			return ok && got == h
		}
	}
	seqAdvances := func(name string) func() bool {
		st0, _ := backendBy(name)
		return func() bool {
			st, ok := backendBy(name)
			return ok && st.Seq > st0.Seq
		}
	}

	if !waitFor("first epochs", func() bool { return kern.Epochs() >= 20 }) {
		return false
	}

	// Kill, verify liveness, resurrect, stall, auto-heal — every
	// backend in turn.
	for i := 0; i < nBackends; i++ {
		name := fmt.Sprintf("b%d", i)
		// Work must be flowing to the backend for an injected fault to
		// fire (its own pinned apps guarantee it once placement settles).
		if !waitFor(name+" committing", seqAdvances(name)) {
			return false
		}
		injectors[i].killNext.Store(true)
		if !waitFor(name+" failed", healthIs(name, runtime.BackendFailed)) {
			return false
		}
		// The kernel must keep running epochs while a backend is down:
		// the failed slot's apps evacuate, nobody's epochs stop.
		e0 := kern.Epochs()
		if !waitFor("epochs advancing with "+name+" failed", func() bool { return kern.Epochs() >= e0+10 }) {
			return false
		}
		if err := kern.ReviveBackend(name); err != nil {
			return fail("revive %s: %v", name, err)
		}
		if !waitFor(name+" healthy after revive", healthIs(name, runtime.BackendHealthy)) {
			return false
		}
		// Stall past the commit deadline: Degraded, rerouted, then
		// auto-healed when the abandoned commit finally lands.
		if !waitFor(name+" committing again", seqAdvances(name)) {
			return false
		}
		injectors[i].stallNS.Store(int64(stallFor))
		if !waitFor(name+" degraded by stall", healthIs(name, runtime.BackendDegraded)) {
			return false
		}
		if !waitFor(name+" auto-healed", healthIs(name, runtime.BackendHealthy)) {
			return false
		}
	}

	// One full lifecycle cycle: drain+remove b1 (its apps evacuate at a
	// generation boundary), then re-add it and watch the hinted apps
	// migrate home.
	if err := kern.RemoveBackend("b1"); err != nil {
		return fail("remove b1: %v", err)
	}
	if _, still := backendBy("b1"); still {
		return fail("b1 still listed after remove")
	}
	e0 := kern.Epochs()
	if !waitFor("epochs advancing without b1", func() bool { return kern.Epochs() >= e0+10 }) {
		return false
	}
	injectors[1] = makeBackend(1)
	if err := kern.AddBackend("b1", injectors[1]); err != nil {
		return fail("re-add b1: %v", err)
	}
	if !waitFor("re-added b1 committing", seqAdvances("b1")) {
		return false
	}

	if !waitFor("settle epochs", func() bool { return kern.Epochs() >= e0+50 }) {
		return false
	}

	// One app detached and attached again under its name: the same
	// closure keeps adding to expected[name], so the ledger must carry
	// one running sum across both lifetimes, including the detached
	// lifetime's drained final batch.
	again := specs[nApps/2]
	if err := kern.Detach(again.Name); err != nil {
		return fail("detach %s: %v", again.Name, err)
	}
	if !waitFor(again.Name+" detach served", func() bool { return kern.ServedGeneration() >= kern.Generation() }) {
		return false
	}
	if _, err := kern.Attach(again); err != nil {
		return fail("re-attach %s: %v", again.Name, err)
	}
	e1 := kern.Epochs()
	if !waitFor(again.Name+" re-attached epochs", func() bool { return kern.Epochs() >= e1+20 }) {
		return false
	}
	kern.Stop()
	cancel()
	if err := kern.Err(); err != nil {
		return fail("kernel error: %v", err)
	}

	// Exactness: the ledger equals the closures' own accounting, to the
	// last bit — no contribution lost or double-counted through panics,
	// stalls, reroutes, evacuations, the remove/re-add, or the app's
	// detach/re-attach.
	totals := kern.TotalsPerApp()
	expMu.Lock()
	defer expMu.Unlock()
	for name, want := range expected {
		if got := totals[name]; got != want {
			return fail("total mismatch for %s: kernel %v, workload produced %v", name, got, want)
		}
	}
	fmt.Printf("  chaos: %d epochs, %d apps: kills+stalls+remove+re-attach survived, totals exact\n",
		kern.Epochs(), nApps)
	return true
}
