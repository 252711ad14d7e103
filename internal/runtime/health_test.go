package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// faultBackend wraps a backend with one-shot fault injection: arm
// panicNext to blow up the next commit, or store a duration in stallNS
// to delay it. onPanic, when set before panicNext is armed, runs in the
// commit just before it panics.
type faultBackend struct {
	inner     Backend
	panicNext atomic.Bool
	stallNS   atomic.Int64
	onPanic   func()
}

func (f *faultBackend) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	if d := f.stallNS.Swap(0); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if f.panicNext.CompareAndSwap(true, false) {
		if f.onPanic != nil {
			f.onPanic()
		}
		panic("injected fault")
	}
	return f.inner.RunEpoch(dt, offered, workers)
}

func (f *faultBackend) Stats() rtrm.Stats { return f.inner.Stats() }

// waitHealth waits on the epoch signal, which every health transition
// rings, until one slot's BackendState reads h.
func waitHealth(t *testing.T, k *Kernel, name string, h BackendHealth) {
	t.Helper()
	waitEpoch(t, k, fmt.Sprintf("backend %s %s", name, h), func() bool {
		_, got, ok := k.BackendState(name)
		return ok && got == h
	})
}

// TestDrainRemoveLifecycleSync exercises the admission state machine on
// a stopped kernel, where drains complete inline: idempotency, error
// taxonomy and name reuse after removal.
func TestDrainRemoveLifecycleSync(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2))
	if err := k.DrainBackend("nope"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown drain: %v, want ErrUnknownBackend", err)
	}
	if err := k.DrainBackend("b1"); err != nil {
		t.Fatalf("drain b1: %v", err)
	}
	if st, _, ok := k.BackendState("b1"); !ok || st != "drained" {
		t.Errorf("b1 state = %q, want drained", st)
	}
	// Draining an already-drained backend is a completed no-op.
	if err := k.DrainBackend("b1"); err != nil {
		t.Errorf("re-drain drained: %v, want nil", err)
	}
	// A drained backend no longer counts as schedulable, so b0 is last.
	if err := k.DrainBackend("b0"); !errors.Is(err, ErrLastBackend) {
		t.Errorf("drain last: %v, want ErrLastBackend", err)
	}
	if err := k.RemoveBackend("b1"); err != nil {
		t.Fatalf("remove b1: %v", err)
	}
	if _, _, ok := k.BackendState("b1"); ok {
		t.Error("b1 still visible after remove")
	}
	if got := k.Backends(); len(got) != 1 || got[0] != "b0" {
		t.Errorf("Backends() = %v, want [b0]", got)
	}
	// Removed names return to the pool.
	if err := k.AddBackend("b1", testManager(2)); err != nil {
		t.Fatalf("re-add removed name: %v", err)
	}
	if err := k.RemoveBackend("nope"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown remove: %v, want ErrUnknownBackend", err)
	}
}

// TestDrainBackendEvacuatesLive: draining a backend on a running kernel
// migrates its apps to the survivors at a generation boundary and work
// continues; the drained backend is removable and its name reusable.
func TestDrainBackendEvacuatesLive(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		k := pinnedPairKernel(t)
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()
		waitFor(t, "both apps working", func() bool {
			tot := k.TotalsPerApp()
			return tot["app0"] > 0 && tot["app1"] > 0
		})

		if err := k.DrainBackend("b1"); err != nil {
			t.Fatalf("drain b1: %v", err)
		}
		if st, _, ok := k.BackendState("b1"); !ok || st != "drained" {
			t.Errorf("b1 state = %q, want drained", st)
		}
		// app1 was pinned to b1; the pin no longer resolves, so it
		// lands on b0 and keeps contributing.
		waitFor(t, "app1 evacuated to b0", func() bool {
			return k.AppBackend("app1") == "b0"
		})
		before := k.TotalsPerApp()["app1"]
		waitFor(t, "app1 progress after evacuation", func() bool {
			return k.TotalsPerApp()["app1"] > before
		})

		if err := k.RemoveBackend("b1"); err != nil {
			t.Fatalf("remove drained b1: %v", err)
		}
		if err := k.AddBackend("b1", testManagerAt(2, 15)); err != nil {
			t.Fatalf("re-add b1: %v", err)
		}
		// The pin resolves again: app1 migrates home.
		waitFor(t, "app1 back on b1", func() bool {
			return k.AppBackend("app1") == "b1"
		})
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDrainBackendWhileDraining: a second drain of an in-flight drain
// reports ErrBackendDraining. The first drain is wedged deterministically
// by an app whose workload blocks, which keeps the drain's generation
// from being served.
func TestDrainBackendWhileDraining(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2))
	var block, blocked sync.Mutex
	gen := simhpc.NewWorkloadGen(3)
	hold := atomic.Bool{}
	if _, err := k.Attach(AppSpec{
		Name: "a",
		Workload: func() ([]*simhpc.Task, error) {
			if hold.Load() {
				blocked.Unlock() // signal: the loop is wedged
				block.Lock()     // parked until the test releases it
				block.Unlock()
			}
			return gen.Mix(2, 1, 1, 1, 8), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "first epochs", func() bool { return k.Epochs() >= 2 })

	block.Lock()
	blocked.Lock()
	hold.Store(true)
	blocked.Lock() // acquired once the workload is parked inside block.Lock
	hold.Store(false)

	done, err := k.RemoveBackendAsync("b1")
	if err != nil {
		t.Fatalf("async remove: %v", err)
	}
	if err := k.DrainBackend("b1"); !errors.Is(err, ErrBackendDraining) {
		t.Errorf("drain while draining: %v, want ErrBackendDraining", err)
	}
	block.Unlock()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after unblocking")
	}
	if _, _, ok := k.BackendState("b1"); ok {
		t.Error("b1 still visible after async remove")
	}
}

// TestDrainBackendIdleKernel: a drain on a running kernel with no apps
// completes. No epoch runs there, so only the supervisor serving the
// drain's generation rings the signal the drain waits on.
func TestDrainBackendIdleKernel(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2))
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	done, err := k.RemoveBackendAsync("b1")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain on an idle running kernel never completed")
	}
	if got := k.Backends(); len(got) != 1 || got[0] != "b0" {
		t.Errorf("Backends() = %v, want [b0]", got)
	}
}

// TestBackendPanicContained: a backend panic mid-commit fails the slot
// and evacuates its apps; the kernel stays alive, the panic is captured
// on the slot's stats, and ReviveBackend restores service.
func TestBackendPanicContained(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		fb := &faultBackend{inner: testManagerAt(2, 15)}
		k := NewKernel(testManagerAt(2, 15))
		if err := k.AddBackend("b1", fb); err != nil {
			t.Fatal(err)
		}
		attachPinnedPair(t, k)
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()
		waitFor(t, "b1 commits", func() bool { return k.TotalsPerApp()["app1"] > 0 })

		fb.panicNext.Store(true)
		waitHealth(t, k, "b1", BackendFailed)

		// Kernel alive: epochs keep advancing and the failed slot's
		// app keeps contributing from a healthy backend.
		e0 := k.Epochs()
		waitFor(t, "epochs advance past failure", func() bool { return k.Epochs() >= e0+5 })
		waitFor(t, "app1 evacuated", func() bool { return k.AppBackend("app1") == "b0" })
		before := k.TotalsPerApp()["app1"]
		waitFor(t, "app1 progress after failure", func() bool {
			return k.TotalsPerApp()["app1"] > before
		})
		var failed BackendStats
		for _, st := range k.BackendStats() {
			if st.Name == "b1" {
				failed = st
			}
		}
		if !strings.Contains(failed.LastErr, "injected fault") {
			t.Errorf("captured panic missing from LastErr: %q", failed.LastErr)
		}

		if err := k.ReviveBackend("b1"); err != nil {
			t.Fatalf("revive: %v", err)
		}
		waitHealth(t, k, "b1", BackendHealthy)
		waitFor(t, "app1 back on b1", func() bool { return k.AppBackend("app1") == "b1" })
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBackendStallDegradesThenHeals: a commit overrunning the backend
// timeout degrades the slot (evacuating it) without blocking the epoch;
// when the stalled commit finally lands, the slot self-heals.
func TestBackendStallDegradesThenHeals(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		fb := &faultBackend{inner: testManagerAt(2, 15)}
		k := NewKernel(testManagerAt(2, 15))
		if err := k.AddBackend("b1", fb); err != nil {
			t.Fatal(err)
		}
		k.SetBackendTimeout(10 * time.Millisecond)
		attachPinnedPair(t, k)
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()
		waitFor(t, "b1 commits", func() bool { return k.TotalsPerApp()["app1"] > 0 })

		fb.stallNS.Store(int64(150 * time.Millisecond))
		waitHealth(t, k, "b1", BackendDegraded)
		// The stalled commit completes in the background and heals
		// the slot; no revive needed.
		waitHealth(t, k, "b1", BackendHealthy)
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReviveBackendSemantics: revive refuses unknown and non-idle slots
// and is a no-op on healthy ones.
func TestReviveBackendSemantics(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2))
	if err := k.ReviveBackend("nope"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown revive: %v, want ErrUnknownBackend", err)
	}
	if err := k.ReviveBackend("b0"); err != nil {
		t.Errorf("revive healthy: %v, want nil no-op", err)
	}
	if err := k.DrainBackend("b1"); err != nil {
		t.Fatal(err)
	}
	if err := k.ReviveBackend("b1"); err == nil {
		t.Error("revive drained slot succeeded, want refusal")
	}
}

// appPanicCase arms one stage of the control loop to panic.
type appPanicCase struct {
	name string
	spec func(arm *atomic.Bool, gen *simhpc.WorkloadGen) AppSpec
}

var appPanicCases = []appPanicCase{
	{"workload", func(arm *atomic.Bool, gen *simhpc.WorkloadGen) AppSpec {
		return AppSpec{
			Name: "victim",
			Workload: func() ([]*simhpc.Task, error) {
				if arm.Load() {
					panic("workload exploded")
				}
				return gen.Mix(2, 1, 1, 1, 8), nil
			},
		}
	}},
	{"policy", func(arm *atomic.Bool, gen *simhpc.WorkloadGen) AppSpec {
		return AppSpec{
			Name: "victim",
			SLA: monitor.SLA{Goals: []monitor.Goal{
				{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
			}},
			Debounce: 1,
			Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
				panic("policy exploded")
			}),
			Workload: func() ([]*simhpc.Task, error) {
				if arm.Load() {
					// Feed a violating sample so the SLA fires and the
					// policy runs on an upcoming tick.
					return gen.Mix(1, 1, 1, 1, 8), nil
				}
				return gen.Mix(2, 1, 1, 1, 8), nil
			},
		}
	}},
	{"knob", func(arm *atomic.Bool, gen *simhpc.WorkloadGen) AppSpec {
		return AppSpec{
			Name: "victim",
			SLA: monitor.SLA{Goals: []monitor.Goal{
				{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
			}},
			Debounce: 1,
			Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
				return autotune.Config{"level": 0}, true
			}),
			Knob: KnobFunc(func(autotune.Config) {
				panic("knob exploded")
			}),
			Workload: func() ([]*simhpc.Task, error) {
				return gen.Mix(2, 1, 1, 1, 8), nil
			},
		}
	}},
}

// TestAppPanicQuarantined: a panic in any user-supplied stage (workload,
// policy, knob) quarantines that app — captured on its status, excluded
// from future epochs — and never takes down the kernel or its tenants.
// Holds with -race.
func TestAppPanicQuarantined(t *testing.T) {
	for _, tc := range appPanicCases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(testManager(2), testManager(2))
			var arm atomic.Bool
			victim, err := k.Attach(tc.spec(&arm, simhpc.NewWorkloadGen(5)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Attach(simpleSpec("bystander", simhpc.NewWorkloadGen(9), 2)); err != nil {
				t.Fatal(err)
			}
			if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			defer k.Stop()
			waitFor(t, "victim working", func() bool { return victim.Ticks() > 2 })

			arm.Store(true)
			if tc.name != "workload" {
				// Violating samples make the SLA fire, reaching the
				// panicking policy/knob.
				go func() {
					for !victim.Quarantined() && k.Err() == nil {
						victim.Push(monitor.MetricLatency, 9)
						time.Sleep(200 * time.Microsecond)
					}
				}()
			}
			waitFor(t, "victim quarantined", func() bool { return victim.Quarantined() })
			if !strings.Contains(victim.LastError(), "exploded") {
				t.Errorf("LastError = %q, want captured panic", victim.LastError())
			}

			// Kernel and bystander unaffected.
			e0 := k.Epochs()
			waitFor(t, "epochs advance past quarantine", func() bool { return k.Epochs() >= e0+5 })
			before := k.TotalsPerApp()["bystander"]
			waitFor(t, "bystander progress", func() bool {
				return k.TotalsPerApp()["bystander"] > before
			})
			// The quarantined app stops ticking.
			ticks := victim.Ticks()
			waitFor(t, "a few more epochs", func() bool { return k.Epochs() >= e0+10 })
			if victim.Ticks() > ticks+1 {
				t.Errorf("quarantined app kept ticking: %d -> %d", ticks, victim.Ticks())
			}
			// The kernel error ledger records the tenant fault (the
			// same convention workload errors use) — and nothing worse.
			if err := k.Err(); err == nil || !strings.Contains(err.Error(), "exploded") {
				t.Errorf("kernel Err = %v, want the recorded app panic", err)
			}
		})
	}
}

// TestNoHealthyBackendsParkAndRetry: with every backend failed under the
// default policy, epochs park rather than drop; a revive releases them
// with the parked batches intact — the totals ledger never skips a beat.
func TestNoHealthyBackendsParkAndRetry(t *testing.T) {
	fb := &faultBackend{inner: testManager(2)}
	k := NewKernel()
	if err := k.AddBackend("b0", fb); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(simpleSpec("a", simhpc.NewWorkloadGen(7), 2)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "first work", func() bool { return k.TotalsPerApp()["a"] > 0 })

	fb.panicNext.Store(true)
	waitHealth(t, k, "b0", BackendFailed)
	if got := k.HealthyBackends(); got != 0 {
		t.Errorf("HealthyBackends = %d, want 0", got)
	}

	// Parked: totals freeze while no backend is schedulable. The sleep
	// is the fixture — it is the stretch over which nothing may move, so
	// no event can stand in for it.
	frozen := k.TotalsPerApp()["a"]
	time.Sleep(30 * time.Millisecond)
	if got := k.TotalsPerApp()["a"]; got != frozen {
		t.Errorf("totals advanced while parked: %v -> %v", frozen, got)
	}

	if err := k.ReviveBackend("b0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "work resumes after revive", func() bool {
		return k.TotalsPerApp()["a"] > frozen
	})
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNoHealthyBackendsFailFast: Stop during a total outage writes the
// parked batch off — the app's status carries the drop note, the kernel
// error ledger records ErrNoHealthyBackends, and the offered totals
// still count the dropped work. The name is older than the park being
// the only no-healthy-backends behaviour (a fail-fast policy used to
// write batches off at once); the write-off it checks is the one that
// remains, so the test keeps its ID.
func TestNoHealthyBackendsFailFast(t *testing.T) {
	fb := &faultBackend{inner: testManager(2)}
	k := NewKernel()
	if err := k.AddBackend("b0", fb); err != nil {
		t.Fatal(err)
	}
	ctl, err := k.Attach(simpleSpec("a", simhpc.NewWorkloadGen(7), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitEpoch(t, k, "first work", func() bool { return k.TotalFor("a") > 0 })

	// One app runs on one loop, which ticks and then commits, so the
	// tick count read in the panicking commit is that epoch's. A later
	// tick is the loop past its last stop check after the failure: its
	// batch parks (or, if Stop gets there first, finds the generation
	// over) and Stop writes it off either way.
	var failedAt atomic.Int64
	fb.onPanic = func() { failedAt.Store(ctl.Ticks()) }
	fb.panicNext.Store(true)
	waitHealth(t, k, "b0", BackendFailed)
	waitFor(t, "the next batch to park", func() bool { return ctl.Ticks() > failedAt.Load() })
	before := k.TotalFor("a")
	k.Stop()

	if got := k.TotalFor("a"); got < before {
		t.Errorf("offered totals went back at the write-off: %v -> %v", before, got)
	}
	if !strings.Contains(ctl.LastError(), "no healthy backends") {
		t.Errorf("LastError = %q, want the drop note", ctl.LastError())
	}
	if err := k.Err(); !errors.Is(err, ErrNoHealthyBackends) {
		t.Errorf("kernel Err = %v, want ErrNoHealthyBackends", err)
	}
}

// TestParkedBatchCommitsOnRevive: a batch parked in a total outage
// commits within one wake of ReviveBackend — the park blocks on the
// epoch signal the revive rings, so a long outage costs the revive
// nothing extra. Each outage is held 300 ms (the fixture: long enough
// for any backoff a poll would grow to reach its ceiling). A host
// preemption can stretch one wake past the bound, so a round may take
// three outages to get one wake within it; a poll misses every one.
// Only atomics and seqlock-backed reads are used: the manager's own
// Stats would race the commit.
func TestParkedBatchCommitsOnRevive(t *testing.T) {
	fb := &faultBackend{inner: testManager(2)}
	k := NewKernel()
	if err := k.AddBackend("b0", fb); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(simpleSpec("a", simhpc.NewWorkloadGen(7), 2)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitEpoch(t, k, "first epoch", func() bool { return k.Epochs() > 0 })

	// reviveAfterOutage fails the backend, holds the outage and returns
	// how long the revive took to land the parked batch.
	reviveAfterOutage := func() time.Duration {
		fb.panicNext.Store(true)
		waitHealth(t, k, "b0", BackendFailed)
		time.Sleep(300 * time.Millisecond) // the fixture: the outage
		e0 := k.Epochs()
		start := time.Now()
		if err := k.ReviveBackend("b0"); err != nil {
			t.Fatal(err)
		}
		waitEpoch(t, k, "an epoch after the revive", func() bool { return k.Epochs() > e0 })
		return time.Since(start)
	}
	const bound = 5 * time.Millisecond
	for round := 0; round < 5; round++ {
		var d time.Duration
		for try := 0; try < 3; try++ {
			d = reviveAfterOutage()
			t.Logf("round %d, outage %d: revive→commit %v", round, try, d)
			if d <= bound {
				break
			}
		}
		if d > bound {
			t.Errorf("round %d: revive→commit took %v, want ≤ %v", round, d, bound)
		}
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendEventsLifecycle: subscribers see failure and lifecycle
// transitions in order, and cancel detaches the feed.
func TestBackendEventsLifecycle(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2))
	events, cancel := k.BackendEvents()
	defer cancel()
	if err := k.DrainBackend("b1"); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveBackend("b1"); err != nil {
		t.Fatal(err)
	}
	var got []string
	deadline := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-events:
			got = append(got, ev.Backend+":"+ev.State)
		case <-deadline:
			t.Fatalf("events so far: %v, want 3", got)
		}
	}
	want := []string{"b1:draining", "b1:drained", "b1:removed"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestTotalsExactUnderBackendFailure is the in-tree version of the
// chaos exactness assertion: kill and revive a backend mid-run and the
// kernel's offered ledger still equals — bit for bit — what the
// workload closures produced.
func TestTotalsExactUnderBackendFailure(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		fb := &faultBackend{inner: testManagerAt(2, 15)}
		k := NewKernel(testManagerAt(2, 15))
		if err := k.AddBackend("b1", fb); err != nil {
			t.Fatal(err)
		}
		k.SetBackendTimeout(10 * time.Millisecond)

		var mu sync.Mutex
		expected := map[string]float64{}
		gen := simhpc.NewWorkloadGen(11)
		var genMu sync.Mutex
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("app%d", i)
			hint := fmt.Sprintf("b%d", i%2)
			if _, err := k.Attach(AppSpec{
				Name:    name,
				Backend: hint,
				Workload: func() ([]*simhpc.Task, error) {
					genMu.Lock()
					tasks := gen.Mix(2, 1, 1, 1, 8)
					genMu.Unlock()
					sum := 0.0
					for _, task := range tasks {
						sum += task.GFlop
					}
					mu.Lock()
					expected[name] += sum
					mu.Unlock()
					return tasks, nil
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()
		waitFor(t, "all apps working", func() bool {
			tot := k.TotalsPerApp()
			return tot["app0"] > 0 && tot["app1"] > 0 && tot["app2"] > 0 && tot["app3"] > 0
		})

		fb.panicNext.Store(true)
		waitHealth(t, k, "b1", BackendFailed)
		e0 := k.Epochs()
		waitFor(t, "epochs after failure", func() bool { return k.Epochs() >= e0+10 })
		if err := k.ReviveBackend("b1"); err != nil {
			t.Fatal(err)
		}
		waitHealth(t, k, "b1", BackendHealthy)
		waitFor(t, "epochs after revive", func() bool { return k.Epochs() >= e0+30 })
		k.Stop()
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}

		totals := k.TotalsPerApp()
		mu.Lock()
		defer mu.Unlock()
		for name, want := range expected {
			if got := totals[name]; got != want {
				t.Errorf("%s: ledger %v, workload produced %v", name, got, want)
			}
		}
	})
}

// TestWorkloadSliceReusedAcrossEpochs pins the Workload contract's
// second half — a returned slice may be returned again. Every app hands
// back one shared slice every epoch while b0's commit is parked past
// the deadline, so the abandoned commit reads the slice (through the
// buffer its slot keeps) while later epochs route the same tasks to
// b1. Under -race any write to a task or a returned slice is a report; the
// ledger must equal epochs × slice GFlop bit for bit, and the slice
// must come out as it went in.
func TestWorkloadSliceReusedAcrossEpochs(t *testing.T) {
	shared := []*simhpc.Task{
		{ID: 1, GFlop: 1.5, MemGB: 0.25, Tag: "shared"},
		{ID: 2, GFlop: 2.25, MemGB: 0.5, Tag: "shared"},
		{ID: 3, GFlop: 0.1, MemGB: 0.125, Tag: "shared"},
	}
	want := make([]simhpc.Task, len(shared))
	sliceG := 0.0
	for i, task := range shared {
		want[i] = *task
		sliceG += task.GFlop
	}
	wantPtrs := append([]*simhpc.Task(nil), shared...)

	// gatedKernel's pinned pair never ticks: it makes way for four apps
	// sharing one slice.
	k, gated, open := gatedKernel(t)
	defer open()
	for _, name := range []string{"app0", "app1"} {
		if err := k.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	const nApps = 4
	var calls [nApps]atomic.Int64
	for i := 0; i < nApps; i++ {
		if _, err := k.Attach(AppSpec{
			Name:    fmt.Sprintf("app%d", i),
			Backend: fmt.Sprintf("b%d", i%2),
			Workload: func() ([]*simhpc.Task, error) {
				calls[i].Add(1)
				return shared, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.SetBackendTimeout(5 * time.Millisecond)
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "warm-up epochs", func() bool { return k.Epochs() >= 5 })

	gated.armed.Store(true)
	<-gated.entered // b0's commit is parked inside RunEpoch
	waitHealth(t, k, "b0", BackendDegraded)
	e0 := k.Epochs()
	waitFor(t, "epochs past the abandoned commit", func() bool { return k.Epochs() >= e0+10 })
	open() // the abandoned commit now reads its batch beside live epochs
	waitHealth(t, k, "b0", BackendHealthy)
	e1 := k.Epochs()
	waitFor(t, "epochs after the heal", func() bool { return k.Epochs() >= e1+10 })
	k.Stop()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}

	totals := k.TotalsPerApp()
	for i := range calls {
		exp := 0.0
		for n := calls[i].Load(); n > 0; n-- {
			exp += sliceG
		}
		if name := fmt.Sprintf("app%d", i); totals[name] != exp {
			t.Errorf("%s: ledger %v, want %d epochs × %v = %v", name, totals[name], calls[i].Load(), sliceG, exp)
		}
	}
	for i, task := range shared {
		if task != wantPtrs[i] || !reflect.DeepEqual(*task, want[i]) {
			t.Errorf("shared[%d] = %p %+v, want %p %+v (unchanged)", i, task, *task, wantPtrs[i], want[i])
		}
	}
}

// TestAbandonedCommitHoldsSlot: while a commit abandoned at the deadline
// is still running, its slot is held — Degraded, ReviveBackend refuses
// it as in flight, and a removal waits for it through any number of
// epochs. Once the commit returns the removal completes, and the ledger
// counts every epoch's offered work exactly.
func TestAbandonedCommitHoldsSlot(t *testing.T) {
	k, gated, open := gatedKernel(t)
	defer open()
	for _, name := range []string{"app0", "app1"} {
		if err := k.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	const nApps = 4
	var calls [nApps]atomic.Int64
	for i := 0; i < nApps; i++ {
		g := float64(i + 1)
		if _, err := k.Attach(AppSpec{
			Name:    fmt.Sprintf("app%d", i),
			Backend: fmt.Sprintf("b%d", i%2),
			Workload: func() ([]*simhpc.Task, error) {
				calls[i].Add(1)
				return []*simhpc.Task{{GFlop: g}, {GFlop: g}}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.SetBackendTimeout(5 * time.Millisecond)
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "warm-up epochs", func() bool { return k.Epochs() >= 5 })

	gated.armed.Store(true)
	<-gated.entered // b0's commit is parked inside RunEpoch
	waitHealth(t, k, "b0", BackendDegraded)
	if err := k.ReviveBackend("b0"); err == nil || !strings.Contains(err.Error(), "still in flight") {
		t.Errorf("revive under an abandoned commit: %v, want a still-in-flight refusal", err)
	}
	gone, err := k.RemoveBackendAsync("b0")
	if err != nil {
		t.Fatal(err)
	}
	e0 := k.Epochs()
	waitFor(t, "epochs past the abandoned commit", func() bool { return k.Epochs() >= e0+10 })
	select {
	case <-gone:
		t.Fatal("b0 removed while its abandoned commit was still running")
	default:
	}
	open()
	select {
	case <-gone:
	case <-time.After(10 * time.Second):
		t.Fatal("removal never completed after the abandoned commit returned")
	}
	if k.HasBackend("b0") {
		t.Error("b0 still registered after its removal completed")
	}
	e1 := k.Epochs()
	waitFor(t, "epochs after the removal", func() bool { return k.Epochs() >= e1+5 })
	k.Stop()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	totals := k.TotalsPerApp()
	for i := range calls {
		name, want := fmt.Sprintf("app%d", i), 0.0
		for n := calls[i].Load(); n > 0; n-- {
			want += 2 * float64(i+1)
		}
		if totals[name] != want {
			t.Errorf("%s: ledger %v, want %d epochs × %v = %v", name, totals[name], calls[i].Load(), 2*float64(i+1), want)
		}
	}
}

// TestAbandonmentKeepsFailed: abandoning a commit at its deadline moves
// the slot only from Healthy to Degraded, and only while the commit is
// still abandoned. A commit that panicked just before the deadline
// claimed it has already failed the slot, and the panic must stay its
// health and reason — a Degraded slot whose commit returned ok=false
// would never heal. A commit that landed between the claim and the
// degrade has already run its heal, so the slot must stay Healthy.
func TestAbandonmentKeepsFailed(t *testing.T) {
	k := NewKernel(testManager(2), testManager(2), testManager(2))
	failed, healthy, landed := k.backends[0], k.backends[1], k.backends[2]
	k.setBackendHealth(failed, BackendFailed, "backend panic: injected")
	for _, bs := range []*backendSlot{failed, healthy} {
		bs.commitState.Store(commitAbandoned)
	}
	for _, bs := range []*backendSlot{failed, healthy, landed} {
		k.degradeStalledBackend(bs, "commit exceeded the 1ms backend timeout")
	}
	st := k.BackendStats()
	if st[0].Health != BackendFailed || st[0].LastErr != "backend panic: injected" {
		t.Errorf("failed slot after abandonment: %s %q, want failed with the panic", st[0].Health, st[0].LastErr)
	}
	if st[1].Health != BackendDegraded || !strings.Contains(st[1].LastErr, "backend timeout") {
		t.Errorf("healthy slot after abandonment: %s %q, want degraded by the timeout", st[1].Health, st[1].LastErr)
	}
	if st[2].Health != BackendHealthy || st[2].LastErr != "" {
		t.Errorf("slot whose commit already landed: %s %q, want healthy with no error", st[2].Health, st[2].LastErr)
	}
}

// offerLog wraps a Backend and records every batch offered to it.
type offerLog struct {
	Backend
	batches [][]*simhpc.Task
}

func (o *offerLog) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	o.batches = append(o.batches, slices.Clone(offered))
	return o.Backend.RunEpoch(dt, offered, workers)
}

// TestHeldSlotTakesNoWork: a slot whose abandoned commit still had it
// when the epoch reset its buffers takes no work in that epoch, even if
// its health reads Healthy by the time the apps route — the commit can
// land and heal the slot in between, and the buffer it was reading was
// kept, not reset. The slot's app reroutes for that epoch, the kept
// buffer stays as the commit left it, and once the slot is idle its
// next batch holds only that epoch's tasks.
func TestHeldSlotTakesNoWork(t *testing.T) {
	b0, b1 := &offerLog{Backend: testManager(2)}, &offerLog{Backend: testManager(2)}
	k := NewKernel(b0, b1)
	fresh := []*simhpc.Task{{GFlop: 1}, {GFlop: 1}}
	if _, err := k.Attach(AppSpec{
		Name:     "app",
		Backend:  "b1",
		Workload: func() ([]*simhpc.Task, error) { return fresh, nil },
	}); err != nil {
		t.Fatal(err)
	}
	held := k.backends[1]
	stale := []*simhpc.Task{{GFlop: 7}}
	held.tasks = append(held.tasks, stale...)
	// Abandoned at the reset, Healthy at the routing: the heal landed
	// between the two.
	held.commitState.Store(commitAbandoned)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if len(b1.batches) != 0 {
		t.Fatalf("held b1 committed %v, want no commit this epoch", b1.batches)
	}
	if len(b0.batches) != 1 || !slices.Equal(b0.batches[0], fresh) {
		t.Errorf("b0 batches %v, want the rerouted %v", b0.batches, fresh)
	}
	if !slices.Equal(held.tasks, stale) {
		t.Errorf("held buffer %v, want the abandoned batch %v untouched", held.tasks, stale)
	}

	held.commitState.Store(commitIdle) // the committer settled the slot
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if len(b1.batches) != 1 || !slices.Equal(b1.batches[0], fresh) {
		t.Errorf("b1 batches %v, want exactly this epoch's %v", b1.batches, fresh)
	}
}
