package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simhpc"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitServed waits until the concurrent loops serve the current
// membership epoch — the observable admission point of a live
// attach/detach. Every patch and every new generation ring the epoch
// signal it waits on.
func waitServed(t *testing.T, k *Kernel) {
	t.Helper()
	gen := k.Generation()
	waitEpoch(t, k, fmt.Sprintf("served generation %d", gen), func() bool {
		return k.ServedGeneration() >= gen
	})
}

// TestKernelLiveAttach: an app attached after Start is admitted at the
// next epoch boundary and starts contributing work, without stalling
// the apps that were already running.
func TestKernelLiveAttach(t *testing.T) {
	k := NewKernel(testManager(4))
	if _, err := k.Attach(simpleSpec("base", simhpc.NewWorkloadGen(7), 2)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "base epochs", func() bool { return k.Epochs() >= 3 })

	ctl, err := k.Attach(simpleSpec("late", simhpc.NewWorkloadGen(11), 2))
	if err != nil {
		t.Fatalf("live attach: %v", err)
	}
	waitServed(t, k)
	waitFor(t, "late app work", func() bool { return k.TotalsPerApp()["late"] > 0 })
	if ctl.Ticks() == 0 {
		t.Error("late app never ticked")
	}
	// The incumbent keeps making progress after the membership change.
	before := k.TotalsPerApp()["base"]
	waitFor(t, "base app progress", func() bool { return k.TotalsPerApp()["base"] > before })
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelLiveDetach: detaching a running app stops its control loop
// at the generation boundary; the survivors keep their epochs, and the
// detached app's cumulative totals are retained.
func TestKernelLiveDetach(t *testing.T) {
	k := NewKernel(testManager(4))
	for _, name := range []string{"keep", "drop"} {
		if _, err := k.Attach(simpleSpec(name, simhpc.NewWorkloadGen(uint64(len(name))), 2)); err != nil {
			t.Fatal(err)
		}
	}
	dropCtl := k.App("drop")
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "both apps working", func() bool {
		tp := k.TotalsPerApp()
		return tp["keep"] > 0 && tp["drop"] > 0
	})

	if err := k.Detach("drop"); err != nil {
		t.Fatalf("live detach: %v", err)
	}
	waitServed(t, k)
	// Once the new generation is served, the old loops are fully
	// quiesced: the detached controller's tick counter must freeze.
	ticksAtDetach := dropCtl.Ticks()
	epochsAtDetach := k.Epochs()
	waitFor(t, "post-detach epochs", func() bool { return k.Epochs() >= epochsAtDetach+5 })
	if got := dropCtl.Ticks(); got != ticksAtDetach {
		t.Errorf("detached app still ticking: %d -> %d", ticksAtDetach, got)
	}
	if k.App("drop") != nil {
		t.Error("detached app still attached")
	}
	if k.TotalsPerApp()["drop"] <= 0 {
		t.Error("detached app's totals were discarded")
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelDetachDuringDrain: detaching an app whose Workload is
// mid-flight must not deadlock or drop the batch it already submitted;
// the wind-down waits for the straggler, drains, and the next
// generation serves the survivors.
func TestKernelDetachDuringDrain(t *testing.T) {
	k := NewKernel(testManager(2))
	gen := simhpc.NewWorkloadGen(29)
	var genMu sync.Mutex
	started := make(chan struct{}, 64)
	slow := AppSpec{
		Name: "slow",
		Workload: func() ([]*simhpc.Task, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(50 * time.Millisecond)
			genMu.Lock()
			defer genMu.Unlock()
			return gen.Mix(1, 1, 1, 1, 4), nil
		},
	}
	if _, err := k.Attach(slow); err != nil {
		t.Fatal(err)
	}
	fast := AppSpec{
		Name: "fast",
		Workload: func() ([]*simhpc.Task, error) {
			genMu.Lock()
			defer genMu.Unlock()
			return gen.Mix(1, 1, 1, 1, 4), nil
		},
	}
	if _, err := k.Attach(fast); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	<-started // the slow workload is in flight right now
	if err := k.Detach("slow"); err != nil {
		t.Fatal(err)
	}
	waitServed(t, k) // wind-down waited out the straggler without deadlock
	epochs := k.Epochs()
	waitFor(t, "survivor epochs", func() bool { return k.Epochs() >= epochs+5 })
	if k.TotalsPerApp()["fast"] <= 0 {
		t.Error("survivor contributed no work")
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelAttachCrossesShardThreshold: growing the live app set past
// 2·GOMAXPROCS forces the generation rebuild to collapse from per-app
// loops to shard loops; every app, old and new, must keep contributing
// across that re-balance.
func TestKernelAttachCrossesShardThreshold(t *testing.T) {
	k := NewKernel(testManager(4))
	nApps := 2*goruntime.GOMAXPROCS(0) + 2 // strictly past the per-app regime
	if _, err := k.Attach(simpleSpec("app0", simhpc.NewWorkloadGen(40), 1)); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(context.Background(), Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for i := 1; i < nApps; i++ {
		if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), simhpc.NewWorkloadGen(uint64(40+i)), 1)); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	waitServed(t, k)
	waitFor(t, "all apps contributing", func() bool {
		tp := k.TotalsPerApp()
		for i := 0; i < nApps; i++ {
			if tp[fmt.Sprintf("app%d", i)] <= 0 {
				return false
			}
		}
		return true
	})
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMembershipChurnRace is the -race stress: several goroutines
// attach and detach their own apps while the kernel runs, telemetry
// producers push the whole time, and a base app must keep its epochs.
func TestKernelMembershipChurnRace(t *testing.T) {
	k := NewKernel(testManager(4))
	if _, err := k.Attach(simpleSpec("base", simhpc.NewWorkloadGen(51), 2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	const churners = 4
	const cycles = 15
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", c)
			gen := simhpc.NewWorkloadGen(uint64(60 + c))
			for i := 0; i < cycles; i++ {
				ctl, err := k.Attach(simpleSpec(name, gen, 1))
				if err != nil {
					t.Errorf("churn attach %s: %v", name, err)
					return
				}
				ctl.Push("latency", 0.1) // poke the controller from outside its loop
				time.Sleep(time.Duration(c+1) * time.Millisecond)
				if err := k.Detach(name); err != nil {
					t.Errorf("churn detach %s: %v", name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	waitServed(t, k)
	epochs := k.Epochs()
	waitFor(t, "epochs after churn", func() bool { return k.Epochs() > epochs })
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	apps := k.Apps()
	if len(apps) != 1 || apps[0].Name() != "base" {
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Name()
		}
		t.Errorf("leftover membership after churn: %v", names)
	}
	if g, s := k.Generation(), k.ServedGeneration(); g != s {
		t.Errorf("generation %d not served (served %d) after quiesce", g, s)
	}
}

// TestKernelDetachSyncMode: membership ops also work against the
// synchronous driver — a detached app disappears from the next
// RunEpoch's contributors.
func TestKernelDetachSyncMode(t *testing.T) {
	k := NewKernel(testManager(2))
	for i := 0; i < 3; i++ {
		if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), simhpc.NewWorkloadGen(uint64(70+i)), 2)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := k.RunEpoch(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerApp) != 3 {
		t.Fatalf("contributors before detach: %v", res.PerApp)
	}
	if err := k.Detach("app1"); err != nil {
		t.Fatal(err)
	}
	res, err = k.RunEpoch(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerApp) != 2 {
		t.Fatalf("contributors after detach: %v", res.PerApp)
	}
	if _, ok := res.PerApp["app1"]; ok {
		t.Error("detached app still contributing")
	}
}
