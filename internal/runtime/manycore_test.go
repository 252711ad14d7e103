package runtime

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// TestReshardOnGOMAXPROCSChange: a live GOMAXPROCS change (or cgroup
// resize) must re-shape the serving topology instead of running stale
// shards forever — the drift check rolls one generation, and the new
// generation re-reads GOMAXPROCS. 24 apps cross the 2·GOMAXPROCS
// saturation threshold in both directions: at 8 procs 24 > 16 saturates
// to 8 shards, at 16 procs 24 ≤ 32 goes back to one shard per app.
func TestReshardOnGOMAXPROCSChange(t *testing.T) {
	prev := goruntime.GOMAXPROCS(8)
	defer goruntime.GOMAXPROCS(prev)

	k := NewKernel(testManager(4))
	for i := 0; i < 24; i++ {
		if _, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), Options{Flush: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	waitShards := func(want int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for int(k.topoShards.Load()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("topoShards = %d, want %d (no reshape)", int(k.topoShards.Load()), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitShards(8) // 24 apps > 2·8: saturate at GOMAXPROCS

	// Shrink: 24 > 2·2 still saturates, now at 2 shards. The running
	// loops must notice the drift and roll.
	goruntime.GOMAXPROCS(2)
	waitShards(2)

	// Grow past the threshold the other way: 24 ≤ 2·16 de-saturates to
	// one shard per app.
	goruntime.GOMAXPROCS(16)
	waitShards(24)

	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDetachDrainManyCore: the detach-drain guarantee (a returned
// Detach means no in-flight batch still carries the app) must hold on
// the saturated many-core topology — shards parking on counters must
// still quiesce at the generation roll.
func TestDetachDrainManyCore(t *testing.T) {
	prev := goruntime.GOMAXPROCS(8)
	defer goruntime.GOMAXPROCS(prev)

	k := NewKernel(testManager(4))
	for i := 0; i < 32; i++ {
		if _, err := k.Attach(simpleSpec(fmt.Sprintf("app%d", i), simhpc.NewWorkloadGen(uint64(7+i)), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), Options{EpochDt: 60, Flush: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	// Let epochs flow, then detach half the apps while the loops run.
	start := k.Epochs()
	for k.Epochs() < start+3 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i += 2 {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := k.Detach(name); err != nil {
				t.Errorf("detach %s: %v", name, err)
			}
		}(fmt.Sprintf("app%d", i))
	}
	wg.Wait()

	// The survivors keep committing epochs on the re-shaped topology.
	after := k.Epochs()
	deadline := time.Now().Add(10 * time.Second)
	for k.Epochs() < after+3 {
		if time.Now().After(deadline) {
			t.Fatal("epochs stalled after concurrent detach burst")
		}
		time.Sleep(time.Millisecond)
	}
	k.Stop()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	// Zero observation loss: every offered GFlop is in the ledger —
	// detached apps keep their accounts beside the survivors'.
	totals := k.TotalsPerApp()
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("app%d", i)
		if _, ok := totals[name]; !ok {
			t.Errorf("app %s missing from the totals ledger after drain", name)
		}
	}
}

// TestSeqlockEightReaders: the statsCell seqlock must serve consistent
// snapshots to eight concurrent readers — the many-core shape of the
// torn-read test, sized past the old 4-reader coverage.
func TestSeqlockEightReaders(t *testing.T) {
	prev := goruntime.GOMAXPROCS(8)
	defer goruntime.GOMAXPROCS(prev)

	var c statsCell
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := int64(1); n <= 30000; n++ {
			c.publishStats(rtrm.Stats{
				Epochs:        int(n),
				WorkGFlop:     float64(2 * n),
				EnergyJ:       float64(5 * n),
				ThermalEvents: int(3 * n),
			})
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, _ := c.snapshot()
				n := int64(s.Epochs)
				if s.WorkGFlop != float64(2*n) || s.EnergyJ != float64(5*n) || s.ThermalEvents != int(3*n) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

// TestWakePathNoAlloc: one full epoch wake handshake — submit,
// doorbell drain, release, accept — allocates nothing. The park
// channels are per-generation allocations; steady state is atomics
// only.
func TestWakePathNoAlloc(t *testing.T) {
	k := &Kernel{}
	hub := newWakeHub()
	shards := make([]*shard, 4)
	for i := range shards {
		shards[i] = &shard{park: make(chan struct{}, 1)}
	}
	pending := make([]*shard, 0, 4)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		for _, sh := range shards {
			k.submitShard(hub, sh)
		}
		select {
		case <-hub.sig:
		default:
		}
		for sh := hub.stack.popAll(); sh != nil; {
			next := sh.next
			pending = append(pending, sh)
			sh = next
		}
		k.releaseShards(pending)
		for _, sh := range shards {
			if !k.waitAccepted(ctx, sh) {
				t.Fatal("waitAccepted returned false without cancellation")
			}
		}
		pending = pending[:0]
	})
	if allocs != 0 {
		t.Errorf("wake path allocates %.1f per epoch, want 0", allocs)
	}
	if math.IsNaN(allocs) {
		t.Error("AllocsPerRun returned NaN")
	}
}
