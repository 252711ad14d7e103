package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitEpoch blocks on the kernel's epoch signal — never on a sleep —
// until cond holds.
func waitEpoch(t *testing.T, k *Kernel, what string, cond func() bool) {
	t.Helper()
	if !awaitEpoch(k, cond) {
		t.Fatalf("timed out waiting for %s (epochs %d, early %d)", what, k.Epochs(), k.EarlyEpochs())
	}
}

// awaitEpoch is waitEpoch for goroutines other than the test's: it
// blocks on the epoch signal (a membership patch rings it too) until
// cond holds, and reports a timeout instead of failing the test itself.
func awaitEpoch(k *Kernel, cond func() bool) bool {
	sig, cancel := k.EpochSignal()
	defer cancel()
	timeout := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-sig:
		case <-timeout:
			return false
		}
	}
	return true
}

// TestPacedAdmitRule pins the limiter on injected clock readings: at most
// one nudge is honoured per interval, decided by one CAS.
func TestPacedAdmitRule(t *testing.T) {
	p := newPacer(100, nil)
	for _, c := range []struct {
		now  int64
		want bool
		why  string
	}{
		{0, true, "the generation's first nudge"},
		{1, false, "inside the interval"},
		{99, false, "one ns short of the interval"},
		{100, true, "exactly one interval after the last honoured nudge"},
		{150, false, "dropped nudges must not move the window"},
		{199, false, "measured from the honoured nudge at 100, not the dropped one at 150"},
		{200, true, "the next interval"},
	} {
		if got := p.admit(c.now); got != c.want {
			t.Errorf("admit(%d) = %v, want %v: %s", c.now, got, c.want, c.why)
		}
	}

	var won atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.admit(1000) {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	if won.Load() != 1 {
		t.Errorf("%d concurrent callers won the same interval, want exactly 1", won.Load())
	}
}

// pacedKernel starts a kernel whose pacing timer cannot fire within the
// test (Interval: an hour) and whose scheduler never flushes a partial
// batch, so after each generation's first epoch only Nudge can run
// another. It returns once that first epoch is visible.
func pacedKernel(t *testing.T, apps int) (*Kernel, []*Controller) {
	t.Helper()
	k := NewKernel(testManager(4))
	ctls := make([]*Controller, apps)
	for i := range ctls {
		ctl, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ctls[i] = ctl
	}
	if err := k.Start(context.Background(), Options{Interval: time.Hour, Flush: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Stop)
	waitEpoch(t, k, "the generation's first epoch", func() bool { return k.Epochs() >= 1 })
	return k, ctls
}

// nudgeRunsOneEpoch asserts that a Nudge — and nothing else — runs the
// next epoch, over every app.
func nudgeRunsOneEpoch(t *testing.T, k *Kernel, ctls []*Controller) {
	t.Helper()
	epochs, early := k.Epochs(), k.EarlyEpochs()
	ticks := make([]int64, len(ctls))
	for i, ctl := range ctls {
		ticks[i] = ctl.Ticks()
	}
	k.Nudge()
	waitEpoch(t, k, "the nudged epoch", func() bool { return k.Epochs() > epochs })
	if got := k.Epochs(); got != epochs+1 {
		t.Errorf("epochs %d -> %d, want one early epoch", epochs, got)
	}
	if got := k.EarlyEpochs(); got != early+1 {
		t.Errorf("EarlyEpochs %d -> %d, want +1", early, got)
	}
	for i, ctl := range ctls {
		if got := ctl.Ticks(); got != ticks[i]+1 {
			t.Errorf("%s ticked %d -> %d, want +1: every shard must be rung", ctl.Name(), ticks[i], got)
		}
	}
	// Inside the same (hour-long) interval the limiter drops the rest.
	k.Nudge()
	if got := k.EarlyEpochs(); got != early+1 {
		t.Errorf("second nudge inside the interval was honoured (EarlyEpochs %d)", got)
	}
}

// TestNudgeSingleLoop: the degenerate one-shard topology.
func TestNudgeSingleLoop(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	k, ctls := pacedKernel(t, 3)
	if got := k.topoShards.Load(); got != 1 {
		t.Fatalf("topoShards = %d, want the single loop", got)
	}
	nudgeRunsOneEpoch(t, k, ctls)
}

// TestNudgeShardedAndAcrossRoll: the sharded topology wakes every shard
// — all apps keep equal tick counts, the fairness the saturation
// benchmark guards. An attach that keeps the loop count is patched in at
// the next round's boundary (here the nudged one: a patch rings no bell)
// and the late app ticks exactly once in every round after it, in step
// with the rest. A detach that changes the loop count rings the old
// shards to their boundary; the rebuilt topology's first round ticks
// every app, and its fresh pacer honours its first nudge although the
// old one's interval has not run out.
func TestNudgeShardedAndAcrossRoll(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	k, ctls := pacedKernel(t, 9)
	if got := k.topoShards.Load(); got != 4 {
		t.Fatalf("topoShards = %d, want 4 shard loops", got)
	}
	// 10 apps keep 4 shard loops: a patch.
	late, err := k.Attach(AppSpec{Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	gen := k.Generation()
	nudgeRunsOneEpoch(t, k, ctls)
	for _, ctl := range ctls {
		if ctl.Ticks() != ctls[0].Ticks() {
			t.Errorf("%s at %d ticks, %s at %d: shards fell out of phase", ctl.Name(), ctl.Ticks(), ctls[0].Name(), ctls[0].Ticks())
		}
	}
	waitEpoch(t, k, "the attach patched in at the nudged round's boundary", func() bool {
		return k.ServedGeneration() >= gen
	})
	if got := late.Ticks(); got != 0 {
		t.Fatalf("late app at %d ticks before the first round after its admission, want 0", got)
	}

	// 8 apps fit 2·GOMAXPROCS: one loop per app, a new topology. The
	// first detach is a patch; the second needs the rebuild and rings.
	epochs, ticks := k.Epochs(), ctls[0].Ticks()
	for _, name := range []string{"app8", "app7"} {
		if err := k.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	ctls = append(ctls[:7], late)
	waitEpoch(t, k, "the new generation's first epoch", func() bool {
		return k.Rebuilds() == 1 && k.Epochs() >= epochs+2
	})
	if got := k.topoShards.Load(); got != 8 {
		t.Fatalf("topoShards = %d after the rebuild, want 8", got)
	}
	// One round rung to the old topology's boundary — the late app's
	// first since its admission — and the new topology's first round.
	for _, ctl := range ctls[:7] {
		if got := ctl.Ticks(); got != ticks+2 {
			t.Errorf("%s at %d ticks after the rebuild, want %d", ctl.Name(), got, ticks+2)
		}
	}
	if got := late.Ticks(); got != 2 {
		t.Errorf("late app at %d ticks after the rebuild, want 2: one per round since its admission", got)
	}
	nudgeRunsOneEpoch(t, k, ctls)
}

// TestNudgeNoOp: without a paced generation being served there is
// nothing to ring.
func TestNudgeNoOp(t *testing.T) {
	k := NewKernel(testManager(2))
	if _, err := k.Attach(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	k.Nudge() // before Start
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	k.Nudge() // under the synchronous driver

	if err := k.Start(context.Background(), Options{}); err != nil { // Interval 0
		t.Fatal(err)
	}
	waitEpoch(t, k, "an unpaced epoch", func() bool { return k.Epochs() >= 2 })
	k.Nudge()
	k.Stop()

	epochs := k.Epochs()
	if err := k.Start(context.Background(), Options{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "the paced generation's first epoch", func() bool { return k.Epochs() > epochs })
	k.Stop()
	k.Nudge() // after Stop: the generation's pacer is gone
	if got := k.EarlyEpochs(); got != 0 {
		t.Errorf("EarlyEpochs() = %d, want 0: no nudge had a paced generation to ring", got)
	}
}
