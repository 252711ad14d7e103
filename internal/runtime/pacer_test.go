package runtime

import (
	"context"
	"fmt"
	"math/rand/v2"
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

// TestPacedAdmitRule pins the token bucket on injected clock readings:
// a full bucket honours nudgeBurst nudges at one instant, a dropped nudge
// leaves tat alone, one token comes back per interval, an idle bucket
// refills to nudgeBurst and no further, and concurrent callers on a full
// bucket win exactly nudgeBurst.
func TestPacedAdmitRule(t *testing.T) {
	type step struct {
		now  int64
		want bool
		tat  int64 // after the call
		why  string
	}
	var steps []step
	for i := int64(1); i <= nudgeBurst; i++ {
		steps = append(steps, step{0, true, i * 100, "a new generation's bucket starts full"})
	}
	steps = append(steps,
		step{0, false, nudgeBurst * 100, "the burst is spent"},
		step{99, false, nudgeBurst * 100, "one ns before a token comes back; a dropped nudge does not move tat"},
		step{100, true, (nudgeBurst + 1) * 100, "one token back after one interval"},
		step{100, false, (nudgeBurst + 1) * 100, "and only one"},
		step{150, false, (nudgeBurst + 1) * 100, "half an interval later"},
		step{199, false, (nudgeBurst + 1) * 100, "measured from tat, not from the dropped nudge at 150"},
		step{200, true, (nudgeBurst + 2) * 100, "the next interval's token"},
	)
	for i := int64(1); i <= nudgeBurst; i++ {
		steps = append(steps, step{10_000, true, 10_000 + i*100, "an idle bucket refills"})
	}
	steps = append(steps, step{10_000, false, 10_000 + nudgeBurst*100, "to nudgeBurst and no further"})

	p := newPacer(100, nil)
	for i, c := range steps {
		if got := p.admit(c.now); got != c.want {
			t.Errorf("step %d: admit(%d) = %v, want %v: %s", i, c.now, got, c.want, c.why)
		}
		if got := p.tat.Load(); got != c.tat {
			t.Errorf("step %d: tat %d after admit(%d), want %d: %s", i, got, c.now, c.tat, c.why)
		}
	}

	p = newPacer(100, nil)
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
	if won.Load() != nudgeBurst {
		t.Errorf("%d concurrent callers won a full bucket, want exactly %d", won.Load(), nudgeBurst)
	}
}

// TestPacedAdmitBound is the long-run bound as a property over seeded
// random schedules — steady streams, floods of calls at one instant and
// idle gaps: in every window of length T between two honoured nudges,
// and so in every prefix of length T, at most ⌊T/interval⌋ + nudgeBurst
// are honoured;
// and a nudge at least one interval after the last honoured one is
// never dropped, the guarantee of one early epoch per interval.
func TestPacedAdmitBound(t *testing.T) {
	const interval = 1000
	rng := rand.New(rand.NewPCG(46, 1))
	for round := 0; round < 200; round++ {
		p := newPacer(interval, nil)
		var honoured []int64
		now := int64(0)
		for call := 0; call < 300; call++ {
			switch r := rng.IntN(10); {
			case r < 2: // a flood: this call shares the last one's instant
			case r < 8:
				now += rng.Int64N(2 * interval)
			default:
				now += rng.Int64N(10 * interval)
			}
			ok := p.admit(now)
			if n := len(honoured); !ok && n > 0 && now-honoured[n-1] >= interval {
				t.Fatalf("round %d: nudge at %d dropped, %d after the last honoured one", round, now, now-honoured[n-1])
			}
			if ok {
				honoured = append(honoured, now)
			}
		}
		// Windows from the first honoured nudge bound every prefix too.
		for i := range honoured {
			for j := i; j < len(honoured); j++ {
				span := honoured[j] - honoured[i]
				if n := int64(j - i + 1); n > span/interval+nudgeBurst {
					t.Fatalf("round %d: %d honoured in [%d, %d], bound %d", round, n, honoured[i], honoured[j], span/interval+nudgeBurst)
				}
			}
		}
	}
}

// TestNudgeFloodBound floods a paced kernel's Nudge from several
// goroutines: every call is counted once, as honoured or dropped, and
// the honoured ones keep the long-run bound. Under an hour-long interval
// exactly the burst is honoured; under a short one tokens come back as
// the flood goes on.
func TestNudgeFloodBound(t *testing.T) {
	for _, interval := range []time.Duration{time.Hour, time.Millisecond} {
		t.Run(interval.String(), func(t *testing.T) {
			k := NewKernel(testManager(2))
			for i := 0; i < 2; i++ {
				if _, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			begin := time.Now()
			if err := k.Start(context.Background(), Options{Interval: interval, Flush: time.Hour}); err != nil {
				t.Fatal(err)
			}
			defer k.Stop()
			waitEpoch(t, k, "the generation's first epoch", func() bool { return k.Epochs() >= 1 })

			const flooders, flood = 4, 20 * time.Millisecond
			var calls atomic.Int64
			var wg sync.WaitGroup
			for f := 0; f < flooders; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for start := time.Now(); time.Since(start) < flood; {
						k.Nudge()
						calls.Add(1)
					}
				}()
			}
			wg.Wait()
			span := time.Since(begin)
			honoured, dropped := k.EarlyEpochs(), k.DroppedNudges()
			if honoured+dropped != calls.Load() {
				t.Errorf("honoured %d + dropped %d = %d, want every one of %d calls", honoured, dropped, honoured+dropped, calls.Load())
			}
			if bound := int64(span/interval) + nudgeBurst; honoured > bound {
				t.Errorf("%d nudges honoured in %v, bound %d", honoured, span, bound)
			}
			if interval == time.Hour && honoured != nudgeBurst {
				t.Errorf("%d nudges honoured inside one interval, want the burst, %d", honoured, nudgeBurst)
			}
			if interval < flood && honoured <= nudgeBurst {
				t.Errorf("%d nudges honoured over a %v flood at a %v interval: no token came back", honoured, flood, interval)
			}
			t.Logf("%d calls in %v: %d honoured, %d dropped", calls.Load(), span, honoured, dropped)
			waitEpoch(t, k, "a nudged epoch", func() bool { return k.Epochs() >= 2 })
		})
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
	// Spend the rest of the burst without ringing: inside the same
	// (hour-long) interval the pacer then drops the next nudge.
	p := k.pacer.Load()
	for p.admit(int64(time.Since(p.start))) {
	}
	dropped := k.DroppedNudges()
	k.Nudge()
	if got := k.EarlyEpochs(); got != early+1 {
		t.Errorf("a nudge on a spent bucket was honoured (EarlyEpochs %d)", got)
	}
	if got := k.DroppedNudges(); got != dropped+1 {
		t.Errorf("DroppedNudges %d -> %d, want +1", dropped, got)
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
