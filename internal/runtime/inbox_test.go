package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// drainAll drains in and returns the samples in drain order.
func drainAll(in *Inbox) []Sample {
	var out []Sample
	in.Drain(func(metric string, v float64) {
		out = append(out, Sample{Metric: metric, Value: v})
	})
	return out
}

// TestInboxStress is the ring's correctness gauntlet (run under -race
// in CI): N producers push tagged samples while a collector drains
// concurrently; afterwards every sample must have arrived exactly once.
func TestInboxStress(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		const producers = 8
		// Enough samples per producer to force many chunk handoffs.
		const per = 4 * inboxChunkSize
		in := &Inbox{}

		var wg sync.WaitGroup
		var producing atomic.Int32
		producing.Store(producers)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer producing.Add(-1)
				metric := fmt.Sprintf("m%d", p)
				for i := 0; i < per; i++ {
					in.Push(metric, float64(i))
				}
			}(p)
		}

		// Collector races the producers, then drains the remainder.
		seen := make(map[string][]bool)
		record := func(batch []Sample) {
			for _, s := range batch {
				marks := seen[s.Metric]
				if marks == nil {
					marks = make([]bool, per)
					seen[s.Metric] = marks
				}
				i := int(s.Value)
				if i < 0 || i >= per {
					t.Errorf("%s: impossible sample %v", s.Metric, s.Value)
					continue
				}
				if marks[i] {
					t.Errorf("%s: sample %d delivered twice", s.Metric, i)
				}
				marks[i] = true
			}
		}
		for producing.Load() > 0 {
			record(drainAll(in))
		}
		wg.Wait()
		record(drainAll(in))

		for p := 0; p < producers; p++ {
			metric := fmt.Sprintf("m%d", p)
			marks := seen[metric]
			if marks == nil {
				t.Fatalf("%s: no samples arrived", metric)
			}
			for i, ok := range marks {
				if !ok {
					t.Fatalf("%s: sample %d lost", metric, i)
				}
			}
		}
		if n := in.Len(); n != 0 {
			t.Errorf("Len after full drain: %d", n)
		}
	})
}

// TestInboxOrderPerProducer: the ring must preserve each producer's
// push order (claims are monotonic within a chunk and chunks are
// chained in claim order).
func TestInboxOrderPerProducer(t *testing.T) {
	in := &Inbox{}
	const producers, per = 4, 3 * inboxChunkSize
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			metric := fmt.Sprintf("m%d", p)
			for i := 0; i < per; i++ {
				in.Push(metric, float64(i))
			}
		}(p)
	}
	wg.Wait()
	next := make(map[string]int)
	in.Drain(func(metric string, v float64) {
		if int(v) != next[metric] {
			t.Fatalf("%s: got %v, want %d", metric, v, next[metric])
		}
		next[metric]++
	})
	for p := 0; p < producers; p++ {
		if n := next[fmt.Sprintf("m%d", p)]; n != per {
			t.Errorf("m%d: drained %d of %d", p, n, per)
		}
	}
}

// TestInboxReleasesDrainedChunks pins the anti-leak property: once the
// collector has taken over the chain, the first-chunk anchor is
// dropped, so drained chunks become unreachable instead of being
// retained forever through the next-pointer chain.
func TestInboxReleasesDrainedChunks(t *testing.T) {
	in := &Inbox{}
	sink := func(string, float64) {}
	for round := 0; round < 8; round++ {
		for i := 0; i < 2*inboxChunkSize; i++ {
			in.Push("m", float64(i))
		}
		in.Drain(sink)
		if in.first.Load() != nil {
			t.Fatal("first anchor still set after a drain; drained chunks stay reachable")
		}
	}
	// The live chain from head must be short (current chunk plus at
	// most the freshly installed successor), not the full history.
	n := 0
	for c := in.head; c != nil; c = c.next.Load() {
		n++
	}
	if n > 2 {
		t.Errorf("%d chunks still chained from head after full drains, want <= 2", n)
	}
}

// TestInboxPushBatchStress mixes bulk and single-sample producers with
// a concurrent collector: every sample must arrive exactly once, with
// batch sizes chosen to straddle chunk boundaries (run under -race).
func TestInboxPushBatchStress(t *testing.T) {
	const producers = 8
	const batches = 64
	// Batch sizes around the chunk size exercise the overhang path:
	// claims that run past a chunk boundary mid-batch.
	sizes := []int{1, 7, inboxChunkSize - 1, inboxChunkSize, inboxChunkSize + 3, 3 * inboxChunkSize}
	in := &Inbox{}

	var wg sync.WaitGroup
	var producing atomic.Int32
	producing.Store(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producing.Add(-1)
			metric := fmt.Sprintf("m%d", p)
			seq := 0
			for b := 0; b < batches; b++ {
				sz := sizes[b%len(sizes)]
				batch := make([]Sample, sz)
				for i := range batch {
					batch[i] = Sample{Metric: metric, Value: float64(seq)}
					seq++
				}
				if p%2 == 0 {
					in.PushBatch(batch)
				} else {
					for _, s := range batch {
						in.Push(s.Metric, s.Value)
					}
				}
			}
		}(p)
	}

	seen := make(map[string][]bool)
	record := func(batch []Sample) {
		for _, s := range batch {
			marks := seen[s.Metric]
			if marks == nil {
				marks = make([]bool, batches*3*inboxChunkSize)
				seen[s.Metric] = marks
			}
			i := int(s.Value)
			if i < 0 || i >= len(marks) {
				t.Errorf("%s: impossible sample %v", s.Metric, s.Value)
				continue
			}
			if marks[i] {
				t.Errorf("%s: sample %d delivered twice", s.Metric, i)
			}
			marks[i] = true
		}
	}
	for producing.Load() > 0 {
		record(drainAll(in))
	}
	wg.Wait()
	record(drainAll(in))

	for p := 0; p < producers; p++ {
		metric := fmt.Sprintf("m%d", p)
		marks := seen[metric]
		count := 0
		for _, ok := range marks {
			if ok {
				count++
			}
		}
		want := 0
		for b := 0; b < batches; b++ {
			want += sizes[b%len(sizes)]
		}
		if count != want {
			t.Errorf("%s: %d of %d samples arrived", metric, count, want)
		}
	}
	if n := in.Len(); n != 0 {
		t.Errorf("Len after full drain: %d", n)
	}
}

// TestInboxPushBatchOrder: a bulk push must preserve batch order, and
// interleave with other producers' batches without tearing its own.
func TestInboxPushBatchOrder(t *testing.T) {
	in := &Inbox{}
	const producers, per = 4, 2 * inboxChunkSize
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			metric := fmt.Sprintf("m%d", p)
			batch := make([]Sample, 0, 37)
			for i := 0; i < per; {
				batch = batch[:0]
				for j := 0; j < 37 && i < per; j++ {
					batch = append(batch, Sample{Metric: metric, Value: float64(i)})
					i++
				}
				in.PushBatch(batch)
			}
		}(p)
	}
	wg.Wait()
	next := make(map[string]int)
	in.Drain(func(metric string, v float64) {
		if int(v) != next[metric] {
			t.Fatalf("%s: got %v, want %d", metric, v, next[metric])
		}
		next[metric]++
	})
	for p := 0; p < producers; p++ {
		if n := next[fmt.Sprintf("m%d", p)]; n != per {
			t.Errorf("m%d: drained %d of %d", p, n, per)
		}
	}
}

// TestInboxPushBatchNoAlloc pins the bulk ingest fast path: pushing a
// reused batch must not allocate beyond amortized chunk turnover.
func TestInboxPushBatchNoAlloc(t *testing.T) {
	in := &Inbox{}
	var sink float64
	fn := func(_ string, v float64) { sink += v }
	batch := make([]Sample, 64)
	for i := range batch {
		batch[i] = Sample{Metric: "m", Value: float64(i)}
	}
	in.PushBatch(batch)
	in.Drain(fn)
	allocs := testing.AllocsPerRun(50, func() {
		in.PushBatch(batch)
		in.Drain(fn)
	})
	// 64 samples per cycle cross a 256-slot chunk boundary every 4th
	// cycle, so chunk turnover contributes a fractional amortized
	// allocation; one object or more per cycle means the path regressed.
	if allocs >= 1 {
		t.Errorf("PushBatch+Drain allocates %.2f objects per cycle, want < 1", allocs)
	}
}

// TestInboxZeroValue: the zero Inbox must be usable directly (core.App
// embeds one by value) and an empty collect must not allocate chunks.
func TestInboxZeroValue(t *testing.T) {
	var in Inbox
	if got := drainAll(&in); len(got) != 0 {
		t.Errorf("fresh inbox returned %v", got)
	}
	if in.Len() != 0 {
		t.Errorf("fresh Len = %d", in.Len())
	}
	in.Push("m", 1)
	in.Push("m", 2)
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	got := drainAll(&in)
	if len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Errorf("collected %v", got)
	}
}

// TestInboxDrainNoAlloc pins the kernel's collect fast path: draining
// buffered samples through a pre-bound function must not allocate.
func TestInboxDrainNoAlloc(t *testing.T) {
	in := &Inbox{}
	var sink float64
	fn := func(_ string, v float64) { sink += v }
	// Warm the first chunk so init allocations are out of the measured
	// window, then measure push+drain cycles inside one chunk.
	in.Push("m", 0)
	in.Drain(fn)
	allocs := testing.AllocsPerRun(50, func() {
		in.Push("m", 1)
		in.Push("m", 2)
		in.Drain(fn)
	})
	// Chunk turnover (every inboxChunkSize samples) may contribute a
	// fractional amortized allocation; anything at or above one object
	// per cycle means the fast path regressed.
	if allocs >= 1 {
		t.Errorf("push+drain allocates %.2f objects per cycle, want < 1", allocs)
	}
}
