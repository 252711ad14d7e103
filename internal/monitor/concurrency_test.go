package monitor

import (
	"fmt"
	"sync"
	"testing"
)

// TestWindowConcurrentPush hammers one window from many goroutines and
// checks no samples are lost (run under -race in CI).
func TestWindowConcurrentPush(t *testing.T) {
	w := NewWindow(128)
	const producers, per = 8, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Push(1)
			}
		}()
	}
	wg.Wait()
	if w.Total() != producers*per {
		t.Errorf("total %d, want %d", w.Total(), producers*per)
	}
	if w.Len() != 128 || w.Mean() != 1 {
		t.Errorf("len=%d mean=%v", w.Len(), w.Mean())
	}
}

// TestSetConcurrentPushSnapshot mixes pushers, snapshotters and resets
// across distinct and shared metrics.
func TestSetConcurrentPushSnapshot(t *testing.T) {
	t.Run("set", func(t *testing.T) {
		s := NewSet(64)
		const producers, per = 8, 500
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				metric := fmt.Sprintf("m%d", p%4)
				for i := 0; i < per; i++ {
					s.Push(metric, float64(i))
					if i%100 == 0 {
						_ = s.Summaries()
					}
				}
			}(p)
		}
		wg.Wait()
		var total int64
		for i := 0; i < 4; i++ {
			w := s.Window(fmt.Sprintf("m%d", i))
			if w == nil {
				t.Fatalf("metric m%d missing", i)
			}
			total += w.Total()
		}
		if total != producers*per {
			t.Errorf("total %d, want %d", total, producers*per)
		}
	})
}

// Contention benchmarks for the mutexed Set and the cached-handle fast
// path: run with
//
//	go test ./internal/monitor -bench 'PushParallel' -cpu 1,4,16

func benchmarkPushParallel(b *testing.B, push func(string, float64), metrics int) {
	names := make([]string, metrics)
	for i := range names {
		names[i] = fmt.Sprintf("metric-%d", i)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			push(names[i%metrics], float64(i))
			i++
		}
	})
}

func BenchmarkSetPushParallel(b *testing.B) {
	for _, metrics := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("metrics=%d", metrics), func(b *testing.B) {
			s := NewSet(128)
			benchmarkPushParallel(b, s.Push, metrics)
		})
	}
}

// The run-shaped variants model the binary streaming ingest's load at
// a hypothetical global sink: decoded wire frames deliver 64-sample
// runs of one metric, so a sink sees long same-metric bursts rather
// than interleaved single pushes. One op = one 64-sample run.

const runShape = 64

func benchmarkPushRunParallel(b *testing.B, push func(string, float64), metrics int) {
	names := make([]string, metrics)
	for i := range names {
		names[i] = fmt.Sprintf("metric-%d", i)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			name := names[i%metrics]
			for s := 0; s < runShape; s++ {
				push(name, float64(s))
			}
			i++
		}
	})
}

func BenchmarkSetPushRunParallel(b *testing.B) {
	for _, metrics := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("metrics=%d", metrics), func(b *testing.B) {
			s := NewSet(128)
			benchmarkPushRunParallel(b, s.Push, metrics)
		})
	}
}

// BenchmarkHandlePushParallel measures the cached-handle fast path the
// adaptation kernel's control loop uses: Acquire the window once, then
// push on it directly, skipping the set's lock and map lookup per
// sample.
func BenchmarkHandlePushParallel(b *testing.B) {
	for _, metrics := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("metrics=%d", metrics), func(b *testing.B) {
			s := NewSet(128)
			handles := make([]*Window, metrics)
			for i := range handles {
				handles[i] = s.Acquire(fmt.Sprintf("metric-%d", i))
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					handles[i%metrics].Push(float64(i))
					i++
				}
			})
		})
	}
}
