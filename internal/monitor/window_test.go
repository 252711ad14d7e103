package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// modelSummary recomputes a window's Summary from a plain slice: hist
// holds every sample pushed since the last Reset, oldest first. The
// running sums replay the window's own add-then-evict arithmetic in the
// same order, so Mean and StdDev can be compared bit for bit; the rest
// is read off the live tail directly.
func modelSummary(hist []float64, size int) Summary {
	var sum, sumSq float64
	for i, v := range hist {
		if i >= size {
			old := hist[i-size]
			sum -= old
			sumSq -= old * old
		}
		sum += v
		sumSq += v * v
	}
	n := min(len(hist), size)
	if n == 0 {
		return Summary{}
	}
	live := append([]float64(nil), hist[len(hist)-n:]...)
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	sort.Float64s(live)
	rank := 0.95 * float64(n-1)
	lo := int(rank)
	p95 := live[n-1]
	if lo+1 < n {
		frac := rank - float64(lo)
		p95 = live[lo]*(1-frac) + live[lo+1]*frac
	}
	return Summary{
		Count:  n,
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    live[0],
		Max:    live[n-1],
		P95:    p95,
	}
}

func sameBits(a, b Summary) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Count == b.Count && eq(a.Mean, b.Mean) && eq(a.StdDev, b.StdDev) &&
		eq(a.Min, b.Min) && eq(a.Max, b.Max) && eq(a.P95, b.P95)
}

// TestWindowSnapshotMatchesModel is the differential test of the
// Snapshot memo: seeded random runs of Push, Reset and Snapshot, where
// every Snapshot — memoized or recomputed — must be bit-identical to the
// plain-slice model. Snapshots often repeat with nothing in between (the
// memo answers) and often follow a lone Push or Reset (the memo must be
// dropped), so removing either invalidation fails here.
func TestWindowSnapshotMatchesModel(t *testing.T) {
	for _, size := range []int{1, 8, 32} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				w := NewWindow(size)
				var hist []float64
				for op := 0; op < 2000; op++ {
					switch r := rng.Intn(10); {
					case r < 5:
						// A few repeated values exercise ties in the
						// percentile; the rest spread over decades.
						v := float64(rng.Intn(4))
						if rng.Intn(2) == 0 {
							v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
						}
						w.Push(v)
						hist = append(hist, v)
					case r < 6:
						w.Reset()
						hist = hist[:0]
					default:
						got, want := w.Snapshot(), modelSummary(hist, size)
						if !sameBits(got, want) {
							t.Fatalf("op %d: snapshot %+v, model %+v", op, got, want)
						}
					}
				}
			})
		}
	}
}

// TestWindowSnapshotConcurrent runs Push, Reset and Snapshot on one
// window from several goroutines (run under -race in CI). Every
// snapshot must be self-consistent: a memo is never half-written or
// paired with another state's count. Integer-valued samples keep the
// running sums exact, so Min <= Mean <= Max holds with no tolerance.
func TestWindowSnapshotConcurrent(t *testing.T) {
	const size, workers, ops = 8, 4, 2000
	w := NewWindow(size)
	errs := make(chan string, workers) // at most one report per worker
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch (g + i) % 7 {
				case 0:
					w.Reset()
				case 1, 2, 3:
					w.Push(float64((g*ops + i) % 50))
				default:
					s := w.Snapshot()
					if s.Count < 0 || s.Count > size {
						errs <- fmt.Sprintf("count %d outside [0,%d]", s.Count, size)
						return
					}
					if s.Count > 0 && !(s.Min <= s.Mean && s.Mean <= s.Max && s.Min <= s.P95 && s.P95 <= s.Max) {
						errs <- fmt.Sprintf("inconsistent snapshot %+v", s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkWindowSnapshot prices the analyse stage per window at the
// kernel's default size: clean is a window with no sample since its
// last Snapshot (the memo answers), dirty pushes one sample before each
// Snapshot (a full recompute: copy, sort for P95, min/max scans).
//
//	go test -run '^$' -bench WindowSnapshot ./internal/monitor
func BenchmarkWindowSnapshot(b *testing.B) {
	for _, dirty := range []bool{false, true} {
		name := "clean"
		if dirty {
			name = "dirty"
		}
		b.Run(name, func(b *testing.B) {
			w := NewWindow(32)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 32; i++ {
				w.Push(rng.Float64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dirty {
					w.Push(float64(i % 97))
				}
				summarySink = w.Snapshot()
			}
		})
	}
}

var summarySink Summary
