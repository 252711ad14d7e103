// Package monitor implements the application-level runtime monitoring
// layer of the ANTAREX flow (paper §II and §IV): windowed statistics over
// metric streams, Service-Level-Agreement goals, debounced violation
// triggers, and the concurrent metric sets that feed the adaptation
// kernel in internal/runtime. "The monitoring, together with application
// properties/features, represents the main support to the
// decision-making during the application autotuning phase."
//
// All exported types in this package are safe for concurrent use: the
// kernel runs one control loop per application while serving goroutines
// push production samples into the same windows.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Window is a fixed-capacity sliding window of float64 samples with O(1)
// push and O(1) mean/variance queries (incremental sums). Percentile,
// Min and Max scan (and Percentile sorts) on demand; Snapshot memoizes
// its Summary until the next Push or Reset, so an unchanged window
// answers in O(1). A window created by a Set also bumps the set's
// Version when its memo goes stale: on the first Push after a Snapshot
// and on every Reset, so a Push into an already-stale window costs no
// atomic operation. It is safe for concurrent use: many producer
// goroutines may Push while the control loop snapshots.
type Window struct {
	mu    sync.Mutex
	buf   []float64
	size  int
	head  int
	count int
	sum   float64
	sumSq float64
	total int64 // lifetime samples

	scratch []float64 // percentile sort buffer, reused under mu

	// memo is the last Snapshot, valid while fresh. Push and Reset are
	// the only writers of the state a Summary is computed from, and each
	// clears fresh under mu.
	memo  Summary
	fresh bool

	// version is the owning Set's change counter (nil for a standalone
	// window), bumped under mu wherever fresh turns false.
	version *atomic.Uint64
}

// NewWindow returns a window holding the last size samples.
func NewWindow(size int) *Window {
	if size <= 0 {
		size = 1
	}
	return &Window{buf: make([]float64, size), size: size}
}

// Push adds a sample, evicting the oldest when full.
func (w *Window) Push(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count == w.size {
		old := w.buf[w.head]
		w.sum -= old
		w.sumSq -= old * old
	} else {
		w.count++
	}
	w.buf[w.head] = v
	w.head = (w.head + 1) % w.size
	w.sum += v
	w.sumSq += v * v
	w.total++
	if w.fresh {
		w.fresh = false
		w.bump()
	}
}

// bump tells the owning set, if any, that this window's Summary
// changed. Called under mu.
func (w *Window) bump() {
	if w.version != nil {
		w.version.Add(1)
	}
}

// Len returns the number of live samples.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Total returns the lifetime sample count.
func (w *Window) Total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Mean returns the window mean (0 when empty).
func (w *Window) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mean()
}

func (w *Window) mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// Variance returns the (population) variance over the window.
func (w *Window) Variance() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.variance()
}

func (w *Window) variance() float64 {
	if w.count == 0 {
		return 0
	}
	m := w.mean()
	v := w.sumSq/float64(w.count) - m*m
	if v < 0 {
		return 0 // numerical floor
	}
	return v
}

// StdDev returns the standard deviation over the window.
func (w *Window) StdDev() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return math.Sqrt(w.variance())
}

// Min returns the window minimum (0 when empty).
func (w *Window) Min() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.min()
}

func (w *Window) min() float64 {
	if w.count == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range w.live() {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the window maximum (0 when empty).
func (w *Window) Max() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max()
}

func (w *Window) max() float64 {
	if w.count == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, v := range w.live() {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of the window,
// linearly interpolated between ranks; p outside [0,100] reads as the
// nearer bound, an empty window reads 0, and a NaN p returns NaN.
func (w *Window) Percentile(p float64) float64 {
	if math.IsNaN(p) {
		return p
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.percentile(p)
}

func (w *Window) percentile(p float64) float64 {
	if w.count == 0 {
		return 0
	}
	vals := append(w.scratch[:0], w.live()...)
	w.scratch = vals
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

func (w *Window) live() []float64 {
	if w.count < w.size {
		return w.buf[:w.count]
	}
	return w.buf
}

// Reset clears all samples but keeps the lifetime count.
func (w *Window) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.head, w.count, w.sum, w.sumSq = 0, 0, 0, 0
	w.fresh = false
	w.bump()
}

// Summary is a point-in-time statistical snapshot.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P95    float64
}

// Snapshot computes a Summary of the window under one lock acquisition,
// so the statistics are mutually consistent even under concurrent Push.
// A window with no Push or Reset since the last Snapshot returns the
// same Summary from a memo, without rescanning or re-sorting.
func (w *Window) Snapshot() Summary {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.fresh {
		w.memo = Summary{
			Count:  w.count,
			Mean:   w.mean(),
			StdDev: math.Sqrt(w.variance()),
			Min:    w.min(),
			Max:    w.max(),
			P95:    w.percentile(95),
		}
		w.fresh = true
	}
	return w.memo
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g p95=%.4g",
		s.Count, s.Mean, s.StdDev, s.Min, s.Max, s.P95)
}

// EWMA is an exponentially weighted moving average, the continuous
// online-learning primitive used to track drifting operating conditions.
// Safe for concurrent use.
type EWMA struct {
	Alpha float64

	mu    sync.Mutex
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Push folds in a sample.
func (e *EWMA) Push(v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.init {
		e.value, e.init = v, true
		return
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
}

// Value returns the current average.
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Initialized reports whether any sample has been pushed.
func (e *EWMA) Initialized() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.init
}
