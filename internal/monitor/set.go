package monitor

import (
	"sync"
	"sync/atomic"
)

// Set is a collection of named metric windows — the "collect" stage.
// It is safe for concurrent use: serving goroutines Push while the
// adaptation kernel snapshots and resets. The window map is guarded by
// an RWMutex; per-sample mutual exclusion lives inside Window, so
// steady-state pushes to existing metrics only take the read lock here.
//
// Version counts changes that can move the set's summaries: a window
// created, a window's first Push after its last Snapshot, and every
// Reset. A reader that loads Version, then snapshots every window, and
// later reads the same Version knows no window has changed since its
// snapshot of it.
type Set struct {
	mu      sync.RWMutex
	windows map[string]*Window
	size    int
	version atomic.Uint64
}

// NewSet returns a monitor set whose windows hold size samples each.
func NewSet(size int) *Set {
	return &Set{windows: make(map[string]*Window), size: size}
}

// Push records a sample for metric.
func (s *Set) Push(metric string, v float64) {
	s.Acquire(metric).Push(v)
}

// Acquire returns the window for metric, creating it if absent. It is
// the cached-handle fast path for hot producers: resolve the handle
// once, then call Window.Push directly, skipping this set's lock and
// map lookup on every sample. The returned window stays valid for the
// life of the set (Reset clears samples but keeps windows).
func (s *Set) Acquire(metric string) *Window {
	s.mu.RLock()
	w, ok := s.windows[metric]
	s.mu.RUnlock()
	if ok {
		return w
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok = s.windows[metric]; ok {
		return w
	}
	w = NewWindow(s.size)
	w.version = &s.version
	s.windows[metric] = w
	s.version.Add(1)
	return w
}

// Version returns the set's change counter (see Set). It is one atomic
// load.
func (s *Set) Version() uint64 { return s.version.Load() }

// Window returns the window for metric (nil if never pushed).
func (s *Set) Window(metric string) *Window {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.windows[metric]
}

// Summaries snapshots every metric — the "analyse" stage.
func (s *Set) Summaries() map[string]Summary {
	s.mu.RLock()
	out := make(map[string]Summary, len(s.windows))
	s.mu.RUnlock()
	s.SummariesInto(out)
	return out
}

// SummariesInto clears dst and fills it with a snapshot of every
// metric, reusing dst's storage — the allocation-free analyse path for
// hot control loops. The per-window snapshots are taken under the
// set's read lock, so Push with a brand-new metric briefly waits, but
// steady-state pushes to existing windows never touch this lock.
func (s *Set) SummariesInto(dst map[string]Summary) {
	clear(dst)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, w := range s.windows {
		dst[name] = w.Snapshot()
	}
}

// Reset clears all windows (used after an adaptation so stale samples
// from the previous configuration do not pollute the next decision).
func (s *Set) Reset() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.windows {
		w.Reset()
	}
}

// Decision is what the decide stage tells the act stage.
type Decision struct {
	// Adapt requests a configuration change.
	Adapt bool
	// Reason is the violated goal (or "" for proactive adaptations).
	Reason string
	// Violation is the normalized magnitude.
	Violation float64
}
