package runtime

import (
	"sync"

	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// Backend is one resource-management domain the kernel can route epoch
// batches to — a per-partition or per-site rtrm.Manager, or anything
// else that can run a control epoch over an offered task list. The
// kernel serializes RunEpoch and Stats calls per backend (they run
// inside the epoch barrier), so implementations need no internal
// locking against the kernel; *rtrm.Manager implements Backend as-is.
type Backend interface {
	// RunEpoch executes one control epoch of dt simulated seconds over
	// the offered tasks and reports what happened. It must not modify
	// offered tasks, nor retain the offered slice past the call: apps
	// return the same tasks again in later epochs, and the kernel reuses
	// the slice's backing array. workers (≥ 1) is the epoch's core
	// budget: at most that many goroutines may work inside the call, and
	// the report must not depend on it.
	RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport
	// Stats snapshots the backend's cumulative telemetry.
	Stats() rtrm.Stats
}

// AppPlacement describes one application to a placement policy.
type AppPlacement struct {
	// Name is the application name.
	Name string
	// Hint is the app's AppSpec.Backend placement hint ("" if none).
	Hint string
	// Current is the app's current backend index, or -1 before its
	// first placement.
	Current int
}

// BackendLoad is the placement-time view of one backend.
type BackendLoad struct {
	// Name is the backend's kernel-assigned name.
	Name string
	// Apps is the number of applications assigned to the backend at the
	// last placement refresh.
	Apps int
	// OfferedGFlop is the work offered to the backend in the most
	// recent epoch it committed (0 until it has).
	OfferedGFlop float64
	// DeferredFrac is an EWMA of the fraction of offered work the
	// backend deferred in recent epochs — the signal SLA-aware steering
	// watches.
	DeferredFrac float64
}

// Placement routes applications onto backends. Place is called with
// the full app set whenever placement must be (re)computed — at every
// membership patch in concurrent mode, and lazily before a synchronous
// epoch — and returns one backend index per app, in order.
// Out-of-range indices are clamped to the app's current backend (or
// backend 0). Place runs under the kernel's membership lock: it must
// not call back into the Kernel.
//
// An assignment holds until the next patch: migrations land at
// quiescent epoch boundaries only, after in-flight batches have run, so
// an app never has epoch batches in flight on two backends at once.
type Placement interface {
	Place(apps []AppPlacement, backends []BackendLoad) []int
}

// EpochObserver is an optional Placement extension. When the kernel
// runs ≥ 2 backends, ObserveEpoch is called after every epoch with the
// fresh per-backend loads; returning true asks the kernel for a
// placement refresh (a membership-epoch bump with an unchanged app
// set), at which point Place runs again and may migrate apps.
// ObserveEpoch calls are serialized by the epoch engine but may run
// concurrently with Place; stateful observers must lock.
type EpochObserver interface {
	ObserveEpoch(backends []BackendLoad) (refresh bool)
}

// clampBackend makes an arbitrary policy result safe to route on.
func clampBackend(idx, current, n int) int {
	if idx >= 0 && idx < n {
		return idx
	}
	if current >= 0 && current < n {
		return current
	}
	return 0
}

// backendIndex resolves a placement hint against the load view.
func backendIndex(backends []BackendLoad, name string) int {
	if name == "" {
		return -1
	}
	for i := range backends {
		if backends[i].Name == name {
			return i
		}
	}
	return -1
}

// fnv1a is the stable string hash behind the static partition: an
// app's home backend survives restarts and attach-order changes.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Pinned is the static partition policy: an app with a matching
// placement hint is pinned to that backend; every other app hashes to
// a stable home backend by name. Pinned never migrates — an app keeps
// its backend for life (even through backend additions, unless it was
// hash-placed and has never run: assignments stick once made).
type Pinned struct{}

// Place implements Placement.
func (Pinned) Place(apps []AppPlacement, backends []BackendLoad) []int {
	out := make([]int, len(apps))
	for i, a := range apps {
		switch {
		case backendIndex(backends, a.Hint) >= 0:
			out[i] = backendIndex(backends, a.Hint)
		case a.Current >= 0 && a.Current < len(backends):
			out[i] = a.Current // sticky: never migrate a placed app
		default:
			out[i] = int(fnv1a(a.Name) % uint32(len(backends)))
		}
	}
	return out
}

// LeastLoaded places each new app on the backend with the least
// pending work — the work offered in the backend's most recent epoch,
// projected forward for apps assigned earlier in the same refresh so a
// burst of registrations spreads instead of piling onto one backend.
// Placed apps stay put (no migration); hints win over load.
type LeastLoaded struct{}

// Place implements Placement.
func (LeastLoaded) Place(apps []AppPlacement, backends []BackendLoad) []int {
	out := make([]int, len(apps))
	load := make([]float64, len(backends))
	count := make([]int, len(backends))
	var totalLoad float64
	totalApps := 0
	for i, b := range backends {
		load[i] = b.OfferedGFlop
		count[i] = 0 // recount below: Current is the authority on assignment
		totalLoad += b.OfferedGFlop
		totalApps += b.Apps
	}
	// A new app's demand is unknown until it runs; charge it the fleet's
	// mean per-app load (1 GFlop when there is no history yet) so
	// projections move.
	meanLoad := 1.0
	if totalApps > 0 && totalLoad > 0 {
		meanLoad = totalLoad / float64(totalApps)
	}
	for _, a := range apps {
		if a.Current >= 0 && a.Current < len(backends) {
			count[a.Current]++
		}
	}
	for i, a := range apps {
		if j := backendIndex(backends, a.Hint); j >= 0 {
			out[i] = j
			continue
		}
		if a.Current >= 0 && a.Current < len(backends) {
			out[i] = a.Current // sticky
			continue
		}
		best := 0
		for j := 1; j < len(backends); j++ {
			if load[j] < load[best] || (load[j] == load[best] && count[j] < count[best]) {
				best = j
			}
		}
		out[i] = best
		load[best] += meanLoad
		count[best]++
	}
	return out
}

// SLAAware steers applications off backends whose epochs blow their
// service goal: a backend whose deferred-work fraction (EWMA, see
// BackendLoad.DeferredFrac) stays above MaxDeferredFrac for Patience
// consecutive epochs is over its goal, and at the next placement
// refresh one unpinned app is migrated from it to the healthiest
// backend. ObserveEpoch requests that refresh, so the migration is
// patched in at a quiescent epoch boundary — in-flight batches run
// first, and the app's controller (inbox, windows, counters) moves
// wholesale, dropping nothing. Cooldown epochs must pass between
// migrations, bounding steering churn.
//
// New apps place like LeastLoaded; hinted apps are pinned and never
// steered.
type SLAAware struct {
	// MaxDeferredFrac is the per-backend goal: the deferred-work EWMA a
	// backend may sustain before apps are steered off it (default 0.1).
	MaxDeferredFrac float64
	// Patience is how many consecutive over-goal epochs arm a
	// migration (default 4).
	Patience int
	// Cooldown is the minimum number of epochs between migrations
	// (default 8).
	Cooldown int

	mu       sync.Mutex
	over     map[string]int // backend → consecutive over-goal epochs
	cooldown int            // epochs until the next migration is allowed
	armed    string         // backend flagged for offload at next Place
}

// NewSLAAware returns an SLA-aware steering policy with the default
// patience and cooldown. maxDeferredFrac ≤ 0 selects the default goal.
func NewSLAAware(maxDeferredFrac float64) *SLAAware {
	return &SLAAware{MaxDeferredFrac: maxDeferredFrac}
}

func (s *SLAAware) defaults() (goal float64, patience, cooldown int) {
	goal = s.MaxDeferredFrac
	if goal <= 0 {
		goal = 0.1
	}
	patience = s.Patience
	if patience <= 0 {
		patience = 4
	}
	cooldown = s.Cooldown
	if cooldown <= 0 {
		cooldown = 8
	}
	return goal, patience, cooldown
}

// ObserveEpoch implements EpochObserver: it tracks per-backend goal
// violations and arms a migration when one persists past Patience.
func (s *SLAAware) ObserveEpoch(backends []BackendLoad) bool {
	goal, patience, cooldown := s.defaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.over == nil {
		s.over = make(map[string]int)
	}
	if s.cooldown > 0 {
		s.cooldown--
	}
	worst, worstFrac := "", goal
	for _, b := range backends {
		if b.DeferredFrac > goal {
			s.over[b.Name]++
			if s.over[b.Name] >= patience && b.Apps > 0 && b.DeferredFrac >= worstFrac {
				worst, worstFrac = b.Name, b.DeferredFrac
			}
		} else {
			delete(s.over, b.Name)
		}
	}
	if worst == "" || s.cooldown > 0 || s.armed != "" {
		return false
	}
	s.armed = worst
	s.cooldown = cooldown
	return true
}

// Place implements Placement: keep every placed app where it is,
// except that an armed over-goal backend sheds its first unpinned app
// to the backend with the lowest deferred fraction (ties: least
// offered work). Unplaced apps go least-loaded.
func (s *SLAAware) Place(apps []AppPlacement, backends []BackendLoad) []int {
	s.mu.Lock()
	armed := s.armed
	s.armed = ""
	s.mu.Unlock()

	out := LeastLoaded{}.Place(apps, backends)
	from := backendIndex(backends, armed)
	if from < 0 {
		return out
	}
	// Pick the healthiest destination: lowest deferred fraction, then
	// least offered work. If the over-goal backend is itself the
	// healthiest (all are worse), no migration happens.
	to := -1
	for j := range backends {
		if j == from {
			continue
		}
		if to < 0 || backends[j].DeferredFrac < backends[to].DeferredFrac ||
			(backends[j].DeferredFrac == backends[to].DeferredFrac && backends[j].OfferedGFlop < backends[to].OfferedGFlop) {
			to = j
		}
	}
	if to < 0 || backends[to].DeferredFrac >= backends[from].DeferredFrac {
		return out
	}
	for i, a := range apps {
		if out[i] == from && backendIndex(backends, a.Hint) < 0 {
			out[i] = to // migrate exactly one app per refresh
			break
		}
	}
	return out
}
