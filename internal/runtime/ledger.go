package runtime

import (
	"slices"
	"strings"
)

// The ledger is the per-app account of offered work. An app's
// cumulative total lives in up to three places: detachedTotals (the
// folded totals of controllers retired under that name), pendingRetire
// (detached controllers whose drained final epoch may still commit)
// and the live controller. Every read sums them in one association —
// detached, then each pending controller in detach order, then the live
// one — the order foldRetiredLocked itself adds in, so a read taken
// before a fold and one taken after it are bit-identical.

// AppTotal is one application's cumulative offered GFlop.
type AppTotal struct {
	Name  string
	GFlop float64
}

// ledgerIndex is an immutable, name-sorted view of where each app's
// total lives. It is rebuilt (lazily, by the next reader) only when
// ledgerVer moves — on Attach, Detach and a non-empty fold — so between
// membership changes a full read is one pass of atomic loads.
type ledgerIndex struct {
	version int64
	entries []ledgerEntry
}

// ledgerEntry is one name's sources, in summation order.
type ledgerEntry struct {
	name    string
	base    float64       // detachedTotals[name], 0 when absent
	pending []*Controller // pending-retire controllers, detach order
	live    *Controller   // nil once detached
}

// total sums the entry's sources in the ledger's association order.
// A pending controller's total may still grow until the next fold and
// is final after it, so an index that predates the fold adds the same
// values in the same order as the fold did: the same bits.
func (e *ledgerEntry) total() float64 {
	g := e.base
	for _, ctl := range e.pending {
		g += ctl.totalGFlop()
	}
	if e.live != nil {
		g += e.live.totalGFlop()
	}
	return g
}

// ledgerChangedLocked invalidates the ledger index. Callers hold k.mu.
func (k *Kernel) ledgerChangedLocked() { k.ledgerVer.Add(1) }

// currentLedger returns an index current as of the call: the cached one
// when no membership change or fold happened since it was built,
// otherwise a fresh one built under k.mu.
func (k *Kernel) currentLedger() *ledgerIndex {
	if idx := k.ledger.Load(); idx != nil && idx.version == k.ledgerVer.Load() {
		return idx
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	ver := k.ledgerVer.Load() // stable: writers hold k.mu
	if idx := k.ledger.Load(); idx != nil && idx.version == ver {
		return idx // another reader rebuilt it first
	}
	pos := make(map[string]int, len(k.detachedTotals)+len(k.apps))
	entries := make([]ledgerEntry, 0, len(k.detachedTotals)+len(k.apps))
	entry := func(name string) *ledgerEntry {
		i, ok := pos[name]
		if !ok {
			i = len(entries)
			pos[name] = i
			entries = append(entries, ledgerEntry{name: name})
		}
		return &entries[i]
	}
	for name, g := range k.detachedTotals {
		entry(name).base = g
	}
	for _, ctl := range k.pendingRetire {
		e := entry(ctl.Name())
		e.pending = append(e.pending, ctl)
	}
	for _, ctl := range k.apps {
		entry(ctl.Name()).live = ctl
	}
	slices.SortFunc(entries, func(a, b ledgerEntry) int { return strings.Compare(a.name, b.name) })
	idx := &ledgerIndex{version: ver, entries: entries}
	k.ledger.Store(idx)
	return idx
}

// AppendTotals appends every application's cumulative offered GFlop to
// dst in name order (byte-wise, as sort.Strings orders) and returns the
// extended slice. It carries exactly TotalsPerApp's content — detached
// apps keep their entries, a re-attached name sums every lifetime, and
// each total has the same bits — but without k.mu or a map: while
// membership is unchanged it is one pass of atomic loads and allocates
// only when dst must grow. The feed renderer calls it once per event.
func (k *Kernel) AppendTotals(dst []AppTotal) []AppTotal {
	idx := k.currentLedger()
	for i := range idx.entries {
		e := &idx.entries[i]
		dst = append(dst, AppTotal{Name: e.name, GFlop: e.total()})
	}
	return dst
}

// TotalsPerApp returns the cumulative GFlop each application has
// offered to the manager (the manager's own telemetry tracks how much
// was executed vs deferred). Detached apps keep their entries; an app
// detached and re-attached under the same name sums both lifetimes.
func (k *Kernel) TotalsPerApp() map[string]float64 {
	idx := k.currentLedger()
	out := make(map[string]float64, len(idx.entries))
	for i := range idx.entries {
		e := &idx.entries[i]
		out[e.name] = e.total()
	}
	return out
}

// TotalFor returns one application's cumulative offered GFlop — the
// O(1) read for per-app status endpoints, where TotalsPerApp's full
// map copy would be per-request O(apps). The total lives on the
// controller as an atomic, so the read never touches a commit lock.
func (k *Kernel) TotalFor(name string) float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	g := k.detachedTotals[name]
	for _, ctl := range k.pendingRetire {
		if ctl.Name() == name {
			g += ctl.totalGFlop()
		}
	}
	if ctl := k.byName[name]; ctl != nil {
		g += ctl.totalGFlop()
	}
	return g
}

// foldRetiredLocked folds the totals of detached controllers into the
// detachedTotals map. Callers hold k.mu and know the epoch engine is
// quiescent (supervisor between generations, sync driver between
// epochs, Stop after the supervisor exits) — a parked controller can
// commit nothing further, so its total is final.
func (k *Kernel) foldRetiredLocked() {
	if len(k.pendingRetire) == 0 {
		return
	}
	for _, ctl := range k.pendingRetire {
		k.detachedTotals[ctl.Name()] += ctl.totalGFlop()
	}
	clear(k.pendingRetire)
	k.pendingRetire = k.pendingRetire[:0]
	k.ledgerChangedLocked()
}
