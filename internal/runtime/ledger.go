package runtime

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// The ledger is one account of offered work per app name, opened by the
// name's first Attach and never closed. Every controller attached under
// the name adds its contributions there in commit order, so a name's
// total is the running sum of what its workloads offered, across
// detach/re-attach lifetimes.

// AppTotal is one application's cumulative offered GFlop.
type AppTotal struct {
	Name  string
	GFlop float64
}

// account is one app name's cumulative offered GFlop as float bits:
// the epoch engine adds through a CAS loop, readers load it lock-free.
type account struct {
	name  string
	total atomic.Uint64
}

func (a *account) add(g float64) {
	for {
		old := a.total.Load()
		next := math.Float64bits(math.Float64frombits(old) + g)
		if a.total.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *account) gflop() float64 { return math.Float64frombits(a.total.Load()) }

// ledgerIndex is an immutable, name-sorted view of the accounts,
// rebuilt lazily by the next reader once a new name moves ledgerVer.
type ledgerIndex struct {
	version  int64
	accounts []*account
}

// openAccountLocked returns name's account, opening it on the name's
// first Attach. Callers hold k.mu.
func (k *Kernel) openAccountLocked(name string) *account {
	if a := k.accounts[name]; a != nil {
		return a
	}
	a := &account{name: name}
	k.accounts[name] = a
	k.ledgerVer.Add(1)
	return a
}

// currentLedger returns the cached index, or rebuilds it under k.mu
// when an account was opened since.
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
	accounts := make([]*account, 0, len(k.accounts))
	for _, a := range k.accounts {
		accounts = append(accounts, a)
	}
	slices.SortFunc(accounts, func(a, b *account) int { return strings.Compare(a.name, b.name) })
	idx := &ledgerIndex{version: ver, accounts: accounts}
	k.ledger.Store(idx)
	return idx
}

// AppendTotals appends every application's cumulative offered GFlop to
// dst in name order (byte-wise, as sort.Strings orders) and returns the
// extended slice: TotalsPerApp's content, bit for bit, without k.mu or
// a map — unless a new name was attached it is one pass of atomic loads
// and allocates only when dst must grow. The feed renderer calls it once
// per event.
func (k *Kernel) AppendTotals(dst []AppTotal) []AppTotal {
	for _, a := range k.currentLedger().accounts {
		dst = append(dst, AppTotal{Name: a.name, GFlop: a.gflop()})
	}
	return dst
}

// TotalsPerApp returns the cumulative GFlop each application has
// offered to the manager (the manager's own telemetry tracks how much
// was executed vs deferred). Detached apps keep their entries; a name
// detached and re-attached keeps one running sum.
func (k *Kernel) TotalsPerApp() map[string]float64 {
	accounts := k.currentLedger().accounts
	out := make(map[string]float64, len(accounts))
	for _, a := range accounts {
		out[a.name] = a.gflop()
	}
	return out
}

// TotalFor returns one application's cumulative offered GFlop — the
// O(1) read for per-app status endpoints, where TotalsPerApp's full
// map copy would be per-request O(apps); 0 for a name never attached.
func (k *Kernel) TotalFor(name string) float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if a := k.accounts[name]; a != nil {
		return a.gflop()
	}
	return 0
}
