package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// Typed kernel errors. They are wrapped with context (app name, mode),
// so match with errors.Is; the HTTP control plane maps them to status
// codes (ErrDuplicateApp → 409, ErrUnknownApp → 404, ...).
var (
	// ErrDuplicateApp: Attach of a name that is already attached.
	ErrDuplicateApp = errors.New("duplicate app name")
	// ErrUnknownApp: Detach of a name that is not attached.
	ErrUnknownApp = errors.New("unknown app")
	// ErrEmptyAppName: Attach with an empty AppSpec.Name.
	ErrEmptyAppName = errors.New("empty app name")
	// ErrRunning: an operation that requires the concurrent loops to be
	// stopped (Start while started, RunEpoch while started).
	ErrRunning = errors.New("kernel is running")
	// ErrNoBackends: Start or RunEpoch on a kernel with no backends
	// registered yet (NewKernel() + AddBackend construction).
	ErrNoBackends = errors.New("kernel has no backends")
)

// Kernel drives the adaptation loops of many applications over one or
// more resource-manager Backends. Applications Attach an AppSpec; each
// epoch the kernel ticks every application's Controller (collect-
// analyse-decide-act), materializes the epoch workloads under the
// freshly decided configurations, merges them, partitions the merged
// batch by each app's placed backend, and runs every contributing
// backend's epoch concurrently behind one barrier — the system-wide
// coupling of the paper's two control loops, for N apps over N sites.
//
// Placement is a pluggable policy (see Placement; Pinned, LeastLoaded
// and SLAAware ship in-package). Assignments are computed per
// membership generation: Attach, Detach, AddBackend and a steering
// policy's refresh request all bump the generation, and the new
// placement takes effect at the next epoch boundary with in-flight
// batches drained — an app migrating backends never has work in
// flight on two backends at once. One backend is the same engine with
// one slot: every batch routes to it and its commit runs inline.
//
// Two driving modes share the same epoch engine:
//
//   - RunEpoch: synchronous, one epoch per call. Goroutine-safe; used by
//     deterministic simulation drivers and tests. Apps tick in attach
//     order on the caller's goroutine, so no two apps' Workload or
//     Policy callbacks ever run at once.
//   - Start/Stop: sharded control-loop goroutines feeding a batched
//     epoch scheduler. The scheduler runs a manager epoch when every
//     app has contributed its batch (or after Flush expires, so a
//     stalled app cannot wedge the other loops' epochs — stall
//     isolation is per loop goroutine, see Start). Epochs are
//     pipelined: a loop is released as soon as its batch is merged, so
//     the next round of Tick+Workload runs concurrently with the
//     manager epoch — the serial section every app waits on is the
//     manager alone.
//
// Membership is dynamic: Attach and Detach work while the kernel is
// running. Every membership change bumps the membership epoch; the
// concurrent mode patches it into the running loop topology at the
// next quiescent epoch boundary (patch.go), so a newly attached app is
// admitted there and a detaching app's already-submitted batch is never
// dropped. Only a change of the loop count (re-sharding when the app
// count crosses 2·GOMAXPROCS) rebuilds the topology: a new generation.
//
// The epoch path allocates 4 objects per served two-backend epoch
// whatever the app count, measured on two Ps (two goroutine closures,
// two P-state slices; with more Ps each commit's dispatch fans out
// inside the backend and adds its own): the task lists, reply channels,
// deadline timer and fan-out buffers are kernel-owned scratch reused
// across epochs, and the serial section every app waits on covers only
// the backend epochs themselves, each under its backend's commit mutex.
// Merging, ticking and workload materialization all happen outside
// it. A patch allocates little (a placement view, a channel); a rebuild
// allocates shards and goroutines.
type Kernel struct {
	mu         sync.Mutex // guards apps, byName, backends, byBackend, placement, placeGen, running, cancel, memGen, memChanged, accounts
	apps       []*Controller
	byName     map[string]*Controller
	backends   []*backendSlot // copy-on-write: AddBackend replaces the slice
	byBackend  map[string]int
	placement  Placement
	placeGen   int64 // membership epoch the current assignments were computed for
	running    bool
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	memGen     int64         // membership epoch: bumped by every Attach/Detach/AddBackend
	memChanged chan struct{} // closed on membership change; re-armed per snapshot

	servedGen atomic.Int64 // generation the concurrent loops currently serve

	syncMu sync.Mutex // serializes whole synchronous RunEpoch calls, and Start against them

	// Cumulative offered GFlop: one account per app name, never removed
	// (ledger.go). ledger caches the name-sorted index of accounts;
	// ledgerVer, bumped under k.mu when a name opens one, marks it stale.
	accounts  map[string]*account
	ledger    atomic.Pointer[ledgerIndex]
	ledgerVer atomic.Int64
	epochs    atomic.Int64

	// loadMu guards the per-backend placement telemetry (backendSlot
	// offered/deferredEWMA/apps). A leaf lock: never held while taking
	// another kernel lock.
	loadMu sync.Mutex

	// Epoch scratch, reused across epochs. Safe without its own lock:
	// execute's callers are already serialized — RunEpoch by syncMu, the
	// concurrent mode by its single per-generation epoch executor (and
	// generations are sequential: the supervisor waits for one to wind
	// down before starting the next) — and the two modes are mutually
	// exclusive: Start takes syncMu too.
	syncContribs []contribution // RunEpoch's per-app contributions
	// epochBackends is the backend set the current generation (or sync
	// epoch) routes over — snapshotted with the app set, so an epoch
	// never sees assignments pointing past its backend view.
	// epochObserver is the placement policy's steering hook for that
	// snapshot (nil unless multi-backend and the policy observes).
	epochBackends []*backendSlot
	epochObserver EpochObserver
	loadScratch   []BackendLoad // ObserveEpoch view, reused
	commitTimer   *time.Timer   // commitAll's deadline, made on first use

	// epoch-signal subscribers (EpochSignal); notifyCount caches
	// len(notify) so the zero-subscriber epoch path is one atomic load.
	notifyMu    sync.Mutex
	notify      map[chan struct{}]struct{}
	notifyCount atomic.Int32

	// Failure domain (see health.go). backendTimeout is the per-commit
	// deadline in nanoseconds (0 = disabled). parkCtx is the context a
	// parked epoch batch waits under when no backend is schedulable —
	// the serving generation's context in concurrent mode, nil under the
	// sync driver (a sync park then waits for a revive or an AddBackend
	// alone). Written only at quiescent points, same discipline as
	// epochBackends.
	backendTimeout atomic.Int64
	parkCtx        context.Context

	// backend-event subscribers (BackendEvents); same shape as the
	// epoch-signal bus.
	eventMu    sync.Mutex
	events     map[chan BackendEvent]struct{}
	eventCount atomic.Int32

	// Many-core wake path (wake.go). wakeOps counts every operation
	// that can wake an epoch-machinery goroutine (doorbell rings, park
	// tokens) — K12's wakeups/epoch metric.
	wakeOps atomic.Int64

	// Topology snapshot of the serving generation: the GOMAXPROCS it
	// was shaped for, the shard-loop count it chose, and whether a
	// drift-triggered reshape roll has already been requested for it
	// (one per generation). topoGMP is zero until a generation has been
	// served; commitWorkers then reads GOMAXPROCS itself.
	topoGMP    atomic.Int32
	topoShards atomic.Int32
	topoDrift  atomic.Bool
	rebuilds   atomic.Int64 // topologies built since Start, minus the first

	// Early wake (pacer.go): the serving generation's pacer — nil unless
	// it is paced (Options.Interval > 0) — and the honoured and dropped
	// nudge counts.
	pacer         atomic.Pointer[pacer]
	earlyEpochs   atomic.Int64
	droppedNudges atomic.Int64

	errMu sync.Mutex
	err   error // first workload error observed by concurrent loops
}

// backendSlot is the kernel's per-backend state: identity, epoch merge
// scratch (owned by the serialized epoch engine) and the placement
// load telemetry (under loadMu).
type backendSlot struct {
	name string
	be   Backend

	// commitMu serializes this backend's epoch commits against each
	// other: a deadline-abandoned commit still running in the background
	// must not overlap the next one. commit holds it around the backend
	// epoch plus the stats republish; status readers never take it (they
	// snapshot cell).
	commitMu sync.Mutex
	// seq is the backend's epoch sequence number: bumped on every
	// commit. The control plane's SSE stream keys its per-backend
	// coalescing on it, so a commit on one backend wakes subscribers
	// even when the global epoch counter has not moved since they last
	// looked.
	seq atomic.Int64
	// cell is the seqlock status readers snapshot.
	cell statsCell

	// Epoch scratch — same ownership discipline as Kernel.syncContribs: tasks
	// is this epoch's batch routed here, active whether any was, held
	// whether an abandoned commit still had the slot at the epoch's start.
	tasks  []*simhpc.Task
	report rtrm.EpochReport
	active bool
	held   bool
	// commitState says who owns an off-goroutine commit's outcome, and
	// whether tasks may be reset; reply carries it to the epoch (commitAll).
	commitState atomic.Int32
	reply       chan bool

	// Placement telemetry, under Kernel.loadMu; see BackendLoad.
	offered      float64
	deferredEWMA float64
	apps         int

	// Failure domain (see health.go). state is the lifecycle tombstone
	// (slotActive..slotRemoved), health the BackendHealth — both written
	// under k.mu, read lock-free by the executor (schedulable).
	// lastErr (under k.mu) is the most recent panic/stall reason.
	// committed is epoch-engine scratch: whether this epoch's commit
	// finished — in time and without a panic (bs.report is only valid
	// when it did).
	state     atomic.Int32
	health    atomic.Int32
	lastErr   string
	committed bool
}

// deferredEWMAAlpha smooths the per-backend deferred-work fraction the
// SLA-aware steering watches: ~0.25 weights the last few epochs.
const deferredEWMAAlpha = 0.25

// NewKernel builds a kernel over zero or more backends (*rtrm.Manager
// implements Backend). Backends passed here are named "b0", "b1", ...
// in argument order; AddBackend attaches more, under chosen names —
// NewKernel() followed by AddBackend calls builds a fully named
// backend set. The default placement policy is the static partition
// (Pinned); see SetPlacement. Start and RunEpoch error with
// ErrNoBackends until at least one backend is registered.
func NewKernel(backends ...Backend) *Kernel {
	k := &Kernel{
		byName:    make(map[string]*Controller),
		byBackend: make(map[string]int, len(backends)),
		placement: Pinned{},
		placeGen:  -1, // first refresh always runs
		accounts:  make(map[string]*account),
	}
	for i, be := range backends {
		name := fmt.Sprintf("b%d", i)
		bs := &backendSlot{name: name, be: be, reply: make(chan bool, 1)}
		bs.cell.publishStats(be.Stats()) // seed the seqlock for pre-commit reads
		k.backends = append(k.backends, bs)
		k.byBackend[name] = i
	}
	return k
}

// AddBackend registers another backend under name. Adding while the
// kernel is running is allowed: the backend joins the routing set at
// the next epoch boundary (a membership patch, like Attach),
// at which point the placement policy may start assigning apps to it.
// The inverse is RemoveBackend (drain + delete); a removed backend's
// name is reusable here.
func (k *Kernel) AddBackend(name string, be Backend) error {
	if name == "" {
		return errors.New("runtime: add backend: empty backend name")
	}
	if be == nil {
		return fmt.Errorf("runtime: add backend %q: nil backend", name)
	}
	k.mu.Lock()
	if _, dup := k.byBackend[name]; dup {
		k.mu.Unlock()
		return fmt.Errorf("runtime: add backend %q: duplicate backend name", name)
	}
	// Copy-on-write: epoch snapshots of k.backends stay valid.
	bks := make([]*backendSlot, len(k.backends), len(k.backends)+1)
	copy(bks, k.backends)
	bs := &backendSlot{name: name, be: be, reply: make(chan bool, 1)}
	bs.cell.publishStats(be.Stats())
	k.backends = append(bks, bs)
	k.byBackend[name] = len(k.backends) - 1
	k.membershipChangedLocked()
	k.mu.Unlock()
	k.signalEpoch() // a batch parked in an outage takes the new backend
	return nil
}

// SetPlacement swaps the placement policy (nil restores the default
// Pinned static partition). Takes effect at the next epoch boundary;
// every app is re-placed through the new policy then.
func (k *Kernel) SetPlacement(p Placement) {
	if p == nil {
		p = Pinned{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.placement = p
	k.membershipChangedLocked()
}

// Backends returns the backend names in registration order. Removed
// backends are tombstoned internally (indices stay stable) but do not
// appear here.
func (k *Kernel) Backends() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	names := make([]string, 0, len(k.backends))
	for _, bs := range k.backends {
		if bs.state.Load() != slotRemoved {
			names = append(names, bs.name)
		}
	}
	return names
}

// NumBackends returns the number of registered (non-removed) backends.
func (k *Kernel) NumBackends() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.liveBackendsLocked()
}

// liveBackendsLocked counts non-removed slots. Callers hold k.mu.
func (k *Kernel) liveBackendsLocked() int {
	n := 0
	for _, bs := range k.backends {
		if bs.state.Load() != slotRemoved {
			n++
		}
	}
	return n
}

// HasBackend reports whether a backend is registered under name.
func (k *Kernel) HasBackend(name string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.byBackend[name]
	return ok
}

// AppBackend returns the name of the backend the app is currently
// placed on ("" for an unknown app, or one not yet placed).
func (k *Kernel) AppBackend(name string) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	ctl := k.byName[name]
	if ctl == nil {
		return ""
	}
	idx := int(ctl.backend.Load())
	if idx < 0 || idx >= len(k.backends) || k.backends[idx].state.Load() == slotRemoved {
		return ""
	}
	return k.backends[idx].name
}

// ManagerStats is a consistent snapshot of backend epoch telemetry,
// safe to take while epochs are running. The kernel-level view
// (Kernel.ManagerStats) merges every backend; BackendStats carries one
// backend's own counters.
type ManagerStats struct {
	Epochs        int
	WorkGFlop     float64
	DeferredGFlop float64
	EnergyJ       float64
	ThermalEvents int
	CapDemotions  int
}

// BackendStats is one backend's stats snapshot plus its placement
// state.
type BackendStats struct {
	// Name is the backend's kernel-assigned name.
	Name string
	// Apps is the number of applications placed on the backend at the
	// last placement refresh.
	Apps int
	// Seq is the backend's epoch sequence number: it advances on every
	// commit this backend runs. Unlike the global kernel epoch counter
	// it is per backend, so stream consumers can tell which backend
	// moved (see the control plane's SSE coalescing).
	Seq int64
	// Health is the backend's failure-domain health (see BackendHealth).
	Health BackendHealth
	// State is the backend's lifecycle state ("active", "draining",
	// "drained"; removed backends do not appear).
	State string
	// LastErr is the most recent failure reason — the captured panic of
	// a Failed backend, the deadline message of a Degraded one. Empty
	// while healthy.
	LastErr string
	ManagerStats
}

// fromStats converts a backend's own snapshot.
func fromStats(s rtrm.Stats) ManagerStats {
	return ManagerStats{
		Epochs:        s.Epochs,
		WorkGFlop:     s.WorkGFlop,
		DeferredGFlop: s.DeferredGFlop,
		EnergyJ:       s.EnergyJ,
		ThermalEvents: s.ThermalEvents,
		CapDemotions:  s.CapDemotions,
	}
}

// ManagerStats snapshots every backend's epoch telemetry and merges
// it, so it is safe to call from any goroutine while the kernel runs.
// Numeric counters sum across backends; Epochs is the number of kernel
// epochs (with one backend this equals the backend's own epoch count;
// with several, backends only run epochs when apps placed on them
// contribute). Each backend is read through its seqlock cell (see
// statsCell), never its commit mutex — a slow or stalled commit holds
// that mutex for as long as it runs, and status reads must not block
// behind it. Removed backends still contribute: the merged cumulative
// sums never step backwards across a RemoveBackend.
func (k *Kernel) ManagerStats() ManagerStats {
	k.mu.Lock()
	bks := k.backends
	k.mu.Unlock()
	var out ManagerStats
	for _, bs := range bks {
		s, _ := bs.cell.snapshot()
		out.WorkGFlop += s.WorkGFlop
		out.DeferredGFlop += s.DeferredGFlop
		out.EnergyJ += s.EnergyJ
		out.ThermalEvents += s.ThermalEvents
		out.CapDemotions += s.CapDemotions
	}
	out.Epochs = int(k.epochs.Load())
	return out
}

// BackendStats snapshots each backend's telemetry in registration
// order, through the same seqlock cells as ManagerStats. Removed
// backends are omitted; live ones carry their health, lifecycle state
// and last failure reason.
func (k *Kernel) BackendStats() []BackendStats {
	k.mu.Lock()
	bks := make([]*backendSlot, 0, len(k.backends))
	out := make([]BackendStats, 0, len(k.backends))
	for _, bs := range k.backends {
		st := bs.state.Load()
		if st == slotRemoved {
			continue
		}
		bks = append(bks, bs)
		out = append(out, BackendStats{
			Name:    bs.name,
			Seq:     bs.seq.Load(),
			Health:  BackendHealth(bs.health.Load()),
			State:   slotStateName(st),
			LastErr: bs.lastErr,
		})
	}
	k.mu.Unlock()
	for i, bs := range bks {
		s, apps := bs.cell.snapshot()
		out[i].Apps = apps
		out[i].ManagerStats = fromStats(s)
	}
	return out
}

// Attach registers an application and returns its Controller (for
// direct metric pushes and adaptation counters). Attaching while the
// kernel is running is allowed: the app is patched into the running
// loops at the next quiescent epoch boundary (watch ServedGeneration to
// observe admission). Its offered work accrues to its name's ledger
// account, which a re-attached name shares with its earlier lifetimes.
func (k *Kernel) Attach(spec AppSpec) (*Controller, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("runtime: attach: %w", ErrEmptyAppName)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.byName[spec.Name] != nil {
		return nil, fmt.Errorf("runtime: attach %q: %w", spec.Name, ErrDuplicateApp)
	}
	ctl := NewController(spec)
	ctl.acct = k.openAccountLocked(spec.Name)
	k.apps = append(k.apps, ctl)
	k.byName[spec.Name] = ctl
	k.membershipChangedLocked()
	return ctl, nil
}

// Detach removes an application by name. Detaching while the kernel is
// running is allowed: the app leaves the loops at the next quiescent
// epoch boundary — after the epoch carrying any batch it already
// submitted has run, so that batch is never dropped. The name's ledger
// account stays, and that batch still lands in it.
func (k *Kernel) Detach(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	gone := k.byName[name]
	if gone == nil {
		return fmt.Errorf("runtime: detach %q: %w", name, ErrUnknownApp)
	}
	// Copy-on-write: snapshots of k.apps taken by RunEpoch and the
	// supervisor stay valid (Attach only appends, which never rewrites
	// elements below a snapshot's length).
	apps := make([]*Controller, 0, len(k.apps)-1)
	for _, ctl := range k.apps {
		if ctl != gone {
			apps = append(apps, ctl)
		}
	}
	k.apps = apps
	delete(k.byName, name)
	k.membershipChangedLocked()
	return nil
}

// SwapPolicy hot-swaps a running app's policy (and optionally its
// knob) without detaching it: observations keep flowing, totals and
// adaptation counters are retained, and the detach-drain guarantee is
// untouched because membership does not change. The swap itself is
// serialized against the app's tick by the controller; the membership
// epoch it bumps is served at the next quiescent epoch boundary, the
// same place attach/detach and placement changes land. Returns the
// previous policy so the caller can release its resources.
func (k *Kernel) SwapPolicy(name string, p Policy, kb Knob) (Policy, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	ctl := k.byName[name]
	if ctl == nil {
		return nil, fmt.Errorf("runtime: swap policy %q: %w", name, ErrUnknownApp)
	}
	old := ctl.SwapPolicy(p, kb)
	k.membershipChangedLocked()
	return old, nil
}

// membershipChangedLocked bumps the membership epoch for the loops to
// patch in at their next round, or the idle supervisor to serve. Only a
// change needing a rebuild rings a paced plane's shards (DESIGN.md, "The
// membership epoch", pacing). Callers hold k.mu.
func (k *Kernel) membershipChangedLocked() {
	k.memGen++
	if k.memChanged != nil {
		close(k.memChanged)
		k.memChanged = nil
	}
	if p := k.pacer.Load(); p != nil && k.rebuildDueLocked(int(k.topoShards.Load())) {
		p.ring()
	}
}

// requestPlacementRefresh bumps the membership epoch with an unchanged
// app set — how a steering policy's migration lands at an epoch
// boundary, exactly like a membership change.
func (k *Kernel) requestPlacementRefresh() {
	k.mu.Lock()
	k.membershipChangedLocked()
	k.mu.Unlock()
}

// refreshPlacementLocked recomputes app→backend assignments when the
// membership epoch moved past the last placement. Callers hold k.mu;
// the epoch engine is quiescent (epochViewLocked's callers), so
// assignment writes cannot tear an in-flight epoch.
// The placement policy only ever sees the schedulable backends:
// draining, drained, removed, Degraded and Failed slots are excluded
// from the view, and an app currently on an unschedulable slot appears
// with Current == -1 — forcing the policy (or the clamp) to evacuate
// it. That is the whole evacuation mechanism: a health or lifecycle
// transition bumps the membership epoch, and the patch's refresh
// re-places the affected apps exactly like a live migration. With no
// schedulable backend at all, assignments are left as they are; the
// executor applies the no-healthy-backends policy instead.
func (k *Kernel) refreshPlacementLocked() {
	if k.placeGen == k.memGen {
		return
	}
	k.placeGen = k.memGen
	n := len(k.backends)
	if n == 0 {
		return // nothing to place on yet; apps stay unplaced
	}
	sched := make([]int, 0, n) // schedulable view index → real slot index
	pos := make([]int, n)      // real slot index → view index, -1 if out
	for i := range pos {
		pos[i] = -1
	}
	schedSlots := make([]*backendSlot, 0, n)
	for i, bs := range k.backends {
		if bs.schedulable() {
			pos[i] = len(sched)
			sched = append(sched, i)
			schedSlots = append(schedSlots, bs)
		}
	}
	if len(sched) == 0 {
		return // total outage: keep assignments, let the executor park
	}
	counts := make([]int, n)
	if len(sched) == 1 {
		ri := sched[0]
		for _, ctl := range k.apps {
			ctl.backend.Store(int32(ri))
		}
		counts[ri] = len(k.apps)
	} else {
		apps := make([]AppPlacement, len(k.apps))
		for i, ctl := range k.apps {
			cur := int(ctl.backend.Load())
			viewCur := -1
			if cur >= 0 && cur < n {
				viewCur = pos[cur] // -1 when the current slot left the view
			}
			apps[i] = AppPlacement{Name: ctl.Name(), Hint: ctl.spec.Backend, Current: viewCur}
		}
		placed := k.placement.Place(apps, k.backendLoads(schedSlots))
		for i, ctl := range k.apps {
			vi := -1
			if i < len(placed) {
				vi = placed[i]
			}
			ri := sched[clampBackend(vi, apps[i].Current, len(sched))]
			ctl.backend.Store(int32(ri))
			counts[ri]++
		}
	}
	k.loadMu.Lock()
	for i, bs := range k.backends {
		bs.apps = counts[i]
	}
	k.loadMu.Unlock()
	for i, bs := range k.backends {
		bs.cell.publishApps(counts[i])
	}
}

// backendLoads snapshots the placement view of bks into the kernel's
// reused scratch. Callers are the serialized epoch engine and the
// placement refresh (which runs only while the engine is quiescent),
// so the scratch needs no lock of its own.
func (k *Kernel) backendLoads(bks []*backendSlot) []BackendLoad {
	out := k.loadScratch[:0]
	k.loadMu.Lock()
	for _, bs := range bks {
		out = append(out, BackendLoad{
			Name:         bs.name,
			Apps:         bs.apps,
			OfferedGFlop: bs.offered,
			DeferredFrac: bs.deferredEWMA,
		})
	}
	k.loadMu.Unlock()
	k.loadScratch = out
	return out
}

// EpochSignal subscribes to changes of kernel state. The returned
// channel receives a coalesced wakeup (buffered one deep — a slow
// consumer sees one pending signal, not a backlog) after every:
//   - kernel epoch;
//   - membership patch, and every generation the supervisor starts
//     serving (ServedGeneration moved);
//   - backend health or lifecycle transition (see BackendEvents);
//   - AddBackend;
//   - deadline-abandoned commit that finally lands, so a late backend
//     finishing after the global epoch counter already moved still
//     wakes subscribers;
//   - Stop, once the loops are gone.
//
// A consumer re-reads the state it waits on after each wake; subscribing
// before the first read means no change is missed. Parked epoch batches
// and backend drains wait on it too. cancel releases the subscription.
// With no subscribers a ring costs a single atomic load. Consumers that
// must distinguish which backend moved key on BackendStats.Seq rather
// than the global epoch counter.
func (k *Kernel) EpochSignal() (ch <-chan struct{}, cancel func()) {
	c := make(chan struct{}, 1)
	k.notifyMu.Lock()
	if k.notify == nil {
		k.notify = make(map[chan struct{}]struct{})
	}
	k.notify[c] = struct{}{}
	k.notifyCount.Store(int32(len(k.notify)))
	k.notifyMu.Unlock()
	return c, func() {
		k.notifyMu.Lock()
		delete(k.notify, c)
		k.notifyCount.Store(int32(len(k.notify)))
		k.notifyMu.Unlock()
	}
}

// signalEpoch wakes every epoch-signal subscriber (non-blocking).
func (k *Kernel) signalEpoch() {
	if k.notifyCount.Load() == 0 {
		return
	}
	k.notifyMu.Lock()
	for c := range k.notify {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	k.notifyMu.Unlock()
}

// Apps returns the attached controllers in attach order.
func (k *Kernel) Apps() []*Controller {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*Controller(nil), k.apps...)
}

// App returns the controller attached under name, or nil.
func (k *Kernel) App(name string) *Controller {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.byName[name]
}

// Running reports whether the concurrent loops are active.
func (k *Kernel) Running() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.running
}

// Generation returns the membership epoch: the number of Attach/Detach
// calls accepted so far. It advances immediately on a membership
// change, before the concurrent loops have patched in the new set.
func (k *Kernel) Generation() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.memGen
}

// ServedGeneration returns the membership epoch the concurrent loops
// are currently serving. After an Attach or Detach while running,
// ServedGeneration catching up to Generation means the change has taken
// effect at an epoch boundary. Zero before the first Start; stale after
// Stop.
func (k *Kernel) ServedGeneration() int64 { return k.servedGen.Load() }

// Epochs returns the number of manager epochs run so far.
func (k *Kernel) Epochs() int64 { return k.epochs.Load() }

// NumApps returns the current number of attached applications without
// copying the controller slice.
func (k *Kernel) NumApps() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.apps)
}

// Err returns the first workload error observed by the concurrent
// loops since the last Start (nil if none). Synchronous RunEpoch
// returns errors directly instead.
func (k *Kernel) Err() error {
	k.errMu.Lock()
	defer k.errMu.Unlock()
	return k.err
}

func (k *Kernel) noteErr(err error) {
	k.errMu.Lock()
	if k.err == nil {
		k.err = err
	}
	k.errMu.Unlock()
}

// EpochResult summarizes one kernel epoch.
type EpochResult struct {
	// Epoch is the 1-based epoch sequence number.
	Epoch int64
	// Report is the backends' account of the epoch. With one backend it
	// is that backend's report verbatim; with several it is the merged
	// aggregate — numeric fields summed, while Plan and Cap (per-site
	// concepts with no meaningful merge) stay zero; read Backends for
	// them.
	Report rtrm.EpochReport
	// Backends holds each contributing backend's own report, in
	// registration order. Nil when the kernel has one backend: Report
	// already is its account.
	Backends []BackendEpoch
	// PerApp is the GFlop each contributing app offered this epoch.
	PerApp map[string]float64
}

// BackendEpoch is one backend's share of a kernel epoch.
type BackendEpoch struct {
	// Name is the backend's kernel-assigned name.
	Name string
	// Report is the backend's own account of its epoch.
	Report rtrm.EpochReport
}

// contribution is one app's share of an epoch.
type contribution struct {
	ctl   *Controller
	tasks []*simhpc.Task
}

// execute runs one kernel epoch over the merged contributions. It is
// the single funnel for the synchronous driver, the single-shard
// concurrent loop and the per-generation executor; its callers are
// serialized (see the scratch-field comment). OnEpoch callbacks run
// here: on the caller's goroutine in sync mode, on the kernel's
// epoch-executor goroutine in concurrent mode. The result's PerApp map
// and Backends list are built only when something reads them — the
// synchronous RunEpoch caller or a contributor with OnEpoch — so an
// unobserved concurrent epoch allocates neither.
func (k *Kernel) execute(dt float64, contribs []contribution, returned bool) EpochResult {
	observed := returned
	for _, c := range contribs {
		observed = observed || c.ctl.spec.OnEpoch != nil
	}
	res := k.routeAndCommit(dt, contribs, observed)
	for _, c := range contribs {
		if c.ctl.spec.OnEpoch != nil {
			c.ctl.spec.OnEpoch(res)
		}
	}
	k.signalEpoch()
	return res
}

// routeAndCommit is the epoch itself, one body for any number of
// backends: partition the acceptance batch by each contributing app's
// placed backend, then run every contributing backend's epoch
// (commitAll); backends without contributors do not run. The call is
// the epoch barrier: it waits for every contributing backend — or its
// deadline — before returning. Merging stays outside
// any lock, and the commit locks cover only the backend epochs
// themselves. Afterwards the per-backend load telemetry feeds the
// placement policy, and an EpochObserver policy may request the
// placement refresh that migrates an app.
func (k *Kernel) routeAndCommit(dt float64, contribs []contribution, observed bool) EpochResult {
	// Resolve the fallback target before merging: every contribution
	// whose placed backend is unschedulable (failed, degraded, draining,
	// not yet placed) reroutes here. With no schedulable backend at all
	// the batch parks (awaitSchedulable), and is written off only when
	// the generation ends first — either way the merge below runs first,
	// because the offered totals are accounted per contribution exactly
	// once, always.
	bks := k.epochBackends
	fallback := firstSchedulable(bks)
	if fallback < 0 {
		bks, fallback = k.awaitSchedulable(k.parkCtx)
	}
	sole := len(bks) == 1
	// PerApp escapes to OnEpoch observers and RunEpoch callers, who may
	// hold it across epochs, so it cannot come from scratch; with no
	// observer it is not built at all.
	var perApp map[string]float64
	if observed {
		perApp = make(map[string]float64, len(contribs))
	}
	for _, bs := range bks {
		// A held slot's buffer is its abandoned commit's (commitAll): keep
		// it, and route nothing there this epoch even if the slot heals.
		bs.held = bs.commitState.Load() != commitIdle
		if !bs.held {
			clear(bs.tasks)
			bs.tasks = bs.tasks[:0]
		}
		bs.active = false
		bs.committed = false
	}
	for _, c := range contribs {
		sum := 0.0
		for _, t := range c.tasks {
			sum += t.GFlop
		}
		if observed {
			perApp[c.ctl.Name()] += sum // every contributor appears, even with zero work
		}
		c.ctl.acct.add(sum)
		if fallback < 0 {
			continue // write-off epoch: account, don't route
		}
		idx := int(c.ctl.backend.Load())
		if idx < 0 || idx >= len(bks) || bks[idx].held || !bks[idx].schedulable() {
			idx = fallback // unplaced, held or unhealthy target: reroute
		}
		bs := bks[idx]
		bs.active = true
		bs.tasks = append(bs.tasks, c.tasks...)
	}
	if fallback < 0 {
		k.writeOff(contribs)
		return EpochResult{Epoch: k.epochs.Add(1), PerApp: perApp}
	}
	if sole {
		// A sole backend commits even an epoch nobody contributed to:
		// its simulated time and thermals still step.
		bks[0].active = true
	}
	nActive := 0
	for _, bs := range bks {
		if bs.active {
			nActive++
		}
	}
	k.commitAll(bks, dt, nActive, sole)

	res := EpochResult{Epoch: k.epochs.Add(1), PerApp: perApp}
	if observed && !sole && nActive > 0 {
		res.Backends = make([]BackendEpoch, 0, nActive)
	}
	// Aggregate the reports and refresh the per-backend load telemetry
	// placement decisions read. A panicked or abandoned commit has no
	// report: the offered totals above stand regardless — the ledger
	// records what apps offered (chaos exactness depends on it); what
	// actually ran is the manager's own telemetry.
	k.loadMu.Lock()
	for _, bs := range bks {
		if !bs.active || !bs.committed {
			continue
		}
		if sole {
			// One backend: its report verbatim (Plan and Cap have no
			// merge) and Backends nil — the documented EpochResult shape.
			res.Report = bs.report
		} else {
			res.Report.EnergyJ += bs.report.EnergyJ
			res.Report.DoneGFlop += bs.report.DoneGFlop
			res.Report.DeferredGFlop += bs.report.DeferredGFlop
			res.Report.HotNodes += bs.report.HotNodes
			if observed {
				res.Backends = append(res.Backends, BackendEpoch{Name: bs.name, Report: bs.report})
			}
		}
		offered := bs.report.DoneGFlop + bs.report.DeferredGFlop
		bs.offered = offered
		frac := 0.0
		if offered > 0 {
			frac = bs.report.DeferredGFlop / offered
		}
		bs.deferredEWMA += deferredEWMAAlpha * (frac - bs.deferredEWMA)
	}
	k.loadMu.Unlock()

	if obs := k.epochObserver; obs != nil {
		if obs.ObserveEpoch(k.backendLoads(bks)) {
			k.requestPlacementRefresh()
		}
	}
	return res
}

// executor drains merged epochs off the scheduler, keeping the manager
// busy while the scheduler collects and releases the next round of
// batches. The handoff channel is unbuffered, so a send completing
// proves the executor is done reading the previous epoch's
// contribution buffer (the epoch ran) and it is free for reuse — the
// scheduler double-buffers on that guarantee. A receive from idle
// completes only between epochs (the patch boundary waits on it).
func (k *Kernel) executor(execCh <-chan []contribution, idle chan<- struct{}, dt float64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case contribs, ok := <-execCh:
			if !ok {
				return
			}
			k.execute(dt, contribs, false)
		case idle <- struct{}{}:
		}
	}
}

// RunEpoch synchronously runs one adaptation epoch across every
// attached application: tick each controller and materialize its
// workload, in attach order on the caller's goroutine, then run the
// backends over the merged task list. Safe for concurrent use (calls
// serialize fully), so no two callbacks ever run at once; but mutually
// exclusive with the concurrent mode: it errors while Start's loops are
// running.
//
// On a workload error the epoch is abandoned at the failing app: apps
// after it are not ticked this epoch, and no backend epoch runs. With
// every backend down the epoch parks until a ReviveBackend heals one or
// an AddBackend brings a healthy one.
func (k *Kernel) RunEpoch(dt float64) (EpochResult, error) {
	k.syncMu.Lock()
	defer k.syncMu.Unlock()
	k.mu.Lock()
	if k.running {
		k.mu.Unlock()
		return EpochResult{}, fmt.Errorf("runtime: RunEpoch: %w", ErrRunning)
	}
	if len(k.backends) == 0 {
		k.mu.Unlock()
		return EpochResult{}, fmt.Errorf("runtime: RunEpoch: %w", ErrNoBackends)
	}
	k.epochViewLocked()
	// Safe to share the slice headers: Attach/AddBackend only append,
	// and Detach replaces the app slice (copy-on-write) instead of
	// rewriting elements.
	apps := k.apps
	// Sync parks (no healthy backends) have no generation context to
	// watch — they wait for a revive or an AddBackend alone.
	k.parkCtx = nil
	k.mu.Unlock()

	contribs := k.syncContribs[:0]
	for _, ctl := range apps {
		tasks, err, live := k.tickApp(ctl)
		if err != nil {
			return EpochResult{}, fmt.Errorf("runtime: %s: %w", ctl.Name(), err)
		}
		if live { // a quarantined app contributes nothing
			contribs = append(contribs, contribution{ctl: ctl, tasks: tasks})
		}
	}
	// Clear the tail past this epoch's contributions so stale ones are
	// not pinned in the reused scratch.
	clear(contribs[len(contribs):cap(contribs)])
	k.syncContribs = contribs
	return k.execute(dt, contribs, true), nil
}

// workload materializes the controller's epoch tasks (nil Workload → no
// tasks).
func (c *Controller) workload() ([]*simhpc.Task, error) {
	if c.spec.Workload == nil {
		return nil, nil
	}
	return c.spec.Workload()
}

// Options configures the concurrent driving mode.
type Options struct {
	// EpochDt is the simulated seconds each manager epoch covers
	// (default 60).
	EpochDt float64
	// Interval paces each application loop between epochs (default 0:
	// back-to-back, throttled only by the epoch barrier). It is the
	// kernel's maximum staleness, not its reaction latency: Nudge starts
	// the next epoch at once, up to a small burst of early epochs and one
	// per interval after that.
	Interval time.Duration
	// Flush bounds how long the scheduler waits for straggler apps
	// before running an epoch with the batches at hand (default 100ms).
	Flush time.Duration
}

func (o Options) withDefaults() Options {
	if o.EpochDt <= 0 {
		o.EpochDt = 60
	}
	if o.Flush <= 0 {
		o.Flush = 100 * time.Millisecond
	}
	return o
}

// shard is one loop worker's slice of the attached applications. The
// concurrent mode keeps one goroutine per app only while nApps ≤
// 2·GOMAXPROCS; past that it collapses to GOMAXPROCS shard loops. At
// 64+ apps the per-app model spends its time waking 2 goroutines per
// app per epoch (most of them landing on idle Ps), while a shard wakes
// once, ticks its apps back-to-back and submits one combined batch —
// the event-driven-core shape of the non-threaded CCP argument, with
// wakeups per epoch dropping from O(apps) to O(cores).
type shard struct {
	apps     []*Controller
	contribs []contribution // this epoch's batch, reused every round

	// Wake state (wake.go). submitted counts batches handed to the
	// scheduler (loop-local); accepted is the scheduler-published
	// merge counter the shard spins-then-parks on;
	// parked + park are the futex-style park/unpark pair (park buffered
	// 1, allocation-free in steady state); next is the intrusive submit
	// stack link. Acceptance is published before the manager epoch
	// runs, so the shard's next round of ticks overlaps it — epoch
	// results reach apps through OnEpoch instead.
	submitted int64
	accepted  atomic.Int64
	parked    atomic.Bool
	park      chan struct{}
	next      *shard

	// Paced generations only (pacer.go): the early-wake doorbell and the
	// loop's reused pacing timer.
	bell  chan struct{}
	timer *time.Timer
}

// tick runs one round of the shard's control loops — tick each app,
// materialize its epoch workload — leaving the batch in sh.contribs.
func (sh *shard) tick(k *Kernel) {
	sh.contribs = sh.contribs[:0]
	for _, ctl := range sh.apps {
		tasks, err, live := k.tickApp(ctl)
		if err != nil {
			k.noteErr(fmt.Errorf("runtime: %s: %w", ctl.Name(), err))
			tasks = nil
		}
		if !live {
			continue // quarantined by a panic: contributes nothing
		}
		sh.contribs = append(sh.contribs, contribution{ctl: ctl, tasks: tasks})
	}
}

// Start launches the concurrent kernel: a supervisor goroutine that
// serves the attached app set one loop topology (generation) at a time
// — sharded control-loop workers, the batched epoch scheduler and the
// epoch executor — patching membership changes into it and rebuilding
// it only when the loop count must change. Starting with zero
// apps is allowed: the supervisor idles until the first Attach. Start
// returns immediately; the loops run until ctx is cancelled or Stop is
// called. Call Stop even after an external ctx cancellation — it reaps
// the goroutines and returns the kernel to the restartable state
// (until then Start and RunEpoch keep erroring).
//
// Apps sharing a shard share a loop goroutine, so one app's stalled
// Workload delays its shard-mates' next batch; the scheduler's Flush
// bound keeps running epochs for the OTHER shards' apps. With nApps ≤
// 2·GOMAXPROCS every app keeps its own goroutine and stall isolation
// is per app, as in PR 1; in the single-worker degenerate case there
// are no other loops, so a blocked Workload blocks all epochs until
// it returns — callers with blocking workloads on single-core hosts
// should keep them non-blocking or bound them themselves. A membership
// change also waits for in-flight Workload calls to return before it is
// patched in (the boundary needs every loop quiescent), so a stalled
// workload delays admission of newly attached apps.
//
// Start waits out an in-flight RunEpoch (the modes share the epoch
// scratch), so a synchronous epoch parked in an outage delays it.
func (k *Kernel) Start(ctx context.Context, opts Options) error {
	opts = opts.withDefaults()
	k.syncMu.Lock() // same order as RunEpoch and completeDrain: syncMu, then mu
	defer k.syncMu.Unlock()
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.running {
		return fmt.Errorf("runtime: start: %w", ErrRunning)
	}
	if len(k.backends) == 0 {
		return fmt.Errorf("runtime: start: %w", ErrNoBackends)
	}
	k.errMu.Lock()
	k.err = nil // previous runs' workload errors do not outlive a restart
	k.errMu.Unlock()
	k.rebuilds.Store(0)
	ctx, cancel := context.WithCancel(ctx)
	k.cancel = cancel
	k.running = true
	k.wg.Add(1)
	go k.supervise(ctx, opts)
	return nil
}

// supervise is the generation loop: snapshot membership (the previous
// generation has quiesced), build a loop topology and serve it until it
// must change (or ctx ends), repeat.
func (k *Kernel) supervise(ctx context.Context, opts Options) {
	defer k.wg.Done()
	for built := false; ; {
		k.mu.Lock()
		apps, gen, changed := k.snapshotLocked()
		k.mu.Unlock()
		k.servedGen.Store(gen)
		k.signalEpoch() // an idle generation runs no epoch to ring it
		if ctx.Err() != nil {
			return
		}
		if len(apps) == 0 {
			// Nothing to serve yet: idle until the first Attach.
			select {
			case <-ctx.Done():
				return
			case <-changed:
				continue
			}
		}
		if built {
			k.rebuilds.Add(1)
		}
		built = true
		k.serveGeneration(ctx, changed, apps, opts)
		if ctx.Err() != nil {
			return
		}
	}
}

// serveGeneration builds the loop topology for apps and runs the
// concurrent epoch machinery on it until a loop finds a change the
// topology cannot absorb (patch) or ctx ends, then winds it down: loops
// park at their next ctx check, the scheduler drains every
// already-submitted batch into a final epoch (no accepted work is
// dropped — the detach-drain guarantee), and the executor finishes.
// Only after the generation is fully quiesced does the supervisor move
// on, so generations never overlap and the epoch scratch buffers stay
// single-writer.
func (k *Kernel) serveGeneration(ctx context.Context, changed <-chan struct{}, apps []*Controller, opts Options) {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Parked epoch batches (no healthy backends) unpark only when the
	// generation ends. Safe plain write: the previous one quiesced.
	k.parkCtx = gctx

	// Per-app loops while they are affordable (strongest straggler
	// isolation); collapse to one shard per core once the app count
	// would make per-app wakeups the epoch's critical path. The
	// GOMAXPROCS read is per generation, and the loops watch for drift
	// (maybeReshape), so a live GOMAXPROCS change re-shapes the
	// topology at the next boundary instead of serving it stale.
	gmp := goruntime.GOMAXPROCS(0)
	t := &topology{shards: make([]*shard, loopShards(len(apps), gmp)), changed: changed, cancel: cancel}
	k.topoGMP.Store(int32(gmp))
	k.topoShards.Store(int32(len(t.shards)))
	k.topoDrift.Store(false)
	for i := range t.shards {
		t.shards[i] = &shard{park: make(chan struct{}, 1)}
	}
	dealApps(t.shards, apps)
	if opts.Interval > 0 {
		k.pacer.Store(newPacer(opts.Interval, t.shards))
		defer k.pacer.Store(nil)
	}

	// Count every loop first: an early Stop sends the scheduler to Wait.
	var loopsWG, genWG sync.WaitGroup
	loopsWG.Add(len(t.shards))
	if len(t.shards) == 1 {
		// One worker covers every app (single-core host, or a single
		// app): kept apart from the sharded topology by measurement —
		// see singleLoop.
		go k.singleLoop(gctx, t, opts, &loopsWG)
	} else {
		hub := newWakeHub()
		genWG.Add(1)
		go k.scheduler(gctx, opts, t, len(apps), hub, &loopsWG, &genWG)
		for _, sh := range t.shards {
			go k.shardLoop(gctx, sh, opts, hub, &loopsWG)
		}
	}

	<-gctx.Done()
	loopsWG.Wait()
	genWG.Wait()
}

// singleLoop is the concurrent mode for one shard: tick, materialize,
// execute, repeat on one goroutine. It is shardLoop + scheduler +
// executor with the hand-offs removed, and stays because they measure:
// at GOMAXPROCS=1, K2 apps=1 runs 8.0 µs/epoch here against 9.4 µs
// through the sharded machinery, faster in 17 of 20 alternating pairs
// (EXPERIMENTS.md, "singleLoop vs one shardLoop (PR 22)"). Its first
// round, like shardLoop's, runs even in a generation winding down.
func (k *Kernel) singleLoop(ctx context.Context, t *topology, opts Options, wg *sync.WaitGroup) {
	defer wg.Done()
	sh := t.shards[0]
	for rounds := 0; ; rounds++ {
		if rounds&63 == 63 {
			// A live GOMAXPROCS raise deserves real shard loops; rebuild
			// the topology when it has gone stale.
			k.maybeReshape()
		}
		sh.tick(k)
		k.execute(opts.EpochDt, sh.contribs, false)
		if t.changePending() {
			if _, ok := k.patch(t); !ok {
				return
			}
		}
		if opts.Interval > 0 {
			sh.pause(ctx, opts.Interval)
		} else {
			// Unpaced epochs on a single P would otherwise starve the
			// telemetry producers until async preemption kicks in; the
			// epoch boundary is the fair point to let them run.
			goruntime.Gosched()
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// Stop cancels the concurrent loops and waits for them to exit. The
// kernel can be restarted (or driven synchronously) afterwards.
func (k *Kernel) Stop() {
	k.mu.Lock()
	cancel := k.cancel
	k.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	k.wg.Wait()
	k.mu.Lock()
	k.cancel = nil
	k.running = false
	k.memChanged = nil // the supervisor that armed it is gone
	k.mu.Unlock()
	k.signalEpoch() // a drain waiting for a served generation lands itself
}

// shardLoop drives the control loops of one shard of applications:
// tick each app, materialize its epoch workload, submit the combined
// batch to the scheduler, wait for it to be merged into an epoch,
// repeat. Because acceptance is signalled before the manager epoch
// runs, the shard's next round of ticks overlaps it. (Ticking ahead of
// acceptance was tried and measured slower: with the epoch barrier the
// slowest shard sets the pace, and eager next-round ticks steal cores
// from the current round's stragglers.) The first round runs even in a
// generation already winding down: every generation ticks every app.
func (k *Kernel) shardLoop(ctx context.Context, sh *shard, opts Options, hub *wakeHub, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		sh.tick(k)
		// The submission never blocks — it is a lock-free push — even
		// during generation wind-down, which is what guarantees a parked
		// shard's last batch is still queued for the scheduler's drain
		// pass. A shard never has two batches in flight.
		k.submitShard(hub, sh)
		if !k.waitAccepted(ctx, sh) {
			return
		}
		if opts.Interval > 0 {
			sh.pause(ctx, opts.Interval)
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// scheduler batches app submissions into manager epochs: it runs an
// epoch as soon as every live app has contributed, or when Flush
// expires with a partial batch (stragglers then catch the next epoch).
//
// Flushing is pipelined two deep. Contributors are released the moment
// their batches are merged into the epoch's contribution list, so
// every released app loop ticks, collects telemetry and materializes
// its next workload while the manager is still executing the epoch
// they just joined. The manager itself runs on the executor goroutine:
// the scheduler hands a merged epoch over and immediately goes back to
// collecting, so releasing N apps and running the manager overlap too.
// The unbuffered handoff is the depth bound — a second merged epoch
// blocks until the first finishes, which also guarantees the epoch's
// double-buffered contribution slices are never written while read.
//
// A full batch while a membership change is pending is the patch
// boundary (patch.go). While a change waits, Flush expiry cuts no
// partial batch, so stragglers cannot starve the patch.
//
// On wind-down (ctx cancelled — a topology change or Stop) the
// scheduler waits for the shard loops to park, drains any batches
// still queued on the submit stack, and executes one final epoch over
// them, so work an app already handed over is never dropped.
func (k *Kernel) scheduler(ctx context.Context, opts Options, t *topology, nApps int, hub *wakeHub, loopsWG, wg *sync.WaitGroup) {
	defer wg.Done()
	// An epoch can never contain two batches from one shard: each shard
	// loop waits for its acceptance — published only at flush — before
	// submitting again.
	var pending []*shard
	pendingApps := 0
	execCh, execIdle := make(chan []contribution), make(chan struct{})
	wg.Add(1)
	go k.executor(execCh, execIdle, opts.EpochDt, wg)
	defer close(execCh)
	// Two merge buffers: while the executor reads one, the scheduler
	// merges the next epoch into the other.
	var buffers [2][]contribution
	cur := 0
	flushes := 0
	timer := time.NewTimer(opts.Flush)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	armed := false

	disarm := func() {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
	}
	// take adds one shard's batch to the pending epoch.
	take := func(sh *shard) {
		pending = append(pending, sh)
		pendingApps += len(sh.apps)
	}
	// drainStack empties the submit list (one swap takes
	// every queued shard — later pushers piggyback on one doorbell).
	drainStack := func() {
		for sh := hub.stack.popAll(); sh != nil; {
			next := sh.next
			take(sh)
			sh = next
		}
	}
	// flush merges the pending batches, releases their shards (after the
	// patch at a boundary, before the handoff otherwise) and hands the
	// epoch to the executor. The send is unconditional: the executor
	// consumes until execCh closes and never blocks on anything but the
	// manager epoch itself, so the send waits at most one epoch — and an
	// accepted batch is executed even when ctx is already cancelled.
	flush := func() {
		contribs := buffers[cur][:0]
		for _, sh := range pending {
			contribs = append(contribs, sh.contribs...)
		}
		clear(contribs[len(contribs):cap(contribs)]) // no stale task pointers in the tail
		buffers[cur] = contribs
		cur = 1 - cur
		boundary := pendingApps >= nApps && ctx.Err() == nil && t.changePending()
		if !boundary {
			k.releaseShards(pending)
		}
		disarm()
		if flushes++; flushes&63 == 0 {
			k.maybeReshape() // cheap periodic GOMAXPROCS drift check
		}
		execCh <- contribs
		if boundary {
			<-execIdle // the epoch has run; every shard is still parked
			if n, ok := k.patch(t); ok {
				nApps = n
				k.releaseShards(pending)
			}
		}
		clear(pending)
		pending = pending[:0]
		pendingApps = 0
	}
	// drain is the wind-down path: once the shard loops have parked,
	// whatever they already submitted (received or still queued) joins
	// one final epoch.
	drain := func() {
		loopsWG.Wait()
		drainStack()
		if len(pending) > 0 {
			flush()
		}
	}
	defer drain()

	for {
		select {
		case <-ctx.Done():
			return
		case <-hub.sig:
			drainStack()
		case <-timer.C:
			armed = false
			k.maybeReshape() // paced loops flush by timer; check here too
			if len(pending) > 0 && !t.changePending() {
				flush()
			}
			continue
		}
		if pendingApps >= nApps {
			flush()
		} else if len(pending) > 0 && !armed {
			timer.Reset(opts.Flush)
			armed = true
		}
	}
}
