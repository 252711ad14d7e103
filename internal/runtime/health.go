package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// This file is the backend failure domain: per-backend health driven by
// panic recovery and commit deadlines, drain/remove lifecycle with
// evacuation at patch boundaries, and the park the executor enters when
// every slot is out. The design follows the non-threaded CCP argument
// the rest of the kernel is built on — failures are detected event-driven on the epoch path itself
// (a recover around the commit, a deadline on its wait), never by
// background health-checker threads.

// Failure-domain errors, wrapped with context; match with errors.Is.
// The HTTP control plane maps them onto statuses (ErrUnknownBackend →
// 404, ErrBackendDraining and ErrLastBackend → 409).
var (
	// ErrUnknownBackend: a lifecycle call names no registered backend
	// (removed backends forget their name — it is reusable).
	ErrUnknownBackend = errors.New("unknown backend")
	// ErrBackendDraining: a drain or remove raced an in-progress drain
	// of the same backend.
	ErrBackendDraining = errors.New("backend is draining")
	// ErrLastBackend: draining the backend would leave the kernel with
	// no schedulable slot to evacuate onto.
	ErrLastBackend = errors.New("cannot drain the last schedulable backend")
	// ErrNoHealthyBackends: an epoch batch was written off because no
	// backend could take it (Stop ended a generation parked in a total
	// outage).
	ErrNoHealthyBackends = errors.New("no healthy backends")
)

// BackendHealth is a backend slot's health state.
type BackendHealth int32

const (
	// BackendHealthy: the backend commits epochs normally.
	BackendHealthy BackendHealth = iota
	// BackendDegraded: a commit overran the kernel's BackendTimeout.
	// The slot's batches are rerouted and its apps evacuate; the stalled
	// commit keeps running, and its eventual completion heals the slot.
	BackendDegraded
	// BackendFailed: the backend panicked inside a commit. The slot
	// takes no further work until ReviveBackend.
	BackendFailed
)

// String returns the wire-friendly health name.
func (h BackendHealth) String() string {
	switch h {
	case BackendHealthy:
		return "healthy"
	case BackendDegraded:
		return "degraded"
	case BackendFailed:
		return "failed"
	}
	return fmt.Sprintf("BackendHealth(%d)", int32(h))
}

// Slot lifecycle states. Slots are tombstoned, never compacted:
// controllers hold backend indices, so indices must stay stable across
// removals. Writes happen under k.mu; the executor reads the atomic.
const (
	slotActive int32 = iota
	slotDraining
	slotDrained
	slotRemoved
)

// slotStateName returns the wire-friendly lifecycle name.
func slotStateName(s int32) string {
	switch s {
	case slotActive:
		return "active"
	case slotDraining:
		return "draining"
	case slotDrained:
		return "drained"
	case slotRemoved:
		return "removed"
	}
	return fmt.Sprintf("state(%d)", s)
}

// schedulable reports whether the slot may take new epoch work: live in
// the lifecycle and healthy. The executor calls it per contribution, so
// it is two atomic loads.
func (bs *backendSlot) schedulable() bool {
	return bs.state.Load() == slotActive && bs.health.Load() == int32(BackendHealthy)
}

// firstSchedulable returns the index of the first schedulable slot in
// bks, or -1.
func firstSchedulable(bks []*backendSlot) int {
	for i, bs := range bks {
		if bs.schedulable() {
			return i
		}
	}
	return -1
}

// SetBackendTimeout arms the per-commit deadline: a backend epoch
// running longer than d marks the slot Degraded, reroutes its batches and
// evacuates its apps, while the stalled commit finishes on its own
// goroutine (healing the slot when it completes). Zero (the default)
// disables the deadline: the epoch waits for every commit however long
// it takes. A kernel with one backend never applies it — its commits
// stay on the epoch goroutine (see commitAll). Applies to multi-backend
// epochs from the next commit on.
func (k *Kernel) SetBackendTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k.backendTimeout.Store(int64(d))
}

// BackendTimeout returns the configured commit deadline (0 = disabled).
func (k *Kernel) BackendTimeout() time.Duration {
	return time.Duration(k.backendTimeout.Load())
}

// BackendEvent is one backend state transition (health change or
// lifecycle move), delivered to BackendEvents subscribers.
type BackendEvent struct {
	// Backend is the backend's kernel-assigned name.
	Backend string
	// Health is the slot's health after the transition.
	Health BackendHealth
	// State is the slot's lifecycle state after the transition
	// ("active", "draining", "drained", "removed").
	State string
	// Reason describes what moved the slot (panic message, deadline,
	// "drain requested", "revived", ...).
	Reason string
}

// BackendEvents subscribes to backend state transitions: health moves
// (panic → failed, stall → degraded, completion/revive → healthy) and
// lifecycle moves (draining, drained, removed). Delivery is
// non-blocking on a buffered channel — a slow consumer loses old
// events, not the kernel's time; consumers needing exact current state
// re-read BackendStats on wake. cancel releases the subscription.
func (k *Kernel) BackendEvents() (ch <-chan BackendEvent, cancel func()) {
	c := make(chan BackendEvent, 16)
	k.eventMu.Lock()
	if k.events == nil {
		k.events = make(map[chan BackendEvent]struct{})
	}
	k.events[c] = struct{}{}
	k.eventCount.Store(int32(len(k.events)))
	k.eventMu.Unlock()
	return c, func() {
		k.eventMu.Lock()
		delete(k.events, c)
		k.eventCount.Store(int32(len(k.events)))
		k.eventMu.Unlock()
	}
}

// emitBackendEvent publishes a transition to subscribers and nudges the
// epoch-signal subscribers (the SSE stream re-reads health on wake).
func (k *Kernel) emitBackendEvent(bs *backendSlot, reason string) {
	if k.eventCount.Load() > 0 {
		ev := BackendEvent{
			Backend: bs.name,
			Health:  BackendHealth(bs.health.Load()),
			State:   slotStateName(bs.state.Load()),
			Reason:  reason,
		}
		k.eventMu.Lock()
		for c := range k.events {
			select {
			case c <- ev:
			default:
			}
		}
		k.eventMu.Unlock()
	}
	k.signalEpoch()
}

// setBackendHealth moves a slot's health under k.mu, records the
// reason, and — when the slot is live — bumps the membership epoch so
// the patch's placement refresh evacuates (or, on heal, re-admits) its
// apps at the next epoch boundary.
func (k *Kernel) setBackendHealth(bs *backendSlot, h BackendHealth, reason string) {
	k.mu.Lock()
	if BackendHealth(bs.health.Load()) == h {
		k.mu.Unlock()
		return
	}
	bs.health.Store(int32(h))
	bs.lastErr = reason
	if bs.state.Load() == slotActive {
		k.membershipChangedLocked()
	}
	k.mu.Unlock()
	k.emitBackendEvent(bs, reason)
}

// healStalledBackend clears a Degraded slot when its abandoned commit
// finally lands. A slot that failed (panicked) or left the active state
// while stalled stays where the stronger transition put it.
func (k *Kernel) healStalledBackend(bs *backendSlot) {
	k.mu.Lock()
	if BackendHealth(bs.health.Load()) != BackendDegraded {
		k.mu.Unlock()
		return
	}
	bs.health.Store(int32(BackendHealthy))
	bs.lastErr = ""
	if bs.state.Load() == slotActive {
		k.membershipChangedLocked()
	}
	k.mu.Unlock()
	k.emitBackendEvent(bs, "stalled commit completed")
}

// degradeStalledBackend marks a slot Degraded when the epoch abandons
// its commit: only a Healthy slot (a failed one keeps its panic, which
// nothing heals) and only while the commit is still abandoned (one that
// landed has already run its heal, which nothing would run again).
func (k *Kernel) degradeStalledBackend(bs *backendSlot, reason string) {
	k.mu.Lock()
	if BackendHealth(bs.health.Load()) != BackendHealthy || bs.commitState.Load() != commitAbandoned {
		k.mu.Unlock()
		return
	}
	bs.health.Store(int32(BackendDegraded))
	bs.lastErr = reason
	if bs.state.Load() == slotActive {
		k.membershipChangedLocked()
	}
	k.mu.Unlock()
	k.emitBackendEvent(bs, reason)
}

// ReviveBackend clears a Failed or Degraded backend back to Healthy —
// the operator's (or chaos harness's) resurrection hook. It refuses
// while a commit is still in flight on the slot (an abandoned stall has
// not returned yet: reviving under it would let a new commit pile onto
// the stuck one) and on non-active slots. Reviving a healthy backend is
// a no-op.
func (k *Kernel) ReviveBackend(name string) error {
	k.mu.Lock()
	idx, ok := k.byBackend[name]
	if !ok {
		k.mu.Unlock()
		return fmt.Errorf("runtime: revive %q: %w", name, ErrUnknownBackend)
	}
	bs := k.backends[idx]
	if st := bs.state.Load(); st != slotActive {
		k.mu.Unlock()
		return fmt.Errorf("runtime: revive %q: backend is %s", name, slotStateName(st))
	}
	if bs.health.Load() == int32(BackendHealthy) {
		k.mu.Unlock()
		return nil
	}
	if bs.commitState.Load() != commitIdle {
		k.mu.Unlock()
		return fmt.Errorf("runtime: revive %q: a commit is still in flight", name)
	}
	bs.health.Store(int32(BackendHealthy))
	bs.lastErr = ""
	k.membershipChangedLocked()
	k.mu.Unlock()
	k.emitBackendEvent(bs, "revived")
	return nil
}

// BackendState reports a backend's lifecycle state and health ("", 0,
// false for unknown or removed names).
func (k *Kernel) BackendState(name string) (state string, health BackendHealth, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	idx, found := k.byBackend[name]
	if !found {
		return "", 0, false
	}
	bs := k.backends[idx]
	return slotStateName(bs.state.Load()), BackendHealth(bs.health.Load()), true
}

// HealthyBackends counts the currently schedulable backends — what
// /healthz reports to distinguish a degraded plane from a dead one.
func (k *Kernel) HealthyBackends() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, bs := range k.backends {
		if bs.schedulable() {
			n++
		}
	}
	return n
}

// DrainBackend evacuates every app placed on the named backend onto the
// remaining schedulable slots and retires the slot. The evacuation is
// the same epoch-boundary placement move live migration uses: the
// drain bumps the membership epoch, and the patch at the next
// quiescent boundary re-places the apps (their assignments stop
// resolving to the draining slot) after every in-flight batch has
// run — zero observation loss, no work on two backends at once.
// Blocks until the evacuation has landed and any abandoned commit on
// the slot has returned. Idempotent once drained;
// a concurrent drain of the same backend gets ErrBackendDraining, and
// draining the last schedulable backend is refused (ErrLastBackend).
func (k *Kernel) DrainBackend(name string) error {
	bs, gen, done, err := k.admitDrain(name)
	if err != nil || done {
		return err
	}
	k.completeDrain(bs, gen)
	return nil
}

// RemoveBackend is DrainBackend plus deletion: after the drain the
// slot leaves listings and telemetry and its name becomes reusable by
// AddBackend. The slot itself is tombstoned, not compacted, so backend
// indices stay stable.
func (k *Kernel) RemoveBackend(name string) error {
	bs, gen, done, err := k.admitDrain(name)
	if err != nil {
		return err
	}
	if !done {
		k.completeDrain(bs, gen)
	}
	k.finalizeRemove(name, bs)
	return nil
}

// RemoveBackendAsync validates the removal synchronously (unknown name,
// concurrent drain, last schedulable backend) and performs the drain in
// the background; the returned channel closes when the backend is gone.
// The control plane's DELETE /v1/backends/{id} is built on it: admission
// errors map to statuses, the drain itself outlives the request.
func (k *Kernel) RemoveBackendAsync(name string) (<-chan struct{}, error) {
	bs, gen, done, err := k.admitDrain(name)
	if err != nil {
		return nil, err
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		if !done {
			k.completeDrain(bs, gen)
		}
		k.finalizeRemove(name, bs)
	}()
	return ch, nil
}

// admitDrain is the drain admission check: resolve the name, refuse
// concurrent drains and last-backend drains, mark the slot draining and
// bump the membership epoch. done=true means the slot was already drained
// (idempotent path). The generation returned is the one whose serving
// proves the evacuation landed.
func (k *Kernel) admitDrain(name string) (bs *backendSlot, gen int64, done bool, err error) {
	k.mu.Lock()
	idx, ok := k.byBackend[name]
	if !ok {
		k.mu.Unlock()
		return nil, 0, false, fmt.Errorf("runtime: drain %q: %w", name, ErrUnknownBackend)
	}
	bs = k.backends[idx]
	switch bs.state.Load() {
	case slotDraining:
		k.mu.Unlock()
		return nil, 0, false, fmt.Errorf("runtime: drain %q: %w", name, ErrBackendDraining)
	case slotDrained, slotRemoved:
		k.mu.Unlock()
		return bs, 0, true, nil
	}
	// The evacuated apps need somewhere to go — and even an app-less
	// kernel keeps one schedulable slot, so Attach always has a home.
	other := false
	for i, b := range k.backends {
		if i != idx && b.schedulable() {
			other = true
			break
		}
	}
	if !other {
		k.mu.Unlock()
		return nil, 0, false, fmt.Errorf("runtime: drain %q: %w", name, ErrLastBackend)
	}
	bs.state.Store(slotDraining)
	k.membershipChangedLocked()
	gen = k.memGen
	k.mu.Unlock()
	k.emitBackendEvent(bs, "drain requested")
	return bs, gen, false, nil
}

// completeDrain waits for the drain's generation to be served (running
// kernel) or lands the placement refresh synchronously (stopped or
// sync-driven kernel), then waits out an abandoned commit on the slot
// and marks it drained. Both waits block on the epoch signal: a patch or
// a new generation rings it once served, Stop once the loops are gone,
// and an abandoned commit once it lands.
func (k *Kernel) completeDrain(bs *backendSlot, gen int64) {
	sig, cancel := k.EpochSignal()
	defer cancel()
	for {
		k.mu.Lock()
		running := k.running
		k.mu.Unlock()
		if !running {
			// No serving loops: serialize against sync epochs and land
			// the evacuation refresh here.
			k.syncMu.Lock()
			k.mu.Lock()
			k.refreshPlacementLocked()
			k.mu.Unlock()
			k.syncMu.Unlock()
			break
		}
		if k.servedGen.Load() >= gen {
			// Served at a quiescent boundary: the new placement (without
			// this slot) is live.
			break
		}
		<-sig
	}
	// An abandoned (stalled) commit may still hold the slot's backend;
	// retire only after it returns.
	for bs.commitState.Load() != commitIdle {
		<-sig
	}
	k.mu.Lock()
	if bs.state.Load() == slotDraining {
		bs.state.Store(slotDrained)
	}
	k.mu.Unlock()
	k.emitBackendEvent(bs, "drained")
}

// finalizeRemove tombstones a drained slot and frees its name.
func (k *Kernel) finalizeRemove(name string, bs *backendSlot) {
	k.mu.Lock()
	if bs.state.Load() == slotRemoved {
		k.mu.Unlock()
		return
	}
	bs.state.Store(slotRemoved)
	if idx, ok := k.byBackend[name]; ok && k.backends[idx] == bs {
		delete(k.byBackend, name)
	}
	k.membershipChangedLocked()
	k.mu.Unlock()
	k.emitBackendEvent(bs, "removed")
}

// commit executes one backend epoch under the backend's commit mutex
// with panic containment: a panicking backend becomes a Failed slot
// with the panic recorded on its stats (and its apps evacuated by the
// health change), never a dead kernel. The stats republish and the
// sequence bump happen only on success, so readers never see a
// panicked epoch's partial state. ok=false means the commit panicked;
// the report is then void.
//
// workers is the commit's core budget (commitWorkers), passed to
// Backend.RunEpoch.
func (k *Kernel) commit(bs *backendSlot, dt float64, tasks []*simhpc.Task, workers int) (rep rtrm.EpochReport, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			k.setBackendHealth(bs, BackendFailed, fmt.Sprintf("backend panic: %v\n%s", r, debug.Stack()))
		}
	}()
	bs.commitMu.Lock()
	defer bs.commitMu.Unlock()
	rep = bs.be.RunEpoch(dt, tasks, workers)
	bs.cell.publishStats(bs.be.Stats())
	bs.seq.Add(1)
	return rep, true
}

// backendSlot.commitState: whoever moves a slot out of running owns its
// commit's outcome — the committer (→idle) replies to the waiting epoch,
// the epoch at its deadline (→abandoned) degrades the slot.
const (
	commitIdle int32 = iota
	commitRunning
	commitAbandoned
)

// commitAll runs every active slot's commit, filling its report and
// committed flag — the one place BackendTimeout is read. A sole backend
// (nowhere to reroute a stalled batch), or a lone commit with no
// deadline, commits on the epoch goroutine; every other commit runs on
// its own goroutine (commitAsync), the epoch waiting on each slot's
// reply against one deadline. A commit still running then is abandoned:
// its slot goes Degraded (evacuating its apps) and the epoch moves on
// without its report (committed=false, as for a panic; the offered
// totals stand either way). The abandoned commit still reads the slot's
// tasks, so routeAndCommit neither resets nor routes to a slot that is
// not idle; such a slot is never schedulable, so never the fallback.
func (k *Kernel) commitAll(bks []*backendSlot, dt float64, nActive int, sole bool) {
	cw := k.commitWorkers(nActive)
	d := time.Duration(k.backendTimeout.Load())
	inline := sole || (nActive == 1 && d <= 0)
	for _, bs := range bks {
		if !bs.active {
			continue
		}
		if inline {
			bs.report, bs.committed = k.commit(bs, dt, bs.tasks, cw)
			continue
		}
		bs.commitState.Store(commitRunning)
		go k.commitAsync(bs, dt, bs.tasks, cw)
	}
	if inline {
		return
	}
	var deadline <-chan time.Time // nil without a timeout: wait for every reply
	if d > 0 {
		if k.commitTimer == nil {
			k.commitTimer = time.NewTimer(d)
		}
		k.commitTimer.Reset(d)
		defer k.commitTimer.Stop()
		deadline = k.commitTimer.C
	}
	expired := false
	for _, bs := range bks {
		if !bs.active {
			continue
		}
		if !expired {
			select {
			case bs.committed = <-bs.reply:
				continue
			case <-deadline:
				expired = true
			}
		}
		if bs.commitState.CompareAndSwap(commitRunning, commitAbandoned) {
			k.degradeStalledBackend(bs, fmt.Sprintf("commit exceeded the %v backend timeout", d))
			continue
		}
		bs.committed = <-bs.reply // the commit landed as the deadline passed
	}
}

// commitAsync is one off-goroutine commit (see commitAll). Abandoned,
// it settles the slot itself: idle first, so the buffer is free before
// the heal can make the slot schedulable, then a wake for late stats.
func (k *Kernel) commitAsync(bs *backendSlot, dt float64, tasks []*simhpc.Task, workers int) {
	rep, ok := k.commit(bs, dt, tasks, workers)
	if bs.commitState.CompareAndSwap(commitRunning, commitIdle) {
		bs.report = rep
		bs.reply <- ok
		return
	}
	bs.commitState.Store(commitIdle)
	if ok {
		k.healStalledBackend(bs)
	}
	k.signalEpoch()
}

// awaitSchedulable resolves the executor's fallback backend when the
// epoch's backend view has no schedulable slot: the batch parks until a
// slot heals, a backend is added or ctx (the serving generation's
// context; nil under the sync driver) ends — with one final look after
// cancellation, so a revive racing the wind-down still lands the batch
// (-1 means none did: the caller writes the batch off). It blocks on the
// epoch signal, which every health transition and AddBackend ring, and
// subscribes before its first look, so no ring is missed. Membership
// changes do not end ctx: they wait for the parked epoch at their patch
// boundary. Each look re-reads the kernel's backend set, so a backend
// added during the outage takes the batch too; the view returned is the
// one to route over (AddBackend only appends, so placed indices stay
// valid).
func (k *Kernel) awaitSchedulable(ctx context.Context) ([]*backendSlot, int) {
	sig, cancel := k.EpochSignal()
	defer cancel()
	var done <-chan struct{} // nil under the sync driver: the signal alone
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		ended := ctx != nil && ctx.Err() != nil
		k.mu.Lock()
		bks := k.backends
		k.mu.Unlock()
		if i := firstSchedulable(bks); i >= 0 || ended {
			return bks, i
		}
		select {
		case <-sig:
		case <-done:
		}
	}
}

// writeOff records a dropped epoch batch: the contributing apps carry
// the error on their status and the kernel notes it once. The dropped
// contributions stay in the per-app offered totals — the ledger records
// what apps offered, and zero-observation-loss accounting (the chaos
// harness's exactness assertion) depends on every merged contribution
// being counted exactly once, committed or not.
func (k *Kernel) writeOff(contribs []contribution) {
	for _, c := range contribs {
		if c.ctl != nil {
			c.ctl.setLastErr("epoch batch dropped: no healthy backends")
		}
	}
	k.noteErr(fmt.Errorf("runtime: %w: epoch batch dropped", ErrNoHealthyBackends))
}

// tickApp runs one app's Tick + workload materialization with panic
// containment: a panic in tenant-supplied Policy/Knob/Workload code
// quarantines that app — skipped by every later epoch, the panic
// surfaced on its status — and never crashes the kernel or its
// shard-mates. live=false means the app contributed nothing (already
// quarantined, or quarantined by this very tick). A plain workload
// error is not a panic: it propagates for the caller's existing
// handling (sync RunEpoch aborts the epoch, concurrent loops note it).
func (k *Kernel) tickApp(ctl *Controller) (tasks []*simhpc.Task, err error, live bool) {
	if ctl.quarantined.Load() {
		return nil, nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("app panic: %v", r)
			ctl.quarantine(msg)
			k.noteErr(fmt.Errorf("runtime: %s: %s", ctl.Name(), msg))
			tasks, err, live = nil, nil, false
		}
	}()
	ctl.Tick()
	tasks, err = ctl.workload()
	return tasks, err, true
}
