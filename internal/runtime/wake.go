package runtime

import (
	"context"
	goruntime "runtime"
	"sync/atomic"
)

// The wake path is the handshake between the shard loops and the epoch
// scheduler. A per-shard channel handshake costs O(shards) of scheduler
// work per epoch — one send per shard on the submit side and one more on
// the release side, each a lock acquire plus a potential goroutine
// wakeup. At 1–2 cores that tax hides behind the manager epoch; at 8–16
// cores it IS the serial section (the non-threaded-CCP argument
// inverted: plentiful cores make the wake path the tax, not the loops).
// So both sides are atomics — a lock-free submit list the scheduler
// drains with one swap, and a published per-shard acceptance counter
// that shards spin-then-park on — and the scheduler's per-epoch wake
// work is one pass of atomic stores plus tokens only for the shards
// that actually parked.

// submitStack is the intrusive Treiber stack of shards
// with batches ready to merge. A shard is in the stack at most once
// (it never has two batches in flight), so the intrusive next link is
// safe. push is lock-free and allocation-free; the scheduler takes the
// whole list with one swap.
type submitStack struct {
	head atomic.Pointer[shard]
}

// push links sh into the stack and reports whether the stack was empty
// — the pusher that turns it non-empty owns waking the scheduler.
func (s *submitStack) push(sh *shard) (wasEmpty bool) {
	for {
		old := s.head.Load()
		sh.next = old
		if s.head.CompareAndSwap(old, sh) {
			return old == nil
		}
	}
}

// popAll detaches the whole submit list. Order is reversed submission
// order, which the scheduler does not care about — batches merge into
// one epoch regardless.
func (s *submitStack) popAll() *shard {
	return s.head.Swap(nil)
}

// wakeHub is one generation's wake-path state, shared by the shard
// loops and the scheduler: the lock-free submit list plus a one-slot
// doorbell the first pusher rings; the scheduler drains the list on
// each ring, so later pushers piggyback without another wake.
type wakeHub struct {
	stack submitStack
	sig   chan struct{}
}

func newWakeHub() *wakeHub {
	return &wakeHub{sig: make(chan struct{}, 1)}
}

// submitShard hands a shard's batch to the scheduler: a stack push plus
// (only when the stack was idle) a doorbell ring. Every operation that
// can wake the scheduler counts against wakeOps.
func (k *Kernel) submitShard(w *wakeHub, sh *shard) {
	sh.submitted++
	if w.stack.push(sh) {
		k.wakeOps.Add(1)
		select {
		case w.sig <- struct{}{}:
		default: // doorbell already rung; the scheduler will drain us too
		}
	}
}

// waitAccepted blocks a shard until the scheduler has
// merged its batch: check the published counter, yield once (on a busy
// host acceptance usually lands within the yield), then park on the
// shard's one-slot token channel. The parked flag is the futex-style
// contract with the scheduler: a shard arms it before parking and
// re-checks the counter afterwards, the scheduler publishes the
// counter before testing the flag — so a wake is never lost, and a
// token is only ever sent to a shard that actually parked. Returns
// false when the generation wound down instead. Allocation-free.
func (k *Kernel) waitAccepted(ctx context.Context, sh *shard) bool {
	target := sh.submitted
	if sh.accepted.Load() >= target {
		return true
	}
	goruntime.Gosched()
	for sh.accepted.Load() < target {
		sh.parked.Store(true)
		if sh.accepted.Load() >= target {
			if !sh.parked.Swap(false) {
				// The scheduler claimed the flag: a wake token is in
				// flight (or landed); clear it so the next park does not
				// wake spuriously.
				select {
				case <-sh.park:
				default:
				}
			}
			return true
		}
		select {
		case <-sh.park:
			// Woken: re-check the counter. A stale token (from a race
			// the self-unpark path lost) just re-arms and parks again.
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// releaseShards is the scheduler's single wake pass at flush: publish
// each pending shard's acceptance, then hand a token only to the
// shards that parked.
func (k *Kernel) releaseShards(pending []*shard) {
	for _, sh := range pending {
		sh.accepted.Add(1)
		if sh.parked.Swap(false) {
			k.wakeOps.Add(1)
			select {
			case sh.park <- struct{}{}:
			default: // stale token already buffered; the shard will eat it
			}
		}
	}
}

// WakeOps reports the cumulative count of wake operations the epoch
// machinery has performed: doorbell rings and park tokens. K12 reports
// the per-epoch rate — O(1) plus one token per shard that actually
// parked, where a channel handshake would cost 2·shards.
func (k *Kernel) WakeOps() int64 { return k.wakeOps.Load() }

// maybeReshape flags a topology rebuild once when GOMAXPROCS has
// drifted from the value the topology was shaped for (live
// runtime.GOMAXPROCS call or cgroup resize); the next patch boundary
// then ends the generation instead of patching it. Called from the
// epoch loops at low frequency — GOMAXPROCS(0) takes the scheduler
// lock, so it must not run per epoch. The CAS bounds it to one request
// per generation; the new generation re-reads GOMAXPROCS and re-shapes
// shards, workers and commit fan-out.
func (k *Kernel) maybeReshape() {
	if int32(goruntime.GOMAXPROCS(0)) != k.topoGMP.Load() && k.topoDrift.CompareAndSwap(false, true) {
		k.requestPlacementRefresh()
	}
}

// commitWorkers splits the generation's GOMAXPROCS budget across
// concurrent backend commits: with n backends committing at once each
// gets its share of the cores, the workers its Backend.RunEpoch takes.
func (k *Kernel) commitWorkers(concurrent int) int {
	gmp := int(k.topoGMP.Load())
	if gmp <= 0 {
		gmp = goruntime.GOMAXPROCS(0)
	}
	return max(1, gmp/max(1, concurrent))
}
