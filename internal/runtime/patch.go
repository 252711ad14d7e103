package runtime

import "context"

// Membership in O(changed). A generation is the loop topology — shards
// and their goroutines, scheduler, executor, pacer — and membership
// changes (attach, detach, swap, placement and backend-set changes) are
// patched into it at the next epoch boundary where the engine is
// quiescent: in the sharded topology a full flush, once the executor
// has finished the merged epoch and before any shard is released; in
// singleLoop the point after execute. Nothing then ticks an app, routes
// a batch or reads a shard's app list, so the patch makes the writes a
// rebuild would make between generations without cancelling anything —
// a parked epoch batch is never written off by a membership change.
// Only a new loop count (the 2·GOMAXPROCS threshold, 0 ↔ n apps),
// GOMAXPROCS drift flagged by maybeReshape, or Stop ends a generation.

// topology is what a patch keeps: one generation's shards, the channel
// the next membership change closes, and the cancel that ends the
// generation when a change needs a new topology.
type topology struct {
	shards  []*shard
	changed <-chan struct{}
	cancel  context.CancelFunc
}

// changePending reports whether membership changed since the topology
// was last patched (or built).
func (t *topology) changePending() bool {
	select {
	case <-t.changed:
		return true
	default:
		return false
	}
}

// loopShards is the loop count the concurrent mode runs n apps on: one
// loop per app while that is affordable, GOMAXPROCS shard loops once n
// passes 2·GOMAXPROCS (see shard).
func loopShards(n, gmp int) int {
	if n > 2*gmp {
		return gmp
	}
	return n
}

// rebuildDueLocked reports whether the attached apps need a topology
// other than the serving one of nShards loops. Callers hold k.mu.
func (k *Kernel) rebuildDueLocked(nShards int) bool {
	return k.topoDrift.Load() || loopShards(len(k.apps), int(k.topoGMP.Load())) != nShards
}

// dealApps deals apps round-robin into shards — when a generation is
// built and at every patch. The shards are parked (or not started), so
// their app lists are rewritten in place; the cleared tail pins no
// detached controller.
func dealApps(shards []*shard, apps []*Controller) {
	for _, sh := range shards {
		clear(sh.apps)
		sh.apps = sh.apps[:0]
	}
	for i, ctl := range apps {
		sh := shards[i%len(shards)]
		sh.apps = append(sh.apps, ctl)
	}
	for _, sh := range shards {
		if cap(sh.contribs) < len(sh.apps) {
			sh.contribs = make([]contribution, 0, len(sh.apps))
		}
	}
}

// epochViewLocked settles what the next epochs run over: apps
// re-placed, the executor pointed at the current backend set and its
// steering hook. Callers hold k.mu, and the epoch
// engine is quiescent (sync driver before its epoch, supervisor between
// generations, a patch at its boundary).
func (k *Kernel) epochViewLocked() {
	k.refreshPlacementLocked()
	k.epochBackends = k.backends
	k.epochObserver = nil
	if len(k.backends) > 1 {
		k.epochObserver, _ = k.placement.(EpochObserver)
	}
}

// snapshotLocked is epochViewLocked for the concurrent mode: it also
// arms the channel the next membership change closes, in the same
// critical section, so a change is either in the snapshot or closes the
// channel — never missed. Callers hold k.mu.
func (k *Kernel) snapshotLocked() (apps []*Controller, gen int64, changed <-chan struct{}) {
	k.epochViewLocked()
	ch := make(chan struct{})
	k.memChanged = ch
	return k.apps, k.memGen, ch
}

// patch applies every membership change since t was last patched to the
// running topology; the caller is at a quiescent boundary. Epoch-signal
// subscribers are woken so ServedGeneration waiters see the change land
// without waiting for the next epoch; the SSE epochs stream, which sends
// only when the epoch count or a backend's seq moved, drops these wakes.
// It returns the new app count, or ok=false — with the generation
// cancelled — when the change needs a different topology, which the
// supervisor then builds.
func (k *Kernel) patch(t *topology) (nApps int, ok bool) {
	k.mu.Lock()
	if k.rebuildDueLocked(len(t.shards)) {
		k.mu.Unlock()
		t.cancel()
		return 0, false
	}
	apps, gen, changed := k.snapshotLocked()
	k.mu.Unlock()
	t.changed = changed
	dealApps(t.shards, apps)
	k.servedGen.Store(gen)
	k.signalEpoch()
	return len(apps), true
}

// Rebuilds returns how many times the concurrent mode has built a new
// loop topology since Start, not counting the first: a change in the
// loop count (the app count crossing 2·GOMAXPROCS, or reaching 0),
// GOMAXPROCS drift. Every other membership change is patched into the
// running topology and does not count.
func (k *Kernel) Rebuilds() int64 { return k.rebuilds.Load() }
