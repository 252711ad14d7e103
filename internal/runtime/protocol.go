package runtime

import (
	"math"
	goruntime "runtime"
	"sync/atomic"

	"repro/internal/rtrm"
)

// statsCell is a per-backend seqlock publishing the backend's
// cumulative stats to status readers (ManagerStats, BackendStats — the
// control plane's /v1/epochs and SSE path), which take Silo-style
// optimistic snapshots: read the version, read the fields, retry if the
// version was odd or moved. It is the only status read path, so a
// reader never waits on a commit. The commit path (serialized per
// backend by commitMu) is the version's only writer, so ver is odd
// exactly while a stats write is in progress; the placement app count
// rides along as one independent word outside the version protocol
// (see publishApps). Fields are atomics so the race detector sees the
// reader/writer overlap as synchronized — the version protocol is what
// makes the multi-field snapshot consistent.
// The cell's eight words fill exactly one 64-byte cache line; the pads
// keep neighbouring backendSlot fields (seq, the commit mutex) off that
// line, so readers polling ver do not ping-pong the
// line the commit path is writing through unrelated fields.
type statsCell struct {
	_         [64]byte
	ver       atomic.Uint64
	epochs    atomic.Int64
	work      atomic.Uint64 // math.Float64bits
	deferred  atomic.Uint64
	energy    atomic.Uint64
	thermal   atomic.Int64
	demotions atomic.Int64
	apps      atomic.Int64
	_         [64]byte
}

// publishStats republishes the backend's cumulative counters. Called
// under the backend's commit mutex.
func (c *statsCell) publishStats(s rtrm.Stats) {
	c.ver.Add(1) // odd: write in progress
	c.epochs.Store(int64(s.Epochs))
	c.work.Store(math.Float64bits(s.WorkGFlop))
	c.deferred.Store(math.Float64bits(s.DeferredGFlop))
	c.energy.Store(math.Float64bits(s.EnergyJ))
	c.thermal.Store(int64(s.ThermalEvents))
	c.demotions.Store(int64(s.CapDemotions))
	c.ver.Add(1)
}

// publishApps republishes the placement app count (placement refresh,
// under k.mu). A plain store with no version bump: a deadline-abandoned
// commit can still be inside publishStats on a Degraded slot while the
// next generation's refresh runs, and a second ver writer could leave
// ver even mid-write and let snapshot return torn stats.
func (c *statsCell) publishApps(n int) { c.apps.Store(int64(n)) }

// snapshot returns a consistent stats snapshot, retrying while a write
// is in progress or completed mid-read, plus the current app count.
func (c *statsCell) snapshot() (rtrm.Stats, int) {
	for {
		v1 := c.ver.Load()
		if v1&1 != 0 {
			goruntime.Gosched() // writer mid-publish: give it the P
			continue
		}
		s := rtrm.Stats{
			Epochs:        int(c.epochs.Load()),
			WorkGFlop:     math.Float64frombits(c.work.Load()),
			DeferredGFlop: math.Float64frombits(c.deferred.Load()),
			EnergyJ:       math.Float64frombits(c.energy.Load()),
			ThermalEvents: int(c.thermal.Load()),
			CapDemotions:  int(c.demotions.Load()),
		}
		apps := int(c.apps.Load())
		if c.ver.Load() == v1 {
			return s, apps
		}
	}
}
