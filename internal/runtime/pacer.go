package runtime

import (
	"context"
	"sync/atomic"
	"time"
)

// pacer is one paced generation's early-wake state. Options.Interval
// bounds how stale a paced kernel may be, not how fast it reacts: Nudge
// cuts every shard loop's pacing sleep short, at most once per
// interval, so a tenant streaming violations can at most double the
// paced epoch rate. Dropped nudges lose nothing — their samples are
// drained by the paced tick that follows within one interval.
//
// Lost-wake contract: a producer pushes its samples, then nudges; a
// loop clears its bell, then drains (pause clears on its way out, and
// nothing but the ctx check runs between pause and the round's first
// tickApp). So a sample the drain missed still has its ring pending and
// cuts the next sleep, while a ring whose sample this round will see
// anyway is discarded instead of buying a spurious epoch.
type pacer struct {
	interval int64 // ns
	start    time.Time
	last     atomic.Int64    // ns since start of the last honoured nudge
	bells    []chan struct{} // one per shard, buffered 1
}

func newPacer(interval time.Duration, shards []*shard) *pacer {
	p := &pacer{interval: int64(interval), start: time.Now(), bells: make([]chan struct{}, len(shards))}
	p.last.Store(-p.interval) // the generation's first nudge is honoured
	for i, sh := range shards {
		sh.bell = make(chan struct{}, 1)
		sh.timer = time.NewTimer(interval) // re-armed by every pause
		p.bells[i] = sh.bell
	}
	return p
}

// admit reports whether a nudge at now (ns since start) is honoured:
// one CAS winner per interval.
func (p *pacer) admit(now int64) bool {
	last := p.last.Load()
	return now-last >= p.interval && p.last.CompareAndSwap(last, now)
}

// Nudge asks a paced kernel to start its next epoch now instead of at
// the end of the current Options.Interval sleep. Call it after handing
// the kernel an observation worth reacting to (the control plane does,
// for samples beyond an SLA target). All shard loops are rung so they
// stay phase-aligned and the scheduler gets a full batch at once. It is
// a no-op when the kernel is unpaced, stopped, between generations or
// driven by RunEpoch, and when an early epoch already ran this interval.
func (k *Kernel) Nudge() {
	p := k.pacer.Load()
	if p == nil || !p.admit(int64(time.Since(p.start))) {
		return
	}
	k.earlyEpochs.Add(1)
	p.ring()
}

// ring cuts every shard loop's pacing sleep short — a honoured nudge,
// or a membership change that needs a topology rebuild. A bell already
// rung stays rung.
func (p *pacer) ring() {
	for _, bell := range p.bells {
		select {
		case bell <- struct{}{}:
		default:
		}
	}
}

// EarlyEpochs returns how many nudges were honoured.
func (k *Kernel) EarlyEpochs() int64 { return k.earlyEpochs.Load() }

// pause is a paced loop's sleep between rounds: d, cut short by the
// shard's bell or by ctx ending.
func (sh *shard) pause(ctx context.Context, d time.Duration) {
	sh.timer.Reset(d)
	select {
	case <-sh.timer.C:
		select {
		case <-sh.bell: // rung as the timer fired: this round drains its sample
		default:
		}
	case <-sh.bell:
		sh.timer.Stop()
	case <-ctx.Done():
		sh.timer.Stop()
	}
}
