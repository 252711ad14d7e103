package runtime

import (
	"context"
	"sync/atomic"
	"time"
)

// nudgeBurst is how many nudges a paced generation honours at once
// before its pacer falls back to one per interval.
const nudgeBurst = 4

// pacer is one paced generation's early-wake state. Options.Interval
// bounds how stale a paced kernel may be, not how fast it reacts: Nudge
// cuts every shard loop's pacing sleep short. Honoured nudges are
// metered by a GCRA token bucket (generic cell-rate algorithm) in one
// word: up to nudgeBurst at once, one more per interval after that. So
// over any span T at most T/interval + nudgeBurst nudges are honoured,
// and a tenant streaming violations can at most double the paced epoch
// rate, while violations that arrive close together each get an epoch
// at once. Dropped nudges lose nothing — their samples are drained by
// the paced tick that follows within one interval.
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
	tat      atomic.Int64    // theoretical arrival time, ns since start; 0 = a full bucket
	bells    []chan struct{} // one per shard, buffered 1
}

func newPacer(interval time.Duration, shards []*shard) *pacer {
	p := &pacer{interval: int64(interval), start: time.Now(), bells: make([]chan struct{}, len(shards))}
	for i, sh := range shards {
		sh.bell = make(chan struct{}, 1)
		sh.timer = time.NewTimer(interval) // re-armed by every pause
		p.bells[i] = sh.bell
	}
	return p
}

// admit reports whether a nudge at now (ns since start) is honoured. A
// nudge earlier than tat − (nudgeBurst−1)·interval finds the bucket
// empty and is dropped after one load, writing nothing; any other moves
// tat to max(tat, now) + interval by CAS, retrying if another caller
// moved it first.
func (p *pacer) admit(now int64) bool {
	for {
		tat := p.tat.Load()
		if now < tat-(nudgeBurst-1)*p.interval {
			return false
		}
		if p.tat.CompareAndSwap(tat, max(tat, now)+p.interval) {
			return true
		}
	}
}

// Nudge asks a paced kernel to start its next epoch now instead of at
// the end of the current Options.Interval sleep. Call it after handing
// the kernel an observation worth reacting to (the control plane does,
// for samples beyond an SLA target). All shard loops are rung so they
// stay phase-aligned and the scheduler gets a full batch at once. It is
// a no-op when the kernel is unpaced, stopped, between generations or
// driven by RunEpoch, and it is dropped (counted by DroppedNudges) when
// the pacer's bucket is empty.
func (k *Kernel) Nudge() {
	p := k.pacer.Load()
	if p == nil {
		return
	}
	if !p.admit(int64(time.Since(p.start))) {
		k.droppedNudges.Add(1)
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

// DroppedNudges returns how many nudges a paced generation's pacer
// refused because its bucket was empty.
func (k *Kernel) DroppedNudges() int64 { return k.droppedNudges.Load() }

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
