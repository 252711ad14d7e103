package main

import (
	"runtime"
	"time"
)

// clock is the time source of the open-loop scheduler; tests inject a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sleep(0) yields the processor: it is the scheduler's spin step.
func (realClock) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	time.Sleep(d)
}

// spinMargin is how long before a due time the scheduler stops
// sleeping and yields in a loop instead: time.Sleep overshoots by about
// 1.1 ms on the sizing host, which alone would eat the 2 ms lateness
// budget.
const spinMargin = 1500 * time.Microsecond

// openLoop fires slots on a fixed schedule regardless of how the system
// under test responds: slot k is due at start + (k+jitter[k])*period,
// the jitter a seeded fraction of a period — on a strict grid the slots
// beat against the server's own timers (a 10 ms grid against 6.25 ms
// epochs visits five phases, not all of them) and the median wanders
// with wherever those few phases happen to fall. Between
// slots it calls idle, which does the generator's paced background
// work. A slot the generator reaches late is still fired — the host
// stalls a sleeping process for 5-40 ms about once a second — and its
// latency is timed from the due time, so the wait the stall imposed is
// counted, not omitted. Only a slot later than maxLate is skipped; a
// skipped slot is the generator's failure and is reported, never
// hidden.
type openLoop struct {
	clk     clock
	start   time.Time
	period  time.Duration
	slots   int
	jitter  []float64 // per slot, in [0, 1); nil fires on the grid
	maxLate time.Duration

	late    []time.Duration // lateness of each fired slot, from its due time
	skipped int
}

// run drives the schedule to completion. fire gets the slot's due time:
// latencies are timed from it, not from the (later) send.
func (o *openLoop) run(idle func(now time.Time), fire func(slot int, due time.Time)) {
	for slot := 0; slot < o.slots; {
		due := o.start.Add(time.Duration(slot) * o.period)
		if o.jitter != nil {
			due = due.Add(time.Duration(o.jitter[slot] * float64(o.period)))
		}
		var now time.Time
		for {
			now = o.clk.Now()
			idle(now)
			remain := due.Sub(now)
			if remain <= 0 {
				break
			}
			if remain > spinMargin {
				o.clk.Sleep(min(remain-spinMargin, time.Millisecond))
			} else {
				o.clk.Sleep(0)
			}
		}
		late := now.Sub(due)
		if late > o.maxLate {
			missed := int((late-o.maxLate)/o.period) + 1
			o.skipped += missed
			slot += missed
			continue
		}
		o.late = append(o.late, late)
		fire(slot, due)
		slot++
	}
}

// pacedFeed writes pre-encoded frames at a fixed sample rate against
// absolute time: each top-up sends every frame that has become due, so
// a late wake-up is caught up instead of lowering the offered load.
type pacedFeed struct {
	frames  [][]byte // warm frames, sent round-robin
	perSec  float64  // frames per second
	write   func([]byte) error
	start   time.Time
	sent    int64 // frames written so far
	scratch []byte
	err     error
}

// topUp writes the frames due by now in one write.
func (f *pacedFeed) topUp(now time.Time) {
	if f.err != nil {
		return
	}
	due := int64(now.Sub(f.start).Seconds() * f.perSec)
	if due <= f.sent {
		return
	}
	buf := f.scratch[:0]
	for ; f.sent < due; f.sent++ {
		buf = append(buf, f.frames[f.sent%int64(len(f.frames))]...)
	}
	f.scratch = buf
	f.err = f.write(buf)
}
