package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// inboxChunkSize is the slot count of one ingestion chunk. 256 samples
// amortize one chunk allocation over ~6 KB of telemetry, keeping the
// steady-state push path allocation-free.
const inboxChunkSize = 256

// inboxChunk is one fixed-size segment of the ingestion ring. Producers
// claim slots with a single atomic add; a slot's ready flag publishes
// the written sample to the collector (store-release / load-acquire).
type inboxChunk struct {
	// reserve counts claimed slots; values >= inboxChunkSize mean the
	// chunk is exhausted and the claimant must move to next. Every
	// producer hammers this word with an atomic add, so it gets a cache
	// line to itself — sharing one with next (read on every push to test
	// for overflow) or the first ready flags would false-share the
	// hottest line in the ingress path. The pads cost ~2 % of the chunk.
	reserve atomic.Int64
	_       [56]byte
	next    atomic.Pointer[inboxChunk]
	_       [56]byte
	ready   [inboxChunkSize]atomic.Uint32
	slots   [inboxChunkSize]Sample
}

// Inbox is the collect stage (AppSpec.Sensor), a concurrent sample
// buffer: any number of producer goroutines Push while the control loop
// drains it, allocation-free, via Drain. The zero value is ready to use.
//
// Internally it is a chunked lock-free ring (the ROADMAP's "async
// telemetry ingestion" item, after the non-threaded-CCP argument for a
// lock-free ingress): Push claims a slot with one atomic add and never
// takes a lock, so producers never contend with Drain or with a
// slower producer holding a mutex. Drain walks the chunk chain behind
// a consumer-side mutex that producers never touch.
type Inbox struct {
	first atomic.Pointer[inboxChunk] // anchor for the collector, set once
	tail  atomic.Pointer[inboxChunk] // where producers claim slots

	pending atomic.Int64 // pushed minus collected (Len)

	collectMu sync.Mutex // serializes collectors only
	head      *inboxChunk
	headPos   int
}

// Push records a sample. It is lock-free: one atomic add to claim a
// slot, one atomic store to publish it; a chunk allocation every
// inboxChunkSize samples.
func (in *Inbox) Push(metric string, v float64) {
	c := in.tail.Load()
	if c == nil {
		c = in.initTail()
	}
	for {
		i := c.reserve.Add(1) - 1
		if i < inboxChunkSize {
			c.slots[i] = Sample{Metric: metric, Value: v}
			c.ready[i].Store(1)
			in.pending.Add(1)
			return
		}
		c = in.advance(c)
	}
}

// PushBatch records a batch of samples with one atomic slot-range
// claim per chunk touched — amortized one claim per inboxChunkSize
// samples — instead of one claim per sample: the bulk ingest path the
// control plane's observation batches land on. Batch order is
// preserved (the claimed ranges are contiguous and chunks are chained
// in claim order), the samples are copied, and the caller may reuse
// the slice immediately. Like Push it is lock-free and never contends
// with Drain.
func (in *Inbox) PushBatch(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	c := in.tail.Load()
	if c == nil {
		c = in.initTail()
	}
	rest := samples
	for len(rest) > 0 {
		want := int64(len(rest))
		if want > inboxChunkSize {
			want = inboxChunkSize
		}
		end := c.reserve.Add(want)
		start := end - want
		if start >= inboxChunkSize {
			c = in.advance(c)
			continue
		}
		// The claim may run past the chunk: slots below the boundary
		// are filled, the overhang is abandoned (exactly what Push
		// does with a claim that lands past the end) and the remainder
		// of the batch moves to the successor chunk. The collector
		// never waits on abandoned slots — it caps the claim count at
		// the chunk size, and every slot below that cap is published
		// here before the overhang redirects.
		n := inboxChunkSize - start
		if n > want {
			n = want
		}
		copy(c.slots[start:start+n], rest[:n])
		for i := start; i < start+n; i++ {
			c.ready[i].Store(1)
		}
		rest = rest[n:]
		if end >= inboxChunkSize {
			c = in.advance(c)
		}
	}
	in.pending.Add(int64(len(samples)))
}

// initTail installs the first chunk. The first pointer is published
// before tail so the collector's anchor always reaches every sample.
func (in *Inbox) initTail() *inboxChunk {
	in.first.CompareAndSwap(nil, &inboxChunk{})
	c := in.first.Load()
	in.tail.CompareAndSwap(nil, c)
	return in.tail.Load()
}

// advance returns the successor of exhausted chunk c, installing it if
// needed, and helps swing the producer tail forward.
func (in *Inbox) advance(c *inboxChunk) *inboxChunk {
	next := c.next.Load()
	if next == nil {
		n := &inboxChunk{}
		if c.next.CompareAndSwap(nil, n) {
			next = n
		} else {
			next = c.next.Load()
		}
	}
	in.tail.CompareAndSwap(c, next)
	return next
}

// Drain streams every buffered sample into fn in push-claim order and
// removes them — the allocation-free collect path.
func (in *Inbox) Drain(fn func(metric string, v float64)) {
	in.collectMu.Lock()
	defer in.collectMu.Unlock()
	c := in.head
	if c == nil {
		if c = in.first.Load(); c == nil {
			return // nothing ever pushed
		}
		in.head = c
	}
	// Drop the anchor once the producer side can no longer need it:
	// initTail reads `first` only while `tail` is nil and `tail` is
	// never reset, so after `tail` is published the anchor's only
	// effect is retaining every drained chunk via the next chain.
	// Clearing it any earlier races the first Push's two-step install
	// (first set, tail not yet) into a nil-chunk dereference.
	if in.first.Load() != nil && in.tail.Load() != nil {
		in.first.Store(nil)
	}
	for {
		claimed := c.reserve.Load()
		if claimed > inboxChunkSize {
			claimed = inboxChunkSize
		}
		for i := in.headPos; i < int(claimed); i++ {
			// A producer claimed this slot but may not have published it
			// yet; the window between its Add and Store is a few
			// instructions, so spin briefly.
			for c.ready[i].Load() == 0 {
				goruntime.Gosched()
			}
			s := &c.slots[i]
			fn(s.Metric, s.Value)
			in.pending.Add(-1)
		}
		in.headPos = int(claimed)
		if claimed < inboxChunkSize {
			return // chunk still filling: stay on it
		}
		next := c.next.Load()
		if next == nil {
			return // exhausted, successor not installed yet
		}
		c, in.head, in.headPos = next, next, 0
	}
}

// Len returns the number of buffered samples (approximate while
// producers and collectors are active, exact at rest). It is one atomic
// load. Push and PushBatch count samples only after publishing them,
// so a Drain can run ahead of the count and Len can read negative;
// Controller.Tick treats anything but 0 as "something new".
func (in *Inbox) Len() int { return int(in.pending.Load()) }
