package runtime

import (
	"sync"
	"sync/atomic"

	"repro/internal/monitor"
)

// Controller is one application's collect–analyse–decide–act loop: the
// successor of the old monitor.Loop, with the decide and act stages
// factored out behind Policy and Knob. It is safe for concurrent use:
// producers Push (or feed the Sensor inbox) from serving goroutines
// while Tick runs on the control-loop goroutine; Ticks themselves
// serialize.
//
// The tick path is allocation-free in steady state: sensor samples are
// drained straight into cached window handles (no per-sample map
// lookup), and the summary map handed to SLA.Check and Policy.Decide is
// scratch reused across ticks. Analysing costs O(windows changed): a
// window with no sample since the last tick answers from its Snapshot
// memo. A quiet tick costs O(1): when the last full tick's SLA check
// passed, the inbox is empty and the metric set's Version has not moved
// since that tick read it, the full tick would check the same summaries
// and pass again, so Tick returns the zero Decision without draining or
// analysing. A passing check leaves the trigger at rest, so skipping it
// changes nothing; a violating app takes the full path every tick, and
// the trigger observes one check per tick — Debounce counts ticks, not
// samples.
type Controller struct {
	spec    AppSpec
	metrics *monitor.Set
	trigger *monitor.Trigger
	// reasons caches each SLA goal's String(), built once at
	// NewController (spec.SLA is never reassigned), so a firing tick
	// formats nothing.
	reasons []string

	tickMu  sync.Mutex
	sums    map[string]monitor.Summary // analyse scratch, under tickMu
	handles map[string]*monitor.Window // metric → window cache, under tickMu
	drainFn func(metric string, v float64)

	// lastMetric/lastWindow memoize the previous drained sample's
	// window (under tickMu): batched ingest delivers runs of one metric
	// — the wire protocol's frame shape — so consecutive samples skip
	// even the handle map's hash, usually via pointer-equal interned
	// strings.
	lastMetric string
	lastWindow *monitor.Window

	// passed and seen (under tickMu) are what a quiet tick compares
	// against: whether the last full tick's SLA check passed, and the
	// metric set's Version it read after its drain and before its
	// snapshot.
	passed bool
	seen   uint64

	ticks       atomic.Int64
	quietTicks  atomic.Int64
	fires       atomic.Int64
	adaptations atomic.Int64

	// backend is the index of the kernel backend this app's epoch
	// batches route to; -1 until the first placement refresh. Written
	// only at generation boundaries (the kernel's placement refresh),
	// read by the epoch engine.
	backend atomic.Int32

	// acct is the ledger account of the app's name, shared by every
	// controller attached under it; set by Kernel.Attach.
	acct *account

	// quarantined marks an app whose user-supplied Policy/Knob/Workload
	// panicked: the kernel skips it every later epoch and the panic is
	// surfaced on AppStatus. Sticky — only a re-attach or a
	// SwapPolicy (installing a replacement for the component that
	// crashed) clears it. failMu guards lastErr (the panic message, or
	// the most recent dropped-epoch note).
	quarantined atomic.Bool
	failMu      sync.Mutex
	lastErr     string
}

// quarantine marks the app failed with the given panic message.
func (c *Controller) quarantine(msg string) {
	c.setLastErr(msg)
	c.quarantined.Store(true)
}

// setLastErr records the most recent app-level failure note.
func (c *Controller) setLastErr(msg string) {
	c.failMu.Lock()
	c.lastErr = msg
	c.failMu.Unlock()
}

// LastError returns the app's most recent failure note: the captured
// panic of a quarantined app, or the drop note of an epoch written off
// with no healthy backends. Empty while clean.
func (c *Controller) LastError() string {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.lastErr
}

// Quarantined reports whether a panic in user-supplied code has
// permanently sidelined this app (see Kernel.tickApp).
func (c *Controller) Quarantined() bool { return c.quarantined.Load() }

// NewController assembles a controller from an AppSpec, applying the
// window/debounce defaults.
func NewController(spec AppSpec) *Controller {
	if spec.Window <= 0 {
		spec.Window = 32
	}
	if spec.Debounce <= 0 {
		spec.Debounce = 2
	}
	c := &Controller{
		spec:    spec,
		metrics: monitor.NewSet(spec.Window),
		trigger: monitor.NewTrigger(spec.Debounce),
		sums:    make(map[string]monitor.Summary),
		handles: make(map[string]*monitor.Window),
	}
	for _, g := range spec.SLA.Goals {
		c.reasons = append(c.reasons, g.String())
	}
	c.drainFn = c.pushCached // bind once so Tick never allocates a closure
	c.backend.Store(-1)      // unplaced until the kernel's first refresh
	return c
}

// Name returns the application name.
func (c *Controller) Name() string { return c.spec.Name }

// Metrics exposes the controller's metric windows for direct pushes —
// the collect path for applications without a dedicated Sensor.
func (c *Controller) Metrics() *monitor.Set { return c.metrics }

// Push records a sample directly into the metric windows. Safe from any
// goroutine.
func (c *Controller) Push(metric string, v float64) { c.metrics.Push(metric, v) }

// pushCached records a sample through the per-metric handle cache,
// skipping the set's lock and map lookup after the first sample of each
// metric — and skipping the map entirely inside a same-metric run.
// Only called under tickMu.
func (c *Controller) pushCached(metric string, v float64) {
	if metric == c.lastMetric && c.lastWindow != nil {
		c.lastWindow.Push(v)
		return
	}
	w := c.handles[metric]
	if w == nil {
		w = c.metrics.Acquire(metric)
		c.handles[metric] = w
	}
	c.lastMetric, c.lastWindow = metric, w
	w.Push(v)
}

// Tick runs one collect-analyse-decide-act cycle and returns the
// decision. Concurrent Ticks serialize; producers may keep pushing.
//
// A tick with nothing new since a passing check returns the zero
// Decision in O(1) (see Controller). Nothing new means an empty inbox
// (Inbox.Len() == 0) and an unchanged Set.Version. Inbox.PushBatch
// counts its samples only after publishing them, and the control plane
// nudges the kernel after that, so a sample a quiet tick misses is
// drained by the first tick after its count lands.
func (c *Controller) Tick() monitor.Decision {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	c.ticks.Add(1)
	if c.passed && (c.spec.Sensor == nil || c.spec.Sensor.Len() == 0) && c.metrics.Version() == c.seen {
		c.quietTicks.Add(1)
		return monitor.Decision{}
	}
	return c.tickFull()
}

// tickFull is Tick's full collect-analyse-decide-act pass. Called under
// tickMu.
func (c *Controller) tickFull() monitor.Decision {
	// Collect: drain the sensor into the windows, without allocating.
	if c.spec.Sensor != nil {
		c.spec.Sensor.Drain(c.drainFn)
	}
	c.seen = c.metrics.Version()

	// Analyse: snapshot into the reused summary scratch and check the
	// SLA. The map is only lent to the policy for the call.
	c.metrics.SummariesInto(c.sums)
	ok, goalIdx, violation := c.spec.SLA.Check(c.sums)
	c.passed = ok
	fire := c.trigger.Observe(!ok)
	d := monitor.Decision{}
	if !fire {
		return d
	}
	d.Adapt = true
	d.Violation = violation
	if goalIdx >= 0 {
		d.Reason = c.reasons[goalIdx]
	}
	c.fires.Add(1)

	// Decide and act.
	if c.spec.Policy != nil {
		if cfg, changed := c.spec.Policy.Decide(d, c.sums); changed {
			if c.spec.Knob != nil {
				c.spec.Knob.Apply(cfg)
			}
			c.adaptations.Add(1)
		}
	}
	// Fresh windows after a firing decision, so stale samples from the
	// previous operating point do not pollute the next one.
	c.metrics.Reset()
	return d
}

// SwapPolicy installs a replacement policy (and, when kb is non-nil, a
// replacement knob) and returns the previous policy so the caller can
// release its resources. The swap serializes against Tick via tickMu,
// so a decision is computed entirely by the old policy or entirely by
// the new one — never a mix. Swapping also clears quarantine: the
// component that crashed is being replaced, so the app gets a fresh
// chance without a detach/re-attach cycle (which would reset its
// windows and adaptation counters).
func (c *Controller) SwapPolicy(p Policy, kb Knob) Policy {
	c.tickMu.Lock()
	old := c.spec.Policy
	c.spec.Policy = p
	if kb != nil {
		c.spec.Knob = kb
	}
	c.tickMu.Unlock()
	c.setLastErr("")
	c.quarantined.Store(false)
	return old
}

// Ticks returns the number of cycles run, quiet ones included.
func (c *Controller) Ticks() int64 { return c.ticks.Load() }

// QuietTicks returns how many of those cycles found nothing new since a
// passing check and skipped the analyse pass.
func (c *Controller) QuietTicks() int64 { return c.quietTicks.Load() }

// Fires returns how many ticks produced a firing (Adapt) decision.
func (c *Controller) Fires() int64 { return c.fires.Load() }

// Adaptations returns how many times the policy actually changed the
// configuration (a fire whose Decide returned ok).
func (c *Controller) Adaptations() int64 { return c.adaptations.Load() }
