package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane/wire"
	"repro/internal/runtime"
)

// prober is the foreground every workload shares: open-loop probes of
// the observe→actuate loop. A probe is one violating sample flushed on
// the probe stream to a tenant sitting at level 0; it is visible at the
// first SSE epochs event in which the tenant's offered work has moved —
// decode → inbox → tick → SLA → decide → knob → workload → merge →
// backend commit → publish all happened. Latency is timed from the
// probe's due time. Two goroutines work it: the pacer (probes, resets,
// whatever paced background work the workload hands it) and the SSE
// watcher.
type prober struct {
	mu      sync.Mutex
	tenants []*probeTenant
	order   []int
	jitter  []float64
	period  time.Duration

	latAll, latLadder, latDSL []time.Duration
	dueAt                     []time.Duration // per latAll entry: its due time, from the start of the run
	flush                     []time.Duration
	timeouts, unready         int64

	proc   *serveProc
	tr     *tracer
	enc    *wire.Encoder
	stream *rawStream
	feed   *sseFeed
	frame  []byte
	sample [1]runtime.Sample
	err    error

	loop       *openLoop
	ev0, by0   int64
	start, end time.Time
}

// newProber opens the probe stream and the epochs feed, then runs the
// untimed prelude: DSL probe tenants start at level 1 and are reset,
// and every probe tenant's total must have been seen standing still.
// sseIntervalMS is the feed's throttle: 0 (every epoch signal) where
// epochs are paced, a few milliseconds where they run back to back and
// an event per epoch would make rendering and scanning them the
// bottleneck.
func newProber(s *session, tr *tracer, sseIntervalMS int) (*prober, error) {
	r := &prober{proc: s.proc, tr: tr, enc: wire.NewEncoder(), stream: openStream(s.proc),
		order: s.plan.ProbeOrder, jitter: s.plan.ProbeJitter, period: time.Second / time.Duration(s.plan.ProbesPerSec)}
	for _, pt := range s.plan.Probes {
		r.tenants = append(r.tenants, newProbeTenant(pt))
	}
	feed, err := subscribe(s.proc, sseIntervalMS, r.onEvent)
	if err != nil {
		r.stream.Close()
		return nil, err
	}
	r.feed = feed
	for warm := time.Now(); ; {
		now := time.Now()
		r.service(now)
		if !r.busy() {
			return r, nil
		}
		if now.Sub(warm) > 5*time.Second {
			r.feed.close()
			r.stream.Close()
			return nil, fmt.Errorf("probe tenants never settled at level 0")
		}
		time.Sleep(time.Millisecond)
	}
}

// busy reports whether any tenant is mid-cycle (or not yet seen).
func (r *prober) busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		if t.phase != phaseDead && (t.phase != phaseIdle || !t.seen) {
			return true
		}
	}
	return false
}

// send encodes one violating sample for the tenant and flushes it up
// the probe stream; parent is the probe's root span (0 for a reset).
func (r *prober) send(t *probeTenant, value float64, parent int64) time.Duration {
	t0 := time.Now()
	sp := r.tr.begin("client.encode", parent, parent)
	r.sample[0] = runtime.Sample{Metric: "token", Value: value}
	var err error
	r.frame, err = r.enc.AppendFrame(r.frame[:0], t.name, r.sample[:])
	r.tr.end(sp)
	if err == nil {
		sp = r.tr.begin("client.flush", parent, parent)
		err = r.stream.Write(r.frame)
		r.tr.end(sp)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	return time.Since(t0)
}

// onEvent is the SSE watcher: it looks up the total of every tenant
// that is waiting on one.
func (r *prober) onEvent(data []byte, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		if t.phase == phaseDead || (t.phase == phaseIdle && t.seen) {
			continue
		}
		var sp int64
		if t.phase == phaseArmed {
			sp = r.tr.beginAt("sse.decode", t.span, t.span, at)
		}
		total, ok := appTotal(data, t.key)
		r.tr.end(sp)
		if !ok {
			continue
		}
		if lat, visible := t.observe(total, at); visible {
			r.latAll = append(r.latAll, lat)
			r.dueAt = append(r.dueAt, t.due.Sub(r.start))
			if t.dsl {
				r.latDSL = append(r.latDSL, lat)
			} else {
				r.latLadder = append(r.latLadder, lat)
			}
			r.tr.endAt(t.waitSpan, at)
			r.tr.end(t.span)
		}
	}
}

// service runs the time-driven half of every tenant's cycle: resets
// that are due, probes that timed out.
func (r *prober) service(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		sendReset, failed := t.tick(now)
		if failed {
			r.timeouts++
		}
		if sendReset {
			// A ladder steps on any violating sample; the DSL policy sets
			// the level to the sample's value, so its reset carries 0.
			value := 1.0
			if t.dsl {
				value = 0
			}
			r.send(t, value, 0)
			t.resetSent(time.Now())
		}
	}
}

// nextReady picks the slot's probe tenant: the one the seeded order
// names or, when that tenant's last cycle has not finished, the next
// ready one in the order — a stall of a few hundred milliseconds can
// hold every tenant of one kind mid-cycle, and the slot is still due.
func (r *prober) nextReady(slot int) *probeTenant {
	for i := 0; i < len(r.order) && i < 2*len(r.tenants); i++ {
		if t := r.tenants[r.order[(slot+i)%len(r.order)]]; t.canArm() {
			return t
		}
	}
	return nil
}

// run fires the plan's probe schedule from now on; idle (may be nil) is
// the workload's paced background work, called between slots. It
// returns after the last slot's probe has become visible or timed out
// and been reset, still calling idle.
func (r *prober) run(idle func(now time.Time)) {
	r.ev0, r.by0 = r.feed.events.Load(), r.feed.bytes.Load()
	r.start = time.Now()
	r.loop = &openLoop{clk: realClock{}, start: r.start, period: r.period, slots: len(r.order), jitter: r.jitter, maxLate: probeTimeout}
	between := func(now time.Time) {
		if idle != nil {
			idle(now)
		}
		r.service(now)
	}
	r.loop.run(between, func(slot int, due time.Time) {
		r.mu.Lock()
		defer r.mu.Unlock()
		t := r.nextReady(slot)
		if t == nil {
			r.unready++ // every probe tenant is mid-cycle: a lost slot
			return
		}
		root := r.tr.beginAt("probe", 0, 0, due)
		t.arm(due, root)
		r.flush = append(r.flush, r.send(t, 1, root))
		t.waitSpan = r.tr.begin("wait.visible", root, root)
	})
	for deadline := time.Now().Add(probeTimeout + 4*resetSettle); time.Now().Before(deadline) && r.busy(); {
		between(time.Now())
		time.Sleep(time.Millisecond)
	}
	r.end = time.Now()
}

// finish closes the probe stream and the feed, fills the reaction
// metrics and runs the probe verifier: the server applied exactly the
// transitions that were sent, and every probe tenant sits at its last
// commanded level.
func (r *prober) finish(m *measurement) error {
	elapsed := r.end.Sub(r.start).Seconds()
	m.layer["sse.events_per_s"] = float64(r.feed.events.Load()-r.ev0) / elapsed
	if n := r.feed.events.Load() - r.ev0; n > 0 {
		m.layer["sse.bytes_per_event"] = float64(r.feed.bytes.Load()-r.by0) / float64(n)
	}
	if err := r.feed.close(); err != nil {
		m.check(false, "epoch stream: %v", err)
	}
	ack, err := r.stream.Close()
	var sent int64
	for _, t := range r.tenants {
		sent += t.sent
	}
	m.check(err == nil && r.err == nil && ack.Accepted == sent, "probe stream: sent %d acked %d (%v, %v)", sent, ack.Accepted, err, r.err)
	m.layer["probe.samples"] = float64(ack.Accepted)

	slots := int64(len(r.order))
	m.attempted += slots
	lost := int64(r.loop.skipped) + r.unready
	m.failed += r.timeouts + lost
	if r.timeouts+lost > 0 {
		m.notes = append(m.notes, fmt.Sprintf("%d probes timed out, %d slots skipped, %d slots found every probe tenant busy", r.timeouts, r.loop.skipped, r.unready))
	}
	late := ms(r.loop.late)
	m.layer["gen.late_p90_ms"] = percentile(late, 90)
	m.layer["gen.late_max_ms"] = percentile(late, 100)
	if percentile(late, 90) > 2 || float64(lost) > 0.01*float64(slots) {
		m.invalid = true
	}

	all := ms(r.latAll)
	p50, p90 := windowMedians(r.dueAt, r.latAll)
	m.e2e["react_p50_ms"] = p50
	m.e2e["react_p90_ms"] = p90
	m.layer["react.p50_ms"] = p50
	m.layer["react.pooled_p50_ms"] = percentile(all, 50)
	m.layer["react.pooled_p90_ms"] = percentile(all, 90)
	m.layer["react.p99_ms"] = percentile(all, 99)
	m.layer["react.samples"] = float64(len(all))
	m.layer["react.highest_pct"] = highestPercentile(len(all))
	m.layer["react.ladder_p50_ms"] = percentile(ms(r.latLadder), 50)
	m.layer["react.dsl_p50_ms"] = percentile(ms(r.latDSL), 50)
	m.layer["react.flush_p50_ms"] = percentile(ms(r.flush), 50)

	apps, err := appsByName(r.proc)
	if err != nil {
		return err
	}
	for _, t := range r.tenants {
		st, ok := apps[t.name]
		if !ok {
			m.check(false, "probe tenant %s missing from /v1/apps", t.name)
			continue
		}
		m.check(t.phase != phaseDead && st.Adaptations == t.sent && st.Level == t.level() && st.Error == "",
			"probe tenant %s: adaptations %d level %g error %q, sent %d level %g phase %d",
			t.name, st.Adaptations, st.Level, st.Error, t.sent, t.level(), t.phase)
	}
	return nil
}

// reactWindow is the stretch of a run whose probes are summarized
// together.
const reactWindow = time.Second

// windowMedians cuts the run into reactWindow stretches by due time,
// takes each stretch's own median and 90th percentile, and returns the
// medians of those. The host disturbs a run in bursts of seconds — one
// run in five had a burst that moved its pooled p90 by half or more —
// and a burst owns a few stretches where it would own the pooled tail.
// Stretches with fewer than ten probes (the last, partial one) are left
// out; with no full stretch the pooled percentiles stand.
func windowMedians(dueAt, lat []time.Duration) (p50, p90 float64) {
	byWindow := map[int][]time.Duration{}
	for i, d := range dueAt {
		w := int(d / reactWindow)
		byWindow[w] = append(byWindow[w], lat[i])
	}
	var p50s, p90s []float64
	for _, v := range byWindow {
		if len(v) < 10 {
			continue
		}
		sorted := ms(v)
		p50s = append(p50s, percentile(sorted, 50))
		p90s = append(p90s, percentile(sorted, 90))
	}
	if len(p50s) == 0 {
		all := ms(lat)
		return percentile(all, 50), percentile(all, 90)
	}
	sort.Float64s(p50s)
	sort.Float64s(p90s)
	return percentile(p50s, 50), percentile(p90s, 50)
}
