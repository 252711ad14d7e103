package main

import "sort"

// throttledFeedMS is the epochs feed's throttle where epochs run back
// to back or are forced by membership rolls: one event per epoch would
// be hundreds of 13-35 KB events a second, and rendering and scanning
// them — not the loop — would be what the probes time.
const throttledFeedMS = 5

// runSaturate runs unpaced epochs (-interval 0) over two backends: 768
// quiet ladder tenants and 256 hot DSL tenants fed violating samples at
// 100 k samples/s, so the VM decide path runs continuously. Closed by
// construction — epochs run back to back — so the kernel engine does
// nearly all the work and ingest almost none. The probes' feed is the
// read beside the writes.
func runSaturate(s *session, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	p := s.plan
	pr, err := newProber(s, tr, throttledFeedMS)
	if err != nil {
		return nil, err
	}
	win, err := startWindow(s.proc)
	if err != nil {
		return nil, err
	}
	hot := s.pacedFeed()
	pr.run(hot.topUp)
	elapsed, cpuS, err := win.stop(m)
	if err != nil {
		return nil, err
	}
	m.attempted += hot.sent
	s.closeFeed(m, hot.sent, hot.err)
	if err := pr.finish(m); err != nil {
		return nil, err
	}
	if err := win.after(m); err != nil {
		return nil, err
	}

	// Per-tenant epochs over the window, and the period they imply. The
	// two status sweeps that bracket it take a few milliseconds each
	// against a window of seconds.
	var ticks, periodsMS []float64
	var total float64
	for _, spec := range p.Tenants {
		a, b := win.apps0[spec.Name], win.apps1[spec.Name]
		d := float64(b.Ticks - a.Ticks)
		m.check(b.Name == spec.Name && b.Error == "" && d > 0, "tenant %s: error %q, %g epochs", spec.Name, b.Error, d)
		if d > 0 {
			total += d
			ticks = append(ticks, d)
			periodsMS = append(periodsMS, elapsed*1000/d)
		}
	}
	sort.Float64s(ticks)
	sort.Float64s(periodsMS)
	m.layer["throughput.per_s"] = total / elapsed
	m.layer["server.cpu_us_per_op"] = cpuS * 1e6 / total
	m.layer["tenant.epoch_period_p50_ms"] = percentile(periodsMS, 50)
	m.layer["tenant.epoch_period_p90_ms"] = percentile(periodsMS, 90)
	fair := 0.0
	if len(ticks) > 0 {
		fair = ticks[0] / percentile(ticks, 50)
	}
	m.layer["tenant.ticks_min_over_median"] = fair
	m.check(fair >= 0.5, "slowest tenant ran %.2f of the median tenant's epochs", fair)
	h, err := s.proc.health()
	m.check(err == nil && h.Status == "ok" && h.BackendsHealthy == p.Backends,
		"healthz: %+v (%v), want ok with %d healthy backends", h, err, p.Backends)
	return m, nil
}
