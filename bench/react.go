package main

// runReact is the paper's loop as a tenant experiences it, at the
// shipped pacing (-interval 5ms, one backend): 64 background ladder
// tenants fed in-SLA samples at a fixed 100 k samples/s over one binary
// stream, and 100 probes/s. The background feed is paced by the same
// goroutine that paces the probes.
func runReact(s *session, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	pr, err := newProber(s, tr, 0)
	if err != nil {
		return nil, err
	}
	win, err := startWindow(s.proc)
	if err != nil {
		return nil, err
	}
	bg := s.pacedFeed()
	pr.run(bg.topUp)
	elapsed, cpuS, err := win.stop(m)
	if err != nil {
		return nil, err
	}
	delivered := s.closeFeed(m, bg.sent, bg.err)
	if err := pr.finish(m); err != nil {
		return nil, err
	}
	// The operation here is a delivered sample: the load is fixed, so CPU
	// per sample is efficiency at fixed offered load.
	ops := float64(delivered) + m.layer["probe.samples"]
	m.layer["throughput.per_s"] = ops / elapsed
	m.layer["server.cpu_us_per_op"] = cpuS * 1e6 / ops
	return m, win.after(m)
}
