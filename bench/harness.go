package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/controlplane"
)

// setupRuns is how many times a run boots and registers the whole
// plane: setup_s is their median, and the last one is measured on.
const setupRuns = 5

// measurement is what one pass of a workload yields.
type measurement struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	// notes says what failed, for the human-readable report.
	notes []string
	// invalid marks a run whose generator ran late or skipped slots: its
	// numbers would blame the server for the generator's fault.
	invalid bool
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one verifier assertion.
func (m *measurement) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(format, args...)
	}
}

// fail counts one failed operation that was already counted as
// attempted.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 20 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// session is one booted, registered, settled plane.
type session struct {
	env  *env
	plan *plan
	proc *serveProc
	args []string
	// feed is the plan's binary stream, dictionaries already defined;
	// feedSamples counts what the cold frames carried.
	feed        *rawStream
	feedSamples int64
	dataDir     string
	setupS      float64
}

// setup boots a server and brings the plan's plane up: server start →
// every tenant registered → streams open → the loops serve the final
// membership generation. That span is one setup_s sample.
func (e *env) setup(p *plan) (*session, error) {
	s := &session{env: e, plan: p, args: append([]string(nil), p.ServeArgs...)}
	if p.Durable {
		e.dataDirs++ // a fresh journal every time: a reused one would be recovered
		s.dataDir = filepath.Join(e.workDir, fmt.Sprintf("data-%d", e.dataDirs))
		s.args = append(s.args, "-data-dir", s.dataDir)
	}
	t0 := time.Now()
	proc, err := e.startServe(s.args, 0)
	if err != nil {
		return nil, err
	}
	s.proc = proc
	for _, spec := range p.Tenants {
		if _, err := proc.client.Register(spec); err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", spec.Name, err)
		}
	}
	s.feed = openStream(proc)
	if err := s.feed.Write(p.Feed.Cold); err != nil {
		s.close()
		return nil, fmt.Errorf("define stream dictionaries: %w", err)
	}
	s.feedSamples = int64(len(p.Feed.Warm) * p.Feed.SamplesPerFrame)
	if err := proc.settled(); err != nil {
		s.close()
		return nil, err
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// pacedFeed paces the plan's warm frames up the session's stream from
// now on.
func (s *session) pacedFeed() *pacedFeed {
	f := s.plan.Feed
	return &pacedFeed{frames: f.Warm, perSec: f.PerSec / float64(f.SamplesPerFrame), write: s.feed.Write, start: time.Now()}
}

// closeFeed ends the session's stream after frames warm frames were
// written and checks that the server acked every sample sent, the cold
// frames' included. It returns the samples acked beyond those.
func (s *session) closeFeed(m *measurement, frames int64, writeErr error) int64 {
	ack, err := s.feed.Close()
	s.feed = nil
	sent := s.feedSamples + frames*int64(s.plan.Feed.SamplesPerFrame)
	m.check(err == nil && writeErr == nil && ack.Accepted == sent, "ingest stream: sent %d acked %d (%v, %v)", sent, ack.Accepted, err, writeErr)
	return ack.Accepted - s.feedSamples
}

// close kills the server and waits for it; an open feed ends with it.
func (s *session) close() {
	if s.feed != nil {
		s.feed.pw.Close()
	}
	s.proc.kill()
	if s.feed != nil {
		<-s.feed.done
	}
}

// runWorkload is one full pass: set the plane up setupRuns times, run
// the timed workload on the last one, verify, tear down.
func (e *env) runWorkload(name string, seed uint64, seconds float64, tr *tracer) (*measurement, error) {
	p, err := generate(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var s *session
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		if s, err = e.setup(p); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, s.setupS)
	}
	defer func() { s.close() }()

	var m *measurement
	dur := time.Duration(seconds * float64(time.Second))
	switch name {
	case wReact:
		m, err = runReact(s, tr)
	case wSaturate:
		m, err = runSaturate(s, tr)
	case wIngest:
		m, err = runIngest(s, dur, tr)
	case wChurn:
		m, err = runChurn(s, dur, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sort.Float64s(setups)
	m.e2e["setup_s"] = percentile(setups, 50)
	m.layer["build_s"] = e.buildS
	return m, nil
}

// appsByName reads every tenant's status (GET /v1/apps).
func appsByName(p *serveProc) (map[string]controlplane.AppStatus, error) {
	apps, err := p.client.Apps()
	if err != nil {
		return nil, err
	}
	out := make(map[string]controlplane.AppStatus, len(apps))
	for _, a := range apps {
		out[a.Name] = a
	}
	return out, nil
}

// window is one timed stretch of a run: the server's and the
// generator's CPU, the kernel's counters and the policies' execution
// counters are read at its ends.
type window struct {
	proc                   *serveProc
	start                  time.Time
	user0, sys0, on0, gen0 float64
	epochs0, gen           int64
	apps0, apps1           map[string]controlplane.AppStatus // every tenant's status at the ends
	elapsed                float64

	// rss0 is the resident set when the window opens: the set-up,
	// settled plane before any load. rss are the samples under load, one
	// every rssEvery.
	rss0    float64
	rss     []float64
	rssStop chan struct{}
	rssDone chan struct{}
}

// rssEvery paces the resident-set sampler.
const rssEvery = 100 * time.Millisecond

func startWindow(p *serveProc) (*window, error) {
	ep, err := p.client.Epochs()
	if err != nil {
		return nil, err
	}
	apps, err := appsByName(p)
	if err != nil {
		return nil, err
	}
	u, s, err := p.cpu()
	if err != nil {
		return nil, err
	}
	on, _ := p.onCPU()
	rss0, _, err := p.rssMB()
	if err != nil {
		return nil, err
	}
	w := &window{rss0: rss0, proc: p, start: time.Now(), user0: u, sys0: s, on0: on, gen0: selfCPU(),
		epochs0: ep.Epochs, gen: ep.Generation, apps0: apps,
		rssStop: make(chan struct{}), rssDone: make(chan struct{})}
	go func() {
		defer close(w.rssDone)
		for {
			select {
			case <-w.rssStop:
				return
			case <-time.After(rssEvery):
			}
			if now, _, err := p.rssMB(); err == nil {
				w.rss = append(w.rss, now)
			}
		}
	}()
	return w, nil
}

// stop ends the window: it records the CPU and the kernel counters into
// the per-layer metrics and returns the window's length and the
// server's CPU seconds in it (see onCPU for which clock).
func (w *window) stop(m *measurement) (elapsed, cpuS float64, err error) {
	u, s, err := w.proc.cpu()
	if err != nil {
		return 0, 0, err
	}
	on, exact := w.proc.onCPU()
	w.elapsed = time.Since(w.start).Seconds()
	close(w.rssStop)
	<-w.rssDone
	m.layer["server.cpu_user_s"] += u - w.user0
	m.layer["server.cpu_sys_s"] += s - w.sys0
	m.layer["gen.cpu_s"] += selfCPU() - w.gen0
	ep, err := w.proc.client.Epochs()
	if err != nil {
		return 0, 0, err
	}
	m.layer["server.epochs_per_s"] = float64(ep.Epochs-w.epochs0) / w.elapsed
	m.layer["server.gen_rolls"] = float64(ep.Generation - w.gen)
	cpuS = (u - w.user0) + (s - w.sys0)
	if exact {
		cpuS = on - w.on0
	}
	return w.elapsed, cpuS, nil
}

// after reads what is read once the workload's streams are closed: the
// DSL policies' execution counters over the window and the server's
// resident set.
func (w *window) after(m *measurement) error {
	var err error
	if w.apps1, err = appsByName(w.proc); err != nil {
		return err
	}
	var decisions, fuel, fuelled float64
	for name, st := range w.apps1 {
		if st.Policy == nil || st.Policy.Decisions == 0 {
			continue
		}
		decisions += float64(st.Policy.Decisions)
		if st0 := w.apps0[name]; st0.Policy != nil {
			decisions -= float64(st0.Policy.Decisions)
		}
		fuel += float64(st.Policy.FuelUsedLast)
		fuelled++
	}
	m.layer["policy.decisions_per_s"] = decisions / w.elapsed
	if fuelled > 0 {
		m.layer["policy.fuel_per_decision"] = fuel / fuelled
	}
	// The gated number is the footprint of the set-up plane before load —
	// what its tenants and backends cost to hold. Under ingest's load the
	// resident set follows the garbage collector's timing: its peak moved
	// by 7-27 % and its median by 7-22 % between identical runs, so both
	// are per-layer.
	now, peak, err := w.proc.rssMB()
	w.rss = append(w.rss, now)
	sort.Float64s(w.rss)
	m.e2e["server_rss_mb"] = w.rss0
	m.layer["server.rss_load_mb"] = percentile(w.rss, 50)
	m.layer["server.rss_peak_mb"] = peak
	return err
}
