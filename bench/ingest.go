package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/controlplane"
)

// runIngest is the mirror of saturate_1k: wire decode, the handlers and
// the inbox do the work while the epoch engine idles at the shipped
// 5 ms pacing. Phase A, half the run, is one closed-loop /v1/stream
// connection of pre-encoded warm frames (4 metrics × 32 samples,
// round-robin over the tenants); phase B one connection of closed-loop
// JSON POSTs of pre-marshalled 128-sample batches. Only phase B is
// probed. Beside the saturating stream of phase A a tick drains some
// 100 k samples and the reaction is CPU-bound (p50 18 ms against 4 ms
// in phase B, measured while sizing): probing both phases made the
// median of a two-humped distribution the gated number, which moved by
// a third between identical runs, and phase A's alone is as unsteady as
// every other CPU-bound number on a shared host.
func runIngest(s *session, dur time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	p := s.plan
	win, err := startWindow(s.proc)
	if err != nil {
		return nil, err
	}

	// Phase A. One write carries every tenant's warm frame; the stream
	// acks only at its end, so the phase ends with Close.
	var round []byte
	for _, f := range p.Feed.Warm {
		round = append(round, f...)
	}
	on0, exact := s.proc.onCPU()
	startA := time.Now()
	var rounds int64
	var werr error
	for time.Since(startA) < dur/2 && werr == nil {
		sp := tr.begin("client.write_round", 0, 0)
		werr = s.feed.Write(round)
		tr.end(sp)
		rounds++
	}
	m.attempted += rounds * int64(len(p.Feed.Warm))
	streamed := s.closeFeed(m, rounds*int64(len(p.Feed.Warm)), werr)
	elapsedA := time.Since(startA).Seconds()
	on1, _ := s.proc.onCPU()

	// Phase B, probed.
	pr, err := newProber(s, tr, 0)
	if err != nil {
		return nil, err
	}
	var (
		load                   = make(chan struct{})
		lat                    []time.Duration
		sentB, ackedB, refused int64
		elapsedB               float64
	)
	go func() {
		defer close(load)
		startB := time.Now()
		for i := 0; time.Since(startB) < dur-dur/2; i++ {
			k := i % len(p.JSONBodies)
			sp := tr.begin("post.observations", 0, 0)
			t0 := time.Now()
			n, status, err := postJSON(s.proc, p.JSONPaths[k], p.JSONBodies[k])
			lat = append(lat, time.Since(t0))
			tr.end(sp)
			m.attempted++
			sentB += 128
			if err != nil {
				m.fail("POST %s: %v", p.JSONPaths[k], err)
				if status == http.StatusTooManyRequests {
					refused++
				}
				continue
			}
			ackedB += int64(n)
		}
		elapsedB = time.Since(startB).Seconds()
	}()
	pr.run(nil)
	<-load
	_, cpuS, err := win.stop(m)
	if err != nil {
		return nil, err
	}
	if err := pr.finish(m); err != nil {
		return nil, err
	}
	cpuA := on1 - on0
	if !exact {
		cpuA = cpuS / 2 // no schedstat: the phases are of equal length
	}
	m.layer["throughput.per_s"] = float64(streamed) / elapsedA
	m.layer["server.cpu_us_per_op"] = cpuA * 1e6 / float64(streamed)
	m.layer["ingest.json_samples_per_s"] = float64(ackedB) / elapsedB
	m.layer["ingest.json_p50_ms"] = percentile(ms(lat), 50)
	m.layer["ingest.json_p90_ms"] = percentile(ms(lat), 90)
	m.layer["server.backpressure_429"] = float64(refused)

	// Verifier: everything sent was acked (closeFeed checked the stream),
	// and the tenants' accepted counters add up to it.
	if err := win.after(m); err != nil {
		return nil, err
	}
	var counted int64
	for _, spec := range p.Tenants {
		counted += win.apps1[spec.Name].Samples
	}
	probed := int64(m.layer["probe.samples"])
	sentA := s.feedSamples + streamed
	m.check(sentB == ackedB && counted == sentA+sentB+probed, "acked %d stream + %d of %d JSON + %d probe samples, tenants counted %d",
		sentA, ackedB, sentB, probed, counted)
	return m, nil
}

// postJSON sends one pre-marshalled observation batch and returns the
// accepted count.
func postJSON(p *serveProc, path string, body []byte) (accepted, status int, err error) {
	resp, err := p.hc.Post(p.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return 0, resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var ack controlplane.ObservationAck
	err = json.NewDecoder(resp.Body).Decode(&ack)
	io.Copy(io.Discard, resp.Body) // to EOF, so the connection is reused
	return ack.Accepted, resp.StatusCode, err
}
