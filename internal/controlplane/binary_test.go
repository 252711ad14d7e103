package controlplane

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/controlplane/wire"
	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// newBinaryPlane is newTestPlane with the server handle exposed, for
// tests that reach into tenant state.
func newBinaryPlane(t *testing.T) (*runtime.Kernel, *Server, *Client) {
	t.Helper()
	rng := simhpc.NewRNG(101)
	cluster := simhpc.NewCluster(4, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	k := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	s := NewServer(k)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return k, s, NewClient(srv.URL, srv.Client())
}

// TestObserveBinary covers the one-shot binary endpoint: accepted
// batches land in the tenant's inbox with JSON-identical accounting,
// and the JSON path's error statuses carry over.
func TestObserveBinary(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "bin"}); err != nil {
		t.Fatal(err)
	}
	batch := []runtime.Sample{
		{Metric: monitor.MetricLatency, Value: 0.5},
		{Metric: monitor.MetricLatency, Value: 0.7},
		{Metric: monitor.MetricPower, Value: 120},
	}
	n, err := c.ObserveBinary("bin", batch)
	if err != nil || n != len(batch) {
		t.Fatalf("ObserveBinary: %d, %v", n, err)
	}
	ra := s.apps["bin"]
	if got := ra.inbox.Len(); got != len(batch) {
		t.Errorf("inbox holds %d samples, want %d", got, len(batch))
	}
	if got := ra.samples.Load(); got != int64(len(batch)) {
		t.Errorf("accepted counter %d, want %d", got, len(batch))
	}

	var api *APIError
	if _, err := c.ObserveBinary("ghost", batch); !asAPI(err, &api) || api.Status != http.StatusNotFound {
		t.Errorf("unknown app: %v, want 404", err)
	}

	// A frame addressed to a different app than the URL names is a 400,
	// not a silent cross-tenant write.
	if _, err := c.Register(AppSpec{Name: "other"}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.NewEncoder().AppendFrame(nil, "other", batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v1/apps/bin/observations:binary", wireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cross-addressed frame: %d, want 400", resp.StatusCode)
	}
	if got := s.apps["other"].inbox.Len(); got != 0 {
		t.Errorf("cross-addressed frame landed %d samples", got)
	}

	// Corrupt bytes are a 400, never a panic.
	resp, err = http.Post(c.base+"/v1/apps/bin/observations:binary", wireContentType, strings.NewReader("\x07garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt frame: %d, want 400", resp.StatusCode)
	}

	// Non-finite values: JSON cannot carry them, so binary must reject
	// them — identically enforced caps.
	if _, err := c.ObserveBinary("bin", []runtime.Sample{{Metric: "m", Value: math.NaN()}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("NaN sample: %v, want 400", err)
	}
	if _, err := c.ObserveBinary("bin", []runtime.Sample{{Metric: "m", Value: math.Inf(-1)}}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Errorf("-Inf sample: %v, want 400", err)
	}
}

// TestObservePooledScratchIsolation: the JSON ingest scratch is pooled
// across requests and tenants, so a request that omits fields must see
// zero values, never a previous request's — json.Unmarshal merges into
// reused slice elements unless they are cleared.
func TestObservePooledScratchIsolation(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "tenant"}); err != nil {
		t.Fatal(err)
	}
	ra := s.apps["tenant"]
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(c.base+"/v1/apps/tenant/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Prime the pooled scratch with a distinctive value, then send a
	// sample omitting "value": it must ingest as 0. Loop to make pool
	// reuse overwhelmingly likely regardless of scheduling.
	for i := 0; i < 8; i++ {
		if resp := post(`{"samples":[{"metric":"secret","value":99.5}]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("prime: %d", resp.StatusCode)
		}
		ra.inbox.Drain(func(string, float64) {})
		if resp := post(`{"samples":[{"metric":"plain"}]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("probe: %d", resp.StatusCode)
		}
		leaked := false
		ra.inbox.Drain(func(metric string, v float64) {
			if metric != "plain" || v != 0 {
				leaked = true
			}
		})
		if leaked {
			t.Fatal("omitted fields inherited a previous request's values through the pool")
		}
		// A sample omitting "metric" must still be rejected even when
		// the pooled element previously held a valid name.
		if resp := post(`{"samples":[{"value":1}]}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("metric-less sample: %d, want 400", resp.StatusCode)
		}
	}
}

// TestObserveBinaryAllOrNothing: a multi-frame one-shot body that
// fails on a later frame admits nothing — the JSON batch semantics, so
// clients can retry the whole body without duplicating samples.
func TestObserveBinaryAllOrNothing(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "atomic"}); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder()
	body, err := enc.AppendFrame(nil, "atomic", []runtime.Sample{{Metric: "m", Value: 1}, {Metric: "m", Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	body, err = enc.AppendFrame(body, "atomic", []runtime.Sample{{Metric: "m", Value: math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v1/apps/atomic/observations:binary", wireContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body with a bad trailing frame: %d, want 400", resp.StatusCode)
	}
	ra := s.apps["atomic"]
	if got := ra.inbox.Len(); got != 0 {
		t.Errorf("rejected body still admitted %d samples", got)
	}
	if got := ra.samples.Load(); got != 0 {
		t.Errorf("rejected body bumped the accepted counter to %d", got)
	}
}

// TestObserveBinaryCardinality: the per-app distinct-metric cap holds
// on the binary path exactly as on JSON, including all-or-nothing
// rejection.
func TestObserveBinaryCardinality(t *testing.T) {
	_, _, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "cardinal"}); err != nil {
		t.Fatal(err)
	}
	over := make([]runtime.Sample, maxMetricsPerApp+1)
	for i := range over {
		over[i] = runtime.Sample{Metric: fmt.Sprintf("m%d", i), Value: 1}
	}
	var api *APIError
	if _, err := c.ObserveBinary("cardinal", over); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("over-cap binary batch: %v, want 400", err)
	}
	if n, err := c.ObserveBinary("cardinal", over[:maxMetricsPerApp]); err != nil || n != maxMetricsPerApp {
		t.Fatalf("at-cap binary batch after rejected one: %d, %v (cardinality slots burned?)", n, err)
	}
}

// TestStreamIngest drives the persistent endpoint end to end: one
// stream multiplexes two tenants, flushes several times, and the
// terminal ack accounts for every sample and frame.
func TestStreamIngest(t *testing.T) {
	k, s, c := newBinaryPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for _, name := range []string{"s0", "s1"} {
		if _, err := c.Register(AppSpec{Name: name, Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	const flushes, perFlush = 20, 8
	for f := 0; f < flushes; f++ {
		for i := 0; i < perFlush; i++ {
			app := fmt.Sprintf("s%d", i%2)
			if err := w.Observe(app, monitor.MetricLatency, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != flushes*perFlush {
		t.Errorf("ack.Accepted = %d, want %d", ack.Accepted, flushes*perFlush)
	}
	// Two apps per flush → two frames per flush.
	if ack.Frames != flushes*2 {
		t.Errorf("ack.Frames = %d, want %d", ack.Frames, flushes*2)
	}
	ra0, ra1 := s.apps["s0"], s.apps["s1"]
	if got := ra0.samples.Load() + ra1.samples.Load(); got != flushes*perFlush {
		t.Errorf("accepted counters sum to %d, want %d", got, flushes*perFlush)
	}
	// The kernel actually collects what the stream pushed.
	waitFor(t, k, "streamed samples collected", func() bool {
		return ra0.inbox.Len() == 0 && ra1.inbox.Len() == 0
	})
}

// TestStreamUnknownApp: a frame for an unregistered app terminates the
// stream and the client surfaces the 404.
func TestStreamUnknownApp(t *testing.T) {
	_, _, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "known"}); err != nil {
		t.Fatal(err)
	}
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe("nobody", monitor.MetricLatency, 1); err != nil {
		t.Fatal(err)
	}
	// The server kills the stream on the bad frame; the write or the
	// close must surface the 404.
	flushErr := w.Flush()
	_, closeErr := w.Close()
	err = flushErr
	if err == nil {
		err = closeErr
	}
	var api *APIError
	if !asAPI(err, &api) || api.Status != http.StatusNotFound {
		t.Errorf("unknown app over stream: flush=%v close=%v, want 404", flushErr, closeErr)
	}
}

// TestStreamBackpressure: with nothing draining, the pending-sample
// bound stalls the stream (flow control) and then terminates it with
// 429 once the stall outlives the limit — same cap as the JSON path,
// different enforcement for a transport that can push back.
func TestStreamBackpressure(t *testing.T) {
	old := streamStallLimit
	streamStallLimit = 50 * time.Millisecond // stopped kernel: fail fast
	defer func() { streamStallLimit = old }()
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "firehose"}); err != nil {
		t.Fatal(err)
	}
	ra := s.apps["firehose"]
	for i := 0; i < maxPendingSamples; i++ {
		ra.inbox.Push(monitor.MetricLatency, 1)
	}
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe("firehose", monitor.MetricLatency, 1); err != nil {
		t.Fatal(err)
	}
	flushErr := w.Flush()
	_, closeErr := w.Close()
	err = flushErr
	if err == nil {
		err = closeErr
	}
	var api *APIError
	if !asAPI(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Errorf("stream at pending cap: flush=%v close=%v, want 429", flushErr, closeErr)
	}
}

// TestStreamFlowControlRecovers: a stream stalled on a full inbox
// resumes without error once the kernel drains — backpressure on the
// persistent path is flow control, not failure.
func TestStreamFlowControlRecovers(t *testing.T) {
	k, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "paced"}); err != nil {
		t.Fatal(err)
	}
	ra := s.apps["paced"]
	for i := 0; i < maxPendingSamples; i++ {
		ra.inbox.Push(monitor.MetricLatency, 1)
	}
	// Drain arrives while the stream frame is waiting out the stall. In
	// the server a drain is always a kernel tick inside an epoch, and the
	// epoch rings the signal the stalled frame waits on. The sleep is the
	// fixture: it lets the frame stall first.
	go func() {
		time.Sleep(30 * time.Millisecond)
		if _, err := k.RunEpoch(60); err != nil {
			t.Errorf("drain epoch: %v", err)
		}
	}()
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe("paced", monitor.MetricLatency, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, err := w.Close()
	if err != nil {
		t.Fatalf("stalled stream did not recover: %v", err)
	}
	if ack.Accepted != 1 {
		t.Errorf("ack.Accepted = %d, want 1", ack.Accepted)
	}
}

// TestStreamStallWaitsOnEvent: a frame stalled on a full inbox of a
// kernel that runs no epochs blocks on the epoch signal, the client's
// context or the stall limit. It must not sleep-poll: sampled while it
// stalls, the handler's goroutine is never in a sleep and is seen
// parked in its select.
func TestStreamStallWaitsOnEvent(t *testing.T) {
	old := streamStallLimit
	streamStallLimit = 400 * time.Millisecond
	defer func() { streamStallLimit = old }()
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "stalled"}); err != nil {
		t.Fatal(err)
	}
	ra := s.apps["stalled"]
	for i := 0; i < maxPendingSamples; i++ {
		ra.inbox.Push(monitor.MetricLatency, 1)
	}
	frame, err := wire.NewEncoder().AppendFrame(nil, "stalled", []runtime.Sample{{Metric: monitor.MetricLatency, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wireContentType)
	type reply struct {
		resp *http.Response
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := c.hc.Do(req)
		done <- reply{resp, err}
	}()

	states := map[string]int{}
	buf := make([]byte, 1<<20)
	var rep reply
sample:
	for {
		select {
		case rep = <-done:
			break sample
		default:
		}
		n := goruntime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if !strings.Contains(g, "(*Server).ingestStream(") {
				continue
			}
			// "goroutine 42 [select]:" — the state sits in the brackets.
			head, _, _ := strings.Cut(g, "\n")
			if i, j := strings.IndexByte(head, '['), strings.IndexByte(head, ']'); i >= 0 && j > i {
				state, _, _ := strings.Cut(head[i+1:j], ",")
				states[state]++
			}
		}
		time.Sleep(5 * time.Millisecond) // the sampling interval: a fixture
	}
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	rep.resp.Body.Close()
	if rep.resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stalled stream: status %d, want 429 after the stall limit", rep.resp.StatusCode)
	}
	if states["sleep"] > 0 || states["select"] == 0 {
		t.Fatalf("stalled handler states %v: want select, never sleep", states)
	}
	t.Logf("stalled handler states over the stall: %v", states)
}

// TestStreamConcurrentWriters is the -race check for one
// ObservationWriter shared by several goroutines while a collector
// drains — the agent-process shape (one stream, many sensors).
func TestStreamConcurrentWriters(t *testing.T) {
	k, _, c := newBinaryPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	if _, err := c.Register(AppSpec{Name: "shared", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
		t.Fatal(err)
	}
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Observe("shared", monitor.MetricLatency, 0.5); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				if i%50 == 0 {
					if err := w.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	ack, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != writers*per {
		t.Errorf("ack.Accepted = %d, want %d", ack.Accepted, writers*per)
	}
}

// TestBinaryIngestNoAlloc pins the server-side funnel the acceptance
// criterion names: steady-state binary frames decode and land in the
// inbox with (amortized) zero allocations per frame — the pooled
// decoder scratch, the interned metric strings and the bulk slot
// claim together.
func TestBinaryIngestNoAlloc(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	ra := s.apps["hot"]

	enc := wire.NewEncoder()
	samples := make([]runtime.Sample, 64)
	for i := range samples {
		samples[i] = runtime.Sample{Metric: monitor.MetricLatency, Value: float64(i)}
	}
	warm, err := enc.AppendFrame(nil, "hot", samples)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := enc.AppendFrame(nil, "hot", samples)
	if err != nil {
		t.Fatal(err)
	}

	var dec wire.Decoder
	r := bytes.NewReader(warm)
	br := bufio.NewReader(r)
	ingestOne := func(stream []byte) {
		r.Reset(stream)
		br.Reset(r)
		app, batch, err := dec.ReadFrame(br)
		if err != nil || app != "hot" {
			t.Fatalf("frame: %q, %v", app, err)
		}
		if err := checkFinite(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.ingest(ra, batch); err != nil {
			t.Fatal(err)
		}
	}
	ingestOne(warm)
	drain := func(string, float64) {}
	ra.inbox.Drain(drain)
	allocs := testing.AllocsPerRun(100, func() {
		ingestOne(steady)
		ra.inbox.Drain(drain)
	})
	// 64-sample frames cross a 256-slot inbox chunk every 4th frame;
	// that amortized chunk is the only permitted allocation.
	if allocs >= 1 {
		t.Errorf("binary ingest allocates %.2f objects/frame, want < 1", allocs)
	}
}

// BenchmarkBinaryIngestFunnel is the allocs/op assertion benchmark for
// one binary-ingested batch: frame decode → hardening checks → bulk
// inbox claim, measured without the HTTP stack (BenchmarkStreamIngest
// in the repo root covers the full network path as K6).
func BenchmarkBinaryIngestFunnel(b *testing.B) {
	rng := simhpc.NewRNG(101)
	cluster := simhpc.NewCluster(4, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	k := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	s := NewServer(k)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Register(AppSpec{Name: "hot"}); err != nil {
		b.Fatal(err)
	}
	ra := s.apps["hot"]

	enc := wire.NewEncoder()
	samples := make([]runtime.Sample, 64)
	for i := range samples {
		samples[i] = runtime.Sample{Metric: monitor.MetricLatency, Value: float64(i)}
	}
	warm, err := enc.AppendFrame(nil, "hot", samples) // defines the dictionaries
	if err != nil {
		b.Fatal(err)
	}
	steady, err := enc.AppendFrame(nil, "hot", samples)
	if err != nil {
		b.Fatal(err)
	}
	var dec wire.Decoder
	r := bytes.NewReader(warm)
	br := bufio.NewReader(r)
	if _, _, err := dec.ReadFrame(br); err != nil {
		b.Fatal(err)
	}
	drain := func(string, float64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(steady)
		br.Reset(r)
		app, batch, err := dec.ReadFrame(br)
		if err != nil || app != "hot" {
			b.Fatalf("frame: %q, %v", app, err)
		}
		if err := checkFinite(batch); err != nil {
			b.Fatal(err)
		}
		if err := s.ingest(ra, batch); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			ra.inbox.Drain(drain) // keep the pending bound from tripping
		}
	}
	b.ReportMetric(64, "samples/op")
}
