package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/controlplane/wire"
	"repro/internal/monitor"
	"repro/internal/runtime"
)

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := newTokenBucket(&QuotaSpec{Rate: 10, Burst: 5}, t0)

	if ok, _ := tb.take(5, t0); !ok {
		t.Fatal("full bucket refused a burst-sized batch")
	}
	ok, wait := tb.take(1, t0)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s] for 1 token at rate 10", wait)
	}
	// Refill: 0.5 s at rate 10 = 5 tokens.
	if ok, _ := tb.take(5, t0.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled bucket refused")
	}

	// Oversized batch: need > burst is admitted from a FULL bucket
	// (going negative) — rejecting it forever would be a liveness bug.
	tb = newTokenBucket(&QuotaSpec{Rate: 10, Burst: 5}, t0)
	if ok, _ := tb.take(64, t0); !ok {
		t.Fatal("oversized batch refused from a full bucket")
	}
	if ok, wait := tb.take(1, t0); ok || wait <= 0 {
		t.Fatalf("bucket in debt admitted (wait %v)", wait)
	}
	// The debt drains at rate: 59 tokens short for the next 1-token
	// take at min(1, burst)=1 target → (1-(-59))/10 = 6 s.
	if _, wait := tb.take(1, t0); wait < 5*time.Second {
		t.Fatalf("debt retry hint %v, want ~6s", wait)
	}

	// Default burst = max(rate, 1).
	tb = newTokenBucket(&QuotaSpec{Rate: 40}, t0)
	if tb.burst != 40 {
		t.Fatalf("default burst = %g, want rate", tb.burst)
	}
	if nb := newTokenBucket(nil, t0); nb != nil {
		t.Fatal("nil quota built a bucket")
	}
	var nilTB *tokenBucket
	if ok, _ := nilTB.take(1000, t0); !ok {
		t.Fatal("nil bucket must admit everything")
	}
}

func TestQuotaValidation(t *testing.T) {
	_, c := newTestPlane(t)
	var api *APIError
	for _, q := range []QuotaSpec{
		{Rate: 0},
		{Rate: -5},
		{Rate: 1e12},
		{Rate: 10, Burst: -1},
	} {
		_, err := c.Register(AppSpec{Name: "q", Quota: &q})
		if !asAPI(err, &api) || api.Status != http.StatusBadRequest {
			t.Errorf("quota %+v: %v, want 400", q, err)
		}
	}
}

// quotaPlane registers one tenant with a tiny quota on a plane whose
// kernel is NOT running — nothing drains, so only the quota (not the
// inbox cap) shapes the outcome at these batch sizes.
func quotaPlane(t *testing.T) (*Server, *Client, string) {
	t.Helper()
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{
		Name:  "metered",
		Quota: &QuotaSpec{Rate: 1, Burst: 4},
	}); err != nil {
		t.Fatal(err)
	}
	return s, c, "metered"
}

// drainBucket spends the tenant's burst allowance directly so each
// path's test starts from an empty bucket without racing the clock.
func drainBucket(t *testing.T, s *Server, name string) {
	t.Helper()
	ra := s.lookupApp(name)
	if ra == nil || ra.quota == nil {
		t.Fatal("metered app has no bucket")
	}
	ra.quota.mu.Lock()
	ra.quota.tokens = 0
	ra.quota.last = time.Now()
	ra.quota.mu.Unlock()
}

// checkQuota429 asserts the uniform rejection shape: HTTP 429, the
// same "backpressure" envelope code every path uses, and a positive
// Retry-After the client surfaces as APIError.RetryAfter.
func checkQuota429(t *testing.T, path string, err error) {
	t.Helper()
	var api *APIError
	if !errors.As(err, &api) {
		t.Fatalf("%s: error %v is not an APIError", path, err)
	}
	if api.Status != http.StatusTooManyRequests {
		t.Fatalf("%s: status %d, want 429", path, api.Status)
	}
	if api.Code != CodeBackpressure {
		t.Fatalf("%s: code %q, want %q", path, api.Code, CodeBackpressure)
	}
	if api.RetryAfter < time.Second {
		t.Fatalf("%s: Retry-After %v, want >= 1s", path, api.RetryAfter)
	}
}

// TestQuotaParityAcrossIngestPaths: all three observation paths charge
// the same bucket and refuse with the identical envelope — JSON,
// binary one-shot, and the persistent stream (which must 429
// immediately instead of stalling on its flow-control loop).
func TestQuotaParityAcrossIngestPaths(t *testing.T) {
	s, c, name := quotaPlane(t)
	samples := []Observation{{Metric: monitor.MetricLatency, Value: 1}}
	binSamples := []runtime.Sample{{Metric: monitor.MetricLatency, Value: 1}}

	// Within burst: all three paths admit.
	if n, err := c.Observe(name, samples); err != nil || n != 1 {
		t.Fatalf("JSON within quota: %d, %v", n, err)
	}
	if n, err := c.ObserveBinary(name, binSamples); err != nil || n != 1 {
		t.Fatalf("binary within quota: %d, %v", n, err)
	}

	drainBucket(t, s, name)
	_, err := c.Observe(name, samples)
	checkQuota429(t, "JSON", err)

	drainBucket(t, s, name)
	_, err = c.ObserveBinary(name, binSamples)
	checkQuota429(t, "binary", err)

	// The stream: post a raw frame body so the server's terminal error
	// is observed without the client's retry machinery. The 429 must be
	// immediate — a stalling stream would hold this request for
	// streamStallLimit (5s), so the elapsed bound is also the assertion
	// that the quota bypasses the flow-control stall.
	drainBucket(t, s, name)
	start := time.Now()
	err = postRawStream(t, c, name, binSamples)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stream 429 took %v — the quota stalled instead of failing fast", elapsed)
	}
	checkQuota429(t, "stream", err)
}

// postRawStream sends one encoded frame to POST /v1/stream and decodes
// the terminal response like the client's error path would.
func postRawStream(t *testing.T, c *Client, app string, samples []runtime.Sample) error {
	t.Helper()
	frame, err := wire.NewEncoder().AppendFrame(nil, app, samples)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wireContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	var ack StreamAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return nil
}

// TestQuotaStreamResumes: a stream refused with 429 succeeds when the
// client comes back after Retry-After — the throttle is a pause, not a
// ban.
func TestQuotaStreamResumes(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{
		Name:  "resumer",
		Quota: &QuotaSpec{Rate: 8, Burst: 8},
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([]runtime.Sample, 8)
	for i := range batch {
		batch[i] = runtime.Sample{Metric: monitor.MetricLatency, Value: 1}
	}
	if err := postRawStream(t, c, "resumer", batch); err != nil {
		t.Fatalf("first stream within burst: %v", err)
	}
	err := postRawStream(t, c, "resumer", batch)
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota stream: %v, want 429", err)
	}
	// At rate 8 the 8-token shortfall refills in 1 s, so the refusal
	// above holds however late a loaded host sends the second stream
	// (at rate 5000 a 1.6 ms gap refilled it). The test shortcuts the
	// wait via the bucket clock rather than sleeping the full second.
	ra := s.lookupApp("resumer")
	ra.quota.mu.Lock()
	ra.quota.last = ra.quota.last.Add(-time.Second)
	ra.quota.mu.Unlock()
	if err := postRawStream(t, c, "resumer", batch); err != nil {
		t.Fatalf("stream after Retry-After: %v", err)
	}
}

// TestQuotaOversizedBatchLiveness: a batch larger than the entire
// bucket is admitted from a full bucket (going negative) — otherwise
// it could never be ingested at all — and sustained throughput still
// converges on the configured rate because the debt must drain first.
func TestQuotaOversizedBatchLiveness(t *testing.T) {
	_, s, c := newBinaryPlane(t)
	if _, err := c.Register(AppSpec{
		Name:  "bulk",
		Quota: &QuotaSpec{Rate: 10, Burst: 4},
	}); err != nil {
		t.Fatal(err)
	}
	big := make([]Observation, 64)
	for i := range big {
		big[i] = Observation{Metric: monitor.MetricLatency, Value: 1}
	}
	if n, err := c.Observe("bulk", big); err != nil || n != 64 {
		t.Fatalf("oversized batch from full bucket: %d, %v", n, err)
	}
	// Deep in debt now: even one sample is refused, with a hint long
	// enough to cover the debt.
	_, err := c.Observe("bulk", big[:1])
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Fatalf("in-debt observe: %v, want 429", err)
	}
	if api.RetryAfter < 5*time.Second {
		t.Fatalf("debt Retry-After %v, want >= 5s (60 tokens at rate 10)", api.RetryAfter)
	}
	if got := s.lookupApp("bulk").samples.Load(); got != 64 {
		t.Fatalf("accepted %d samples, want exactly the oversized batch", got)
	}
}
