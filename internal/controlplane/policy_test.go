package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// steerPolicy sheds load proportionally to the violation: each firing
// decision multiplies the current level down: straight-line arithmetic
// over one knob and the violation input, one slice per decision.
const steerPolicy = `
aspectdef Steer
	input gain end
	apply
		do Scale('level', gain);
	end
	condition violation > 0 end
end
`

// recursivePolicy has an aspect-call cycle: its decision is unbounded,
// yet admission accepts it — the fuel budget and the call-depth limit
// bound it at run time.
const recursivePolicy = `
aspectdef Ping
	call Pong();
	apply
		do Hold();
	end
end
aspectdef Pong
	call Ping();
end
`

// TestPolicyDSLEndToEnd is the tentpole acceptance path: a tenant
// POSTs a DSL policy, the compiled program steers the level knob under
// a violated SLA, GET round-trips the compiled-policy status, and a
// PUT hot-swap replaces the program without dropping the app's
// observations or counters.
func TestPolicyDSLEndToEnd(t *testing.T) {
	k, c := newTestPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	st, err := c.Register(AppSpec{
		Name:     "steered",
		Window:   8,
		Debounce: 1,
		Goals:    []GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: WorkloadSpec{Tasks: 2, GFlop: 4},
		Policy: &PolicySpec{
			Type:   PolicyDSL,
			Source: steerPolicy,
			Params: map[string]float64{"gain": 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Type != PolicyDSL {
		t.Fatalf("register status policy = %+v, want dsl", st.Policy)
	}
	if st.Level != 1 {
		t.Fatalf("initial level = %g, want 1", st.Level)
	}

	// GET round-trips the compiled policy's source hash.
	st, err = c.App("steered")
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil {
		t.Fatal("GET reports no policy")
	}
	if !strings.HasPrefix(st.Policy.SourceHash, "sha256:") {
		t.Errorf("source hash = %q, want sha256:...", st.Policy.SourceHash)
	}
	if st.Policy.Swaps != 0 {
		t.Errorf("swaps = %d before any PUT", st.Policy.Swaps)
	}

	// Violate the SLA until the compiled policy halves the level.
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	go func() {
		for streamCtx.Err() == nil {
			_, _ = c.Observe("steered", []Observation{
				{Metric: monitor.MetricLatency, Value: 5},
				{Metric: monitor.MetricLatency, Value: 5},
			})
			time.Sleep(time.Millisecond) // producer pacing, a fixture: a steady feed, not a wait
		}
	}()
	waitFor(t, k, "dsl policy steering the level down", func() bool {
		st, err := c.App("steered")
		return err == nil && st.Adaptations > 0 && st.Level <= 0.5
	})

	// Hot-swap to a recovery policy that pins the level back up. The
	// app keeps its identity: samples and ticks never reset.
	before, err := c.App("steered")
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.PutPolicy("steered", PolicySpec{
		Type: PolicyDSL,
		Source: `
aspectdef Recover
	apply
		do Set('level', 1);
	end
	condition violation > 0 end
end
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Swaps != 1 {
		t.Fatalf("post-swap policy status = %+v, want swaps 1", st.Policy)
	}
	if st.Samples < before.Samples || st.Ticks < before.Ticks {
		t.Fatalf("swap dropped history: samples %d→%d ticks %d→%d",
			before.Samples, st.Samples, before.Ticks, st.Ticks)
	}
	waitFor(t, k, "replacement policy restoring the level", func() bool {
		st, err := c.App("steered")
		return err == nil && st.Level == 1
	})

	// Swap to the ladder arm: the discriminated API covers both.
	st, err = c.PutPolicy("steered", PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Type != PolicyLadder || st.Policy.Swaps != 2 {
		t.Fatalf("ladder swap status = %+v", st.Policy)
	}
	waitFor(t, k, "ladder stepping down", func() bool {
		st, err := c.App("steered")
		return err == nil && st.Level == 0.25
	})
}

// TestPolicyCompileErrorEnvelope: a DSL policy that fails admission
// answers 400 with code "compile_error" and positioned diagnostics in
// the detail payload — both through the typed client and on the raw
// wire shape.
func TestPolicyCompileErrorEnvelope(t *testing.T) {
	_, c := newTestPlane(t)
	_, err := c.Register(AppSpec{
		Name:   "broken",
		Policy: &PolicySpec{Type: PolicyDSL, Source: "aspectdef A\n\tapply\n\t\tdo Nonsense(1);\n\tend\nend\n"},
	})
	if !IsCompileError(err) {
		t.Fatalf("register with bad policy: %v, want compile_error", err)
	}
	var api *APIError
	if !asAPI(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("compile error status: %v, want 400", err)
	}
	diags := api.CompileDiags()
	if len(diags) == 0 {
		t.Fatal("no diagnostics in detail payload")
	}
	if diags[0].Line != 3 || !strings.Contains(diags[0].Msg, "Nonsense") {
		t.Errorf("diag = %+v, want line 3 mentioning Nonsense", diags[0])
	}

	// A policy touching a knob the app does not expose is a compile
	// error too (the knob checker runs at admission).
	_, err = c.Register(AppSpec{
		Name:   "wrongknob",
		Policy: &PolicySpec{Type: PolicyDSL, Source: "aspectdef A\n\tapply\n\t\tdo Set('levle', 2);\n\tend\nend\n"},
	})
	if !IsCompileError(err) {
		t.Fatalf("unknown knob: %v, want compile_error", err)
	}

	// Raw wire shape: {"error": {"code", "message", "detail"}}.
	resp, err := http.Post(c.base+"/v1/apps", "application/json",
		strings.NewReader(`{"name":"raw","policy":{"type":"dsl","source":"aspectdef A\n\tselect x\nend\n"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw status = %d, want 400", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  []struct {
				Line int    `json:"line"`
				Col  int    `json:"col"`
				Msg  string `json:"msg"`
			} `json:"detail"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeCompileError || envelope.Error.Message == "" {
		t.Fatalf("envelope = %+v", envelope.Error)
	}
	if len(envelope.Error.Detail) == 0 || envelope.Error.Detail[0].Line == 0 {
		t.Fatalf("detail diagnostics = %+v, want positioned entries", envelope.Error.Detail)
	}
}

// TestPolicyLevelsAlias: the removed top-level levels field is a 400
// whose message points at the canonical location (policy.levels) —
// with or without a policy object alongside it.
func TestPolicyLevelsAlias(t *testing.T) {
	_, c := newTestPlane(t)
	var api *APIError
	_, err := c.Register(AppSpec{Name: "legacy", Levels: []float64{1, 0.5}})
	if !asAPI(err, &api) || api.Status != http.StatusBadRequest || api.Code != CodeBadRequest {
		t.Fatalf("legacy levels: %v, want 400 bad_request", err)
	}
	if !strings.Contains(api.Msg, "policy.levels") {
		t.Fatalf("rejection %q does not point at policy.levels", api.Msg)
	}
	_, err = c.Register(AppSpec{
		Name:   "both",
		Levels: []float64{1},
		Policy: &PolicySpec{Type: PolicyLadder, Levels: []float64{1}},
	})
	if !asAPI(err, &api) || api.Status != http.StatusBadRequest || api.Code != CodeBadRequest {
		t.Fatalf("levels+policy: %v, want 400 bad_request", err)
	}
	// The canonical spelling registers fine.
	st, err := c.Register(AppSpec{
		Name:   "canonical",
		Policy: &PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Type != PolicyLadder || len(st.Policy.Levels) != 2 {
		t.Fatalf("canonical policy = %+v", st.Policy)
	}
}

// TestPolicyValidation covers the discriminated-spec admission bounds.
func TestPolicyValidation(t *testing.T) {
	_, c := newTestPlane(t)
	cases := []struct {
		name string
		p    PolicySpec
	}{
		{"unknown type", PolicySpec{Type: "pid"}},
		{"empty type", PolicySpec{}},
		{"ladder without levels", PolicySpec{Type: PolicyLadder}},
		{"ladder with source", PolicySpec{Type: PolicyLadder, Levels: []float64{1}, Source: "x"}},
		{"ladder negative level", PolicySpec{Type: PolicyLadder, Levels: []float64{1, -2}}},
		{"dsl without source", PolicySpec{Type: PolicyDSL}},
		{"dsl with levels", PolicySpec{Type: PolicyDSL, Source: steerPolicy, Levels: []float64{1}}},
		{"dsl oversized source", PolicySpec{Type: PolicyDSL, Source: strings.Repeat("x", maxPolicySource+1)}},
		{"dsl non-finite param", PolicySpec{Type: PolicyDSL, Source: steerPolicy,
			Params: map[string]float64{"gain": 1e300}}},
	}
	var api *APIError
	for _, tc := range cases {
		p := tc.p
		if _, err := c.Register(AppSpec{Name: "v", Policy: &p}); !asAPI(err, &api) || api.Status != http.StatusBadRequest {
			t.Errorf("%s: %v, want 400", tc.name, err)
		}
	}
}

// TestPolicyIsolatedOverAPI: an unbounded policy (aspect recursion) is
// admitted like any other, reports the shared fuel budget and decision
// deadline, and detaches with nothing to tear down.
func TestPolicyIsolatedOverAPI(t *testing.T) {
	_, c := newTestPlane(t)
	st, err := c.Register(AppSpec{
		Name:   "runaway",
		Policy: &PolicySpec{Type: PolicyDSL, Source: recursivePolicy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Type != PolicyDSL || st.Policy.FuelBudget != 1<<20 {
		t.Fatalf("policy status = %+v, want a dsl policy on the 2^20 fuel budget", st.Policy)
	}
	if err := c.Detach("runaway"); err != nil {
		t.Fatal(err) // the policy owns nothing detach must tear down
	}
}

// TestErrorEnvelopeCodes audits the envelope's machine-readable code on
// every error family the API answers with: 400, 401, 404, 409, 429.
func TestErrorEnvelopeCodes(t *testing.T) {
	rng := simhpc.NewRNG(7)
	cluster := simhpc.NewCluster(2, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	k := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	s := NewServer(k, WithAuthToken("sesame"))
	srv := httptest.NewServer(s)
	defer srv.Close()

	unauth := NewClient(srv.URL, srv.Client())
	var api *APIError
	if _, err := unauth.Register(AppSpec{Name: "a"}); !asAPI(err, &api) ||
		api.Status != http.StatusUnauthorized || api.Code != CodeUnauthorized {
		t.Errorf("no token: %v, want 401 unauthorized", err)
	}

	c := NewClient(srv.URL, srv.Client())
	c.SetAuthToken("sesame")
	if _, err := c.Register(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(AppSpec{Name: "a"}); !asAPI(err, &api) ||
		api.Status != http.StatusConflict || api.Code != CodeConflict {
		t.Errorf("duplicate: %v, want 409 conflict", err)
	}
	if _, err := c.Register(AppSpec{Name: ""}); !asAPI(err, &api) ||
		api.Status != http.StatusBadRequest || api.Code != CodeBadRequest {
		t.Errorf("empty name: %v, want 400 bad_request", err)
	}
	if _, err := c.App("ghost"); !asAPI(err, &api) ||
		api.Status != http.StatusNotFound || api.Code != CodeNotFound {
		t.Errorf("unknown app: %v, want 404 not_found", err)
	}
	if _, err := c.PutPolicy("ghost", PolicySpec{Type: PolicyLadder, Levels: []float64{1}}); !asAPI(err, &api) ||
		api.Status != http.StatusNotFound || api.Code != CodeNotFound {
		t.Errorf("put policy on unknown app: %v, want 404 not_found", err)
	}
	// Backpressure: fill the inbox with the kernel stopped.
	ra := s.apps["a"]
	for i := 0; i < maxPendingSamples; i++ {
		ra.inbox.Push(monitor.MetricLatency, 1)
	}
	if _, err := c.Observe("a", []Observation{{Metric: monitor.MetricLatency, Value: 1}}); !asAPI(err, &api) ||
		api.Status != http.StatusTooManyRequests || api.Code != CodeBackpressure {
		t.Errorf("full inbox: %v, want 429 backpressure", err)
	}
}

// TestPolicyFuelMetrics: GET /v1/apps/{id} surfaces the compiled
// policy's execution accounting — decisions, fuel budget and the
// last/max per-decision fuel spends — once the kernel has ticked the
// policy a few times. The fuel counters are the near-quarantine early
// warning (FuelUsedMax creeping toward FuelBudget).
func TestPolicyFuelMetrics(t *testing.T) {
	k, c := newTestPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	if _, err := c.Register(AppSpec{
		Name:     "fueled",
		Window:   8,
		Debounce: 1,
		Goals:    []GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Policy: &PolicySpec{
			Type:   PolicyDSL,
			Source: steerPolicy,
			Params: map[string]float64{"gain": 0.5},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The decide loop only runs on arriving samples: keep violating the
	// SLA until a few decisions have been accounted.
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	go func() {
		for streamCtx.Err() == nil {
			_, _ = c.Observe("fueled", []Observation{
				{Metric: monitor.MetricLatency, Value: 5},
				{Metric: monitor.MetricLatency, Value: 5},
			})
			time.Sleep(time.Millisecond) // producer pacing, a fixture: a steady feed, not a wait
		}
	}()
	var st AppStatus
	waitFor(t, k, "policy decisions accumulating", func() bool {
		var err error
		st, err = c.App("fueled")
		return err == nil && st.Policy != nil && st.Policy.Decisions > 2
	})
	stopStream()
	p := st.Policy
	if p.FuelBudget <= 0 {
		t.Errorf("fuel_budget = %d, want > 0", p.FuelBudget)
	}
	if p.FuelUsedLast <= 0 || p.FuelUsedLast > p.FuelBudget {
		t.Errorf("fuel_used_last = %d, want in (0, %d]", p.FuelUsedLast, p.FuelBudget)
	}
	if p.FuelUsedMax < p.FuelUsedLast {
		t.Errorf("fuel_used_max %d < fuel_used_last %d", p.FuelUsedMax, p.FuelUsedLast)
	}
	// Every dsl policy runs under the same deadline; a one-slice
	// decision is never late.
	if p.DecisionDeadlineTicks != 10 || p.DeadlineDrops != 0 {
		t.Errorf("deadline accounting = %d ticks, %d drops; want 10, 0", p.DecisionDeadlineTicks, p.DeadlineDrops)
	}
	// The ladder arm reports no fuel accounting at all.
	lst, err := c.Register(AppSpec{
		Name:   "laddered",
		Policy: &PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lp := lst.Policy; lp.FuelBudget != 0 || lp.Decisions != 0 {
		t.Errorf("ladder policy reports fuel accounting: %+v", lp)
	}
}

// TestPolicyDeadlineMetrics: an unbounded (recursive) policy reports
// its decision deadline, counted in its own ticks, through the status
// endpoint.
func TestPolicyDeadlineMetrics(t *testing.T) {
	_, c := newTestPlane(t)
	st, err := c.Register(AppSpec{
		Name:   "unbounded",
		Policy: &PolicySpec{Type: PolicyDSL, Source: recursivePolicy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil {
		t.Fatal("no policy status")
	}
	if st.Policy.DecisionDeadlineTicks != 10 {
		t.Errorf("decision_deadline_ticks = %d, want 10", st.Policy.DecisionDeadlineTicks)
	}
}

// TestIsolatedPolicyAdaptsUnderKernel: an `apply dynamic` policy's
// decision runs on a running kernel's tick and lands: the level it
// writes is applied.
func TestIsolatedPolicyAdaptsUnderKernel(t *testing.T) {
	k, c := newTestPlane(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	st, err := c.Register(AppSpec{
		Name:     "dynamic",
		Window:   8,
		Debounce: 1,
		Goals:    []GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: WorkloadSpec{Tasks: 2, GFlop: 4},
		Policy: &PolicySpec{Type: PolicyDSL, Source: `
aspectdef Shed
	apply dynamic
		do Set('level', 0.25);
	end
	condition violation > 0 end
end
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy == nil || st.Policy.Type != PolicyDSL || st.Level != 1 {
		t.Fatalf("registered %+v at level %g, want a dsl policy at 1", st.Policy, st.Level)
	}
	if _, err := c.Observe("dynamic", []Observation{
		{Metric: monitor.MetricLatency, Value: 5},
		{Metric: monitor.MetricLatency, Value: 5},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "the dynamic decision applied", func() bool {
		st, err = c.App("dynamic")
		return err == nil && st.Adaptations > 0 && st.Level == 0.25
	})
	if p := st.Policy; p.Decisions < 1 || p.DeadlineDrops != 0 {
		t.Errorf("policy status = %+v, want a decision and no drops", p)
	}
}
