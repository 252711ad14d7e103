package controlplane

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/runtime"
)

// newMultiPlane spins a control plane over a kernel with two declared
// backends ("cool" at 15C deferring nothing, "hot" at 40C deferring
// ~35% through MS3) and the given placement policy.
func newMultiPlane(t *testing.T, placement runtime.Placement, opts ...ServerOption) (*runtime.Kernel, *Client) {
	t.Helper()
	k := runtime.NewKernel(
		BuildBackend(BackendSpec{Name: "cool", Nodes: 4, AmbientC: 15}),
	)
	if err := k.AddBackend("hot", BuildBackend(BackendSpec{Name: "hot", Nodes: 4, AmbientC: 40})); err != nil {
		t.Fatal(err)
	}
	if placement != nil {
		k.SetPlacement(placement)
	}
	srv := httptest.NewServer(NewServer(k, opts...))
	t.Cleanup(srv.Close)
	return k, NewClient(srv.URL, srv.Client())
}

// TestBackendsAPI covers the backend surface: listing, live creation,
// the placement hint round-trip, per-backend stats in /v1/epochs, and
// the validation failures.
func TestBackendsAPI(t *testing.T) {
	k, c := newMultiPlane(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	bks, err := c.Backends()
	if err != nil {
		t.Fatal(err)
	}
	if len(bks) != 2 || bks[0].Name != "b0" || bks[1].Name != "hot" {
		t.Fatalf("backends: %+v", bks)
	}
	if h, err := c.Health(); err != nil || h.Backends != 2 {
		t.Fatalf("health backends: %+v, %v", h, err)
	}

	// A tenant pinned to the hot site reports its backend once placed.
	if _, err := c.Register(AppSpec{
		Name:      "pinned",
		Placement: "hot",
		Workload:  WorkloadSpec{Tasks: 2, GFlop: 4},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "pinned tenant placed", func() bool {
		st, err := c.App("pinned")
		return err == nil && st.Backend == "hot"
	})
	waitFor(t, k, "hot backend worked", func() bool {
		ep, err := c.Epochs()
		if err != nil || len(ep.Backends) != 2 {
			return false
		}
		hot := ep.Backends[1]
		return hot.Name == "hot" && hot.Apps == 1 && hot.WorkGFlop+hot.DeferredGFlop > 0
	})

	// Live backend creation joins the routing set and serves new pins.
	st, err := c.AddBackend(BackendSpec{Name: "edge", Nodes: 2, AmbientC: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "edge" {
		t.Fatalf("created backend: %+v", st)
	}
	if _, err := c.AddBackend(BackendSpec{Name: "edge"}); err == nil {
		t.Error("duplicate backend name accepted")
	} else if api := err.(*APIError); api.Status != http.StatusConflict {
		t.Errorf("duplicate backend status %d, want 409", api.Status)
	}
	if _, err := c.Register(AppSpec{Name: "edgy", Placement: "edge"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "edge tenant placed", func() bool {
		st, err := c.App("edgy")
		return err == nil && st.Backend == "edge"
	})

	// Validation: unknown placement hints and hostile backend specs.
	for _, tc := range []struct {
		name string
		spec AppSpec
	}{
		{"unknown placement", AppSpec{Name: "x", Placement: "nowhere"}},
		{"bad placement name", AppSpec{Name: "x", Placement: "a/b"}},
	} {
		if _, err := c.Register(tc.spec); err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if api := err.(*APIError); api.Status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, api.Status)
		}
	}
	for _, spec := range []BackendSpec{
		{Name: ""},
		{Name: "ok", Nodes: 100000},
		{Name: "ok", Nodes: -1},
		{Name: "ok", AmbientC: 500},
		{Name: "ok", CapFrac: 2},
		{Name: "ok", CapFrac: -0.5},
		{Name: "ok", Vary: 1.5},
		{Name: "ok", Vary: -0.1},
	} {
		if _, err := c.AddBackend(spec); err == nil {
			t.Errorf("backend spec %+v accepted", spec)
		} else if api := err.(*APIError); api.Status != http.StatusBadRequest {
			t.Errorf("backend spec %+v: status %d, want 400", spec, api.Status)
		}
	}
}

// TestSLAAwareSteeringOverHTTP: the full multi-backend story through
// the API — least-loaded placement puts one tenant on the hot site,
// SLA-aware steering migrates it off at a generation boundary, and the
// move is visible in the tenant's reported backend.
func TestSLAAwareSteeringOverHTTP(t *testing.T) {
	k, c := newMultiPlane(t, &runtime.SLAAware{MaxDeferredFrac: 0.05, Patience: 2, Cooldown: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	for _, name := range []string{"t0", "t1"} {
		if _, err := c.Register(AppSpec{Name: name, Workload: WorkloadSpec{Tasks: 2, GFlop: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded spreads t0/t1 across cool+hot; steering then drains
	// the hot site. End state: both tenants report the cool backend.
	waitFor(t, k, "steering drained the hot site", func() bool {
		for _, name := range []string{"t0", "t1"} {
			st, err := c.App(name)
			if err != nil || st.Backend != "b0" {
				return false
			}
		}
		return true
	})
	// The hot backend really served work before the migration.
	ep, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	hot := ep.Backends[1]
	if hot.WorkGFlop+hot.DeferredGFlop <= 0 {
		t.Errorf("hot backend never ran: %+v", hot)
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochStream: the SSE feed replaces polling — events arrive as
// epochs advance, carry the full EpochsStatus payload, and the stream
// ends cleanly when the consumer stops.
func TestEpochStream(t *testing.T) {
	k, c := newMultiPlane(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	if _, err := c.Register(AppSpec{Name: "ticker", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
		t.Fatal(err)
	}

	var events []EpochsStatus
	err := c.StreamEpochs(ctx, 5*time.Millisecond, func(st EpochsStatus) bool {
		events = append(events, st)
		return len(events) < 3
	})
	if err != nil {
		t.Fatalf("epoch stream: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Epochs <= events[i-1].Epochs {
			t.Errorf("event %d did not advance: %d -> %d", i, events[i-1].Epochs, events[i].Epochs)
		}
	}
	last := events[len(events)-1]
	if len(last.Backends) != 2 || last.Apps != 1 {
		t.Errorf("event payload incomplete: %+v", last)
	}

	// A consumer cancelled mid-stream (here: from its first callback)
	// surfaces ctx.Err, not a decode error.
	cctx, ccancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.StreamEpochs(cctx, time.Millisecond, func(EpochsStatus) bool {
			ccancel()
			return true
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Errorf("cancelled stream returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream never returned")
	}

	// Bad throttle values are rejected.
	resp, err := http.Get(strings.TrimRight(c.base, "/") + "/v1/epochs/stream?interval_ms=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad interval_ms: status %d, want 400", resp.StatusCode)
	}
}

// TestIngressAuth: with -auth-token armed, every mutating route 401s
// without the bearer token, read routes stay open, and an authorized
// client works end to end (JSON, binary and the persistent stream).
func TestIngressAuth(t *testing.T) {
	const token = "s3cret"
	k, c := newMultiPlane(t, nil, WithAuthToken(token))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	// Reads are open without a token.
	if _, err := c.Health(); err != nil {
		t.Fatalf("unauthenticated health: %v", err)
	}
	if _, err := c.Backends(); err != nil {
		t.Fatalf("unauthenticated backends list: %v", err)
	}

	// Every mutating call 401s without (or with a wrong) token.
	wants401 := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded without token", what)
			return
		}
		api, ok := err.(*APIError)
		if !ok || api.Status != http.StatusUnauthorized {
			t.Fatalf("%s: %v, want 401", what, err)
		}
	}
	_, err := c.Register(AppSpec{Name: "t"})
	wants401("register", err)
	wants401("detach", c.Detach("t"))
	_, err = c.Observe("t", []Observation{{Metric: monitor.MetricLatency, Value: 1}})
	wants401("observe", err)
	_, err = c.ObserveBinary("t", []runtime.Sample{{Metric: monitor.MetricLatency, Value: 1}})
	wants401("observe binary", err)
	_, err = c.AddBackend(BackendSpec{Name: "x"})
	wants401("add backend", err)
	c.SetAuthToken("wrong-" + token)
	_, err = c.Register(AppSpec{Name: "t"})
	wants401("register with wrong token", err)

	// The authorized client exercises the full lifecycle.
	c.SetAuthToken(token)
	if _, err := c.Register(AppSpec{Name: "t", Placement: "hot"}); err != nil {
		t.Fatalf("authorized register: %v", err)
	}
	if _, err := c.Observe("t", []Observation{{Metric: monitor.MetricLatency, Value: 1}}); err != nil {
		t.Fatalf("authorized observe: %v", err)
	}
	if _, err := c.ObserveBinary("t", []runtime.Sample{{Metric: monitor.MetricLatency, Value: 1}}); err != nil {
		t.Fatalf("authorized binary observe: %v", err)
	}
	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe("t", monitor.MetricLatency, 0.5); err != nil {
		t.Fatal(err)
	}
	if ack, err := w.Close(); err != nil || ack.Accepted != 1 {
		t.Fatalf("authorized stream: ack %+v, %v", ack, err)
	}
	if err := c.Detach("t"); err != nil {
		t.Fatalf("authorized detach: %v", err)
	}

	// An unauthorized persistent stream dies with 401 too.
	c.SetAuthToken("")
	w, err = c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Close()
	if err == nil {
		t.Fatal("unauthenticated stream accepted")
	}
	if api, ok := err.(*APIError); !ok || api.Status != http.StatusUnauthorized {
		t.Errorf("unauthenticated stream: %v, want 401", err)
	}
}
