package controlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// faultManager wraps a backend so a test can make its next commit
// panic, exercising the failure domain over the wire. onPanic, when set
// before panicNext is armed, runs in the commit just before it panics.
type faultManager struct {
	inner     runtime.Backend
	panicNext atomic.Bool
	onPanic   func()
}

func (f *faultManager) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	if f.panicNext.CompareAndSwap(true, false) {
		if f.onPanic != nil {
			f.onPanic()
		}
		panic("injected fault")
	}
	return f.inner.RunEpoch(dt, offered, workers)
}

func (f *faultManager) Stats() rtrm.Stats { return f.inner.Stats() }

func testBackend(seed uint64) runtime.Backend {
	rng := simhpc.NewRNG(seed)
	cluster := simhpc.NewCluster(4, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	return rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9)
}

// newMultiPlane builds a started 2-backend plane with one registered
// app, returning the kernel, the client and the fault injector wrapped
// around b1.
func newFaultPlane(t *testing.T) (*runtime.Kernel, *Client, *faultManager) {
	t.Helper()
	fm := &faultManager{inner: testBackend(202)}
	k := runtime.NewKernel(testBackend(101))
	if err := k.AddBackend("b1", fm); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(k))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	if err := k.Start(context.Background(), runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Stop)
	if _, err := c.Register(AppSpec{
		Name: "app",
		// Pinned to the injector-wrapped backend so faults actually fire.
		Placement: "b1",
		Workload:  WorkloadSpec{Tasks: 2, GFlop: 4},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "first work", func() bool {
		ep, err := c.Epochs()
		return err == nil && ep.TotalsPerApp["app"] > 0
	})
	return k, c, fm
}

// TestRemoveBackendAPI: DELETE /v1/backends/{id} drains and removes a
// live backend; unknown names 404, the last backend 409.
func TestRemoveBackendAPI(t *testing.T) {
	k, c, _ := newFaultPlane(t)

	if _, err := c.RemoveBackend("nope"); !IsNotFound(err) {
		t.Errorf("remove unknown: %v, want 404", err)
	}
	st, err := c.RemoveBackend("b1")
	if err != nil {
		t.Fatalf("remove b1: %v", err)
	}
	// Sync path (drain settled within the handler's wait) reports the
	// terminal state; the async path reports the in-flight one.
	if st.State != "removed" && st.State != "draining" && st.State != "drained" {
		t.Errorf("remove state = %q", st.State)
	}
	waitFor(t, k, "b1 gone from listings", func() bool {
		bks, err := c.Backends()
		return err == nil && len(bks) == 1 && bks[0].Name == "b0"
	})
	var api *APIError
	if _, err := c.RemoveBackend("b0"); err == nil {
		t.Error("removing the last backend succeeded, want 409")
	} else if !asAPIError(err, &api) || api.Status != http.StatusConflict {
		t.Errorf("remove last: %v, want 409", err)
	}
}

func asAPIError(err error, target **APIError) bool {
	api, ok := err.(*APIError)
	if ok {
		*target = api
	}
	return ok
}

// TestBackendHealthOverWire: a backend panic shows up in /v1/backends
// (health, last_error) and, once no backend is healthy, flips /healthz
// to "degraded" with backends_healthy 0.
func TestBackendHealthOverWire(t *testing.T) {
	k, c, fm := newFaultPlane(t)

	fm.panicNext.Store(true)
	waitFor(t, k, "b1 failed over wire", func() bool {
		bks, err := c.Backends()
		if err != nil {
			return false
		}
		for _, b := range bks {
			if b.Name == "b1" {
				return b.Health == "failed" && strings.Contains(b.LastError, "injected fault")
			}
		}
		return false
	})
	h, err := c.Health()
	if err != nil || h.Status != "ok" || h.BackendsHealthy != 1 {
		t.Fatalf("health with one survivor: %+v, %v", h, err)
	}

	// The failed backend no longer counts as schedulable, so the
	// survivor is now the last one — and undrainable.
	if err := k.DrainBackend("b0"); err == nil {
		t.Fatal("draining the last schedulable backend should refuse")
	}
	if err := k.ReviveBackend("b1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "b1 healthy again over wire", func() bool {
		h, err := c.Health()
		return err == nil && h.BackendsHealthy == 2
	})
}

// TestHealthzDegraded: with every backend failed, /healthz reports
// "degraded" while the plane keeps answering.
func TestHealthzDegraded(t *testing.T) {
	fm := &faultManager{inner: testBackend(202)}
	k := runtime.NewKernel()
	if err := k.AddBackend("b0", fm); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(k))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	if err := k.Start(context.Background(), runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Stop)
	if _, err := c.Register(AppSpec{Name: "app", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "first work", func() bool {
		ep, err := c.Epochs()
		return err == nil && ep.TotalsPerApp["app"] > 0
	})

	fm.panicNext.Store(true)
	waitFor(t, k, "healthz degraded", func() bool {
		h, err := c.Health()
		return err == nil && h.Status == "degraded" && h.BackendsHealthy == 0
	})
	if err := k.ReviveBackend("b0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "healthz ok again", func() bool {
		h, err := c.Health()
		return err == nil && h.Status == "ok"
	})
}

// TestAppStatusCarriesDropNote: Stop during a total outage writes the
// parked batch off, and the app's wire status carries the write-off
// note in its error field. The name predates the park being the only
// no-healthy-backends behaviour (a fail-fast policy used to write
// batches off at once); the note it checks is the one that remains, so
// the test keeps its ID.
func TestAppStatusCarriesDropNote(t *testing.T) {
	fm := &faultManager{inner: testBackend(202)}
	k := runtime.NewKernel()
	if err := k.AddBackend("b0", fm); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(k))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	if err := k.Start(context.Background(), runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Stop)
	if _, err := c.Register(AppSpec{Name: "app", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, k, "first work", func() bool {
		ep, err := c.Epochs()
		return err == nil && ep.TotalsPerApp["app"] > 0
	})

	// One app runs on one loop, which ticks and then commits, so the
	// tick count read in the panicking commit is that epoch's. A later
	// tick is the loop past its last stop check after the failure: its
	// batch parks (or, if Stop gets there first, finds the generation
	// over) and Stop writes it off either way.
	ctl := k.App("app")
	var failedAt atomic.Int64
	fm.onPanic = func() { failedAt.Store(ctl.Ticks()) }
	fm.panicNext.Store(true)
	// A poll: a tick whose batch parks rings nothing, since its epoch
	// never executes.
	pollFor(t, "the next batch to park", func() bool {
		at := failedAt.Load()
		return at > 0 && k.HealthyBackends() == 0 && ctl.Ticks() > at
	})
	before, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	k.Stop()

	st, err := c.App("app")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Error, "no healthy backends") {
		t.Errorf("wire error = %q, want the drop note", st.Error)
	}
	if err := k.Err(); !errors.Is(err, runtime.ErrNoHealthyBackends) {
		t.Errorf("kernel Err = %v, want ErrNoHealthyBackends", err)
	}
	after, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if got, was := after.TotalsPerApp["app"], before.TotalsPerApp["app"]; got < was {
		t.Errorf("offered totals went back at the write-off: %v -> %v", was, got)
	}
}

// TestSSEBackendEvents: backend state transitions arrive as dedicated
// "backend" SSE frames on the epoch stream, outside the epoch throttle.
func TestSSEBackendEvents(t *testing.T) {
	k, c, _ := newFaultPlane(t)

	// A one-second throttle: the backend frame must cut through it.
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/epochs/stream?interval_ms=1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The handler subscribes before it writes the initial epochs frame,
	// so once that frame is read the transition cannot be missed.
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	initial := false
	for !initial && scanner.Scan() {
		initial = strings.HasPrefix(scanner.Text(), "data: ")
	}
	if !initial {
		t.Fatalf("no initial epochs frame (scan err %v)", scanner.Err())
	}
	go func() {
		_ = k.RemoveBackend("b1")
	}()

	sawBackendEvent := false
	var data string
	for scanner.Scan() {
		line := scanner.Text()
		if line == "event: backend" {
			sawBackendEvent = true
		}
		if sawBackendEvent && strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if !sawBackendEvent {
		t.Fatalf("no backend SSE frame before stream end (scan err %v)", scanner.Err())
	}
	if !strings.Contains(data, `"backend":"b1"`) || !strings.Contains(data, `"state":"draining"`) {
		t.Errorf("backend event payload = %s", data)
	}
}

// TestClientRetriesIdempotent: GETs ride out transient 503s with
// backoff; mutating requests surface them at once.
func TestClientRetriesIdempotent(t *testing.T) {
	var gets, posts atomic.Int32
	backendJSON := `{"status":"ok","running":true,"apps":0,"backends":1,"backends_healthy":1,"epochs":0,"generation":0,"served_generation":0}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			if gets.Add(1) <= 2 {
				http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, backendJSON)
		default:
			posts.Add(1)
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())

	h, err := c.Health()
	if err != nil {
		t.Fatalf("health after transient 503s: %v", err)
	}
	if h.Status != "ok" || gets.Load() != 3 {
		t.Errorf("status %q after %d attempts, want ok after 3", h.Status, gets.Load())
	}

	// Writes run exactly once: the 503 surfaces immediately.
	if _, err := c.Register(AppSpec{Name: "x"}); err == nil {
		t.Error("mutating request swallowed a 503")
	}
	if posts.Load() != 1 {
		t.Errorf("mutating request ran %d times, want 1", posts.Load())
	}
}

// TestStreamFlushRedials: a broken stream connection does not lose the
// buffered samples — Flush re-dials and re-sends them, and the totals
// land on the app.
func TestStreamFlushRedials(t *testing.T) {
	_, c, _ := newFaultPlane(t)

	var killFirst atomic.Bool
	killFirst.Store(true)
	// Proxy in front of the real plane: the first stream POST is
	// rejected before the plane sees a frame, simulating a dropped
	// connection mid-stream.
	inner := c.hc.Transport
	if inner == nil {
		inner = http.DefaultTransport
	}
	c.hc = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasSuffix(r.URL.Path, "/v1/stream") && killFirst.CompareAndSwap(true, false) {
			r.Body.Close()
			return nil, fmt.Errorf("proxy: connection reset")
		}
		return inner.RoundTrip(r)
	})}

	w, err := c.Stream()
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Observe("app", "latency", float64(i)); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after reset: %v", err)
	}
	ack, err := w.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if ack.Accepted != 5 {
		t.Errorf("accepted %d samples, want 5", ack.Accepted)
	}
	// A poll: samples are counted at ingest, which rings no kernel event.
	pollFor(t, "samples on app status", func() bool {
		st, err := c.App("app")
		return err == nil && st.Samples == 5
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
