package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// feedFloats are per-epoch amounts (and fuzz seeds) that exercise every
// branch of encoding/json's float rule: zero, the 'e' form on both
// sides of the [1e-6, 1e21) window and its edges, subnormals, and
// values whose shortest decimal needs all 17 digits.
var feedFloats = []float64{
	0, 1e-7, 1e21, 1e-6, 1e20, 5e-324, 0.1, 0.2, 1.0 / 3,
	math.Nextafter(1, 2), math.Nextafter(1e21, 0), 2579.0111766816003,
	123456789.125, -1.5e-9,
}

// feedNamePieces build tenant names no validated registration would
// admit but a caller attaching straight to the kernel can: HTML
// characters, quotes, control bytes, invalid UTF-8, U+2028/U+2029.
var feedNamePieces = []string{
	"a", "Z", "0", "-", "_", ".", "<", ">", "&", `"`, `\`, "\n", "\t",
	"\b", "\f", "\x01", "\x1f", "\x7f", "\u00e9", "\u65e5\u672c", "\u2028", "\u2029",
	"\xff", "\xe2\x80", " ",
}

// fixedWork offers one task of g GFlop per epoch.
func fixedWork(g float64) runtime.Workload {
	return func() ([]*simhpc.Task, error) {
		return []*simhpc.Task{{GFlop: g, MemGB: 1}}, nil
	}
}

// checkFeed renders the quiescent kernel's payload through a reused
// feed, a fresh feed and GET /v1/epochs, and compares each byte for
// byte with encoding/json's Encoder over the same status carrying
// TotalsPerApp as a map.
func checkFeed(t *testing.T, s *Server, reused *epochsFeed, stage string) {
	t.Helper()
	st := s.epochsHeader()
	ref := st
	ref.TotalsPerApp = s.kernel.TotalsPerApp()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ref); err != nil {
		t.Fatalf("%s: encoding/json: %v", stage, err)
	}
	for _, f := range []*epochsFeed{reused, new(epochsFeed)} {
		if err := f.render(s.kernel, "", &st); err != nil {
			t.Fatalf("%s: render: %v", stage, err)
		}
		if !bytes.Equal(f.buf, want.Bytes()) {
			t.Fatalf("%s: feed renders\n%q\nencoding/json writes\n%q", stage, f.buf, want.Bytes())
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/epochs", nil))
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("%s: GET /v1/epochs serves\n%q\nencoding/json writes\n%q", stage, rec.Body.Bytes(), want.Bytes())
	}
}

// TestEpochsFeedMatchesEncodingJSON: over generated rosters, the
// reflection-free renderer is byte-identical to encoding/json through
// every ledger shape — empty, live, detached, detached and re-attached
// before and after the fold, a quarantined app, a failed and then
// removed backend — with names that need escaping and totals that hit
// every float-format branch.
func TestEpochsFeedMatchesEncodingJSON(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xfeed))
			fm := &faultManager{inner: testBackend(202)}
			k := runtime.NewKernel(testBackend(101))
			const edge = `edge<&>"`
			if err := k.AddBackend(edge, fm); err != nil {
				t.Fatal(err)
			}
			s := NewServer(k)
			var f epochsFeed
			run := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := k.RunEpoch(60); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkFeed(t, s, &f, "empty roster")

			var names []string
			seen := map[string]bool{}
			for len(names) < 1+rng.IntN(40) {
				var name string
				for j := 1 + rng.IntN(4); j > 0; j-- {
					name += feedNamePieces[rng.IntN(len(feedNamePieces))]
				}
				if seen[name] {
					continue
				}
				seen[name] = true
				names = append(names, name)
				spec := runtime.AppSpec{Name: name, Workload: fixedWork(feedFloats[rng.IntN(len(feedFloats))])}
				if len(names) == 1 {
					spec.Backend = edge // guarantees the fault below has a victim
				}
				if _, err := k.Attach(spec); err != nil {
					t.Fatal(err)
				}
			}
			checkFeed(t, s, &f, "attached, zero totals")
			run(3)
			checkFeed(t, s, &f, "live")

			again := names[rng.IntN(len(names))]
			if err := k.Detach(again); err != nil {
				t.Fatal(err)
			}
			checkFeed(t, s, &f, "detached, before the fold")
			if _, err := k.Attach(runtime.AppSpec{Name: again, Workload: fixedWork(0.3)}); err != nil {
				t.Fatal(err)
			}
			checkFeed(t, s, &f, "re-attached, before the fold")
			run(1) // folds the first lifetime
			checkFeed(t, s, &f, "re-attached, after the fold")

			inbox := &runtime.Inbox{}
			victim, err := k.Attach(runtime.AppSpec{
				Name: "crashy",
				SLA: monitor.SLA{Goals: []monitor.Goal{
					{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
				}},
				Window:   4,
				Debounce: 1,
				Sensor:   inbox,
				Policy: runtime.PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
					panic("bad tenant policy")
				}),
				Workload: fixedWork(1e-7),
			})
			if err != nil {
				t.Fatal(err)
			}
			inbox.Push(monitor.MetricLatency, 3.0)
			run(1)
			if !victim.Quarantined() {
				t.Fatal("panicking policy did not quarantine the app")
			}
			checkFeed(t, s, &f, "quarantined app")

			fm.panicNext.Store(true)
			run(1)
			if _, h, _ := k.BackendState(edge); h != runtime.BackendFailed {
				t.Fatalf("%s health %v after injected panic, want failed", edge, h)
			}
			checkFeed(t, s, &f, "failed backend")
			if err := k.RemoveBackend(edge); err != nil {
				t.Fatal(err)
			}
			run(1)
			checkFeed(t, s, &f, "removed backend")
		})
	}
}

// TestAppendStringJSON pins the string escaper against encoding/json
// on each hostile piece alone and all of them run together.
func TestAppendStringJSON(t *testing.T) {
	all := ""
	for _, p := range append(feedNamePieces, "", "plain", "\xed\xa0\x80", "\U0001F600") {
		all += p
		for _, s := range []string{p, all} {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendStringJSON(nil, s); !bytes.Equal(got, want) {
				t.Errorf("appendStringJSON(%q) = %s, encoding/json %s", s, got, want)
			}
		}
	}
}

// FuzzAppendFloatJSON: for any finite float64 the appender writes
// exactly what json.Marshal does.
func FuzzAppendFloatJSON(f *testing.F) {
	for _, v := range append(feedFloats, math.MaxFloat64, math.SmallestNonzeroFloat64) {
		f.Add(v)
		f.Add(-v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if !finite(v) {
			return // encoding/json refuses these; so does the feed
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloatJSON(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloatJSON(%v) = %s, json.Marshal %s", v, got, want)
		}
	})
}

// TestEpochsRenderAllocsFlat pins the publish cost's shape: with
// membership unchanged, a steady-state SSE render allocates the same at
// 16 and at 1024 tenants — nothing proportional to the roster (what is
// left is per-backend status).
func TestEpochsRenderAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		k := runtime.NewKernel(testBackend(101))
		for i := 0; i < n; i++ {
			if _, err := k.Attach(runtime.AppSpec{Name: fmt.Sprintf("tenant-%04d", i), Workload: fixedWork(0.5)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.RunEpoch(60); err != nil {
			t.Fatal(err)
		}
		s := NewServer(k)
		var f epochsFeed
		render := func() {
			st := s.epochsHeader()
			if err := f.render(k, "event: epochs\ndata: ", &st); err != nil {
				t.Fatal(err)
			}
		}
		render() // grow the buffers, escape the keys
		return testing.AllocsPerRun(50, render)
	}
	if small, large := allocs(16), allocs(1024); small != large {
		t.Errorf("steady-state render allocates %.1f at 16 tenants but %.1f at 1024", small, large)
	}
}

// TestEpochStreamThrottleWindow pins the throttle contract on the sync
// driver, where only the test runs epochs: the window opens at the last
// send, so after a quiet stretch an epoch streams at once; epochs inside
// the window coalesce into one event that carries the latest count and
// leaves an interval after the previous one.
func TestEpochStreamThrottleWindow(t *testing.T) {
	const interval = time.Second
	k := runtime.NewKernel(testBackend(101))
	if _, err := k.Attach(runtime.AppSpec{Name: "app", Workload: fixedWork(1)}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(k))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())

	type frame struct {
		at time.Time
		st EpochsStatus
	}
	frames := make(chan frame, 8)
	ctx, cancel := context.WithCancel(context.Background())
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.StreamEpochs(ctx, interval, func(st EpochsStatus) bool {
			frames <- frame{time.Now(), st}
			return true
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-streamDone
	})
	next := func(what string) frame {
		t.Helper()
		select {
		case f := <-frames:
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("no frame: %s", what)
			return frame{}
		}
	}
	runEpoch := func() {
		t.Helper()
		if _, err := k.RunEpoch(60); err != nil {
			t.Fatal(err)
		}
	}

	if f := next("initial snapshot"); f.st.Epochs != 0 {
		t.Fatalf("initial snapshot at epoch %d, want 0", f.st.Epochs)
	}
	start := time.Now()
	runEpoch()
	first := next("first epoch after a quiet stretch")
	if lag := first.at.Sub(start); lag > interval/4 {
		t.Errorf("first epoch streamed after %v, want well inside the %v interval", lag, interval)
	}
	if first.st.Epochs != 1 {
		t.Fatalf("first event at epoch %d, want 1", first.st.Epochs)
	}

	for i := 0; i < 5; i++ {
		runEpoch()
	}
	second := next("coalesced epochs")
	if second.st.Epochs != 6 {
		t.Errorf("coalesced event at epoch %d, want the latest (6) in one event", second.st.Epochs)
	}
	// The server holds the event until an interval after its previous
	// write; the slack only absorbs this goroutine being scheduled later
	// for the first frame than for the second.
	if gap := second.at.Sub(first.at); gap < interval-10*time.Millisecond {
		t.Errorf("coalesced event %v after the previous one, want >= %v", gap, interval)
	}
}
