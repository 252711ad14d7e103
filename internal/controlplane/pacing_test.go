package controlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
)

// waitEpoch blocks on the kernel's epoch signal — never on a sleep —
// until cond holds. Safe off the test goroutine: it reports instead of
// failing the test itself.
func waitEpoch(k *runtime.Kernel, cond func() bool) bool {
	sig, cancel := k.EpochSignal()
	defer cancel()
	timeout := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-sig:
		case <-timeout:
			return false
		}
	}
	return true
}

// probeSpec is the benchmark's probe tenant: every violating sample is
// one tick's violation, one fire, one step along the ladder.
func probeSpec(name string) AppSpec {
	levels := make([]float64, maxLevels)
	for i := range levels {
		levels[i] = float64(1 + i%2)
	}
	return AppSpec{Name: name, Window: 1, Debounce: 1,
		Goals:    []GoalSpec{{Metric: "token", Target: 0.5}},
		Workload: WorkloadSpec{Tasks: 1, GFlop: 1},
		Policy:   &PolicySpec{Type: PolicyLadder, Levels: levels}}
}

// TestPacedIngestNudges: on a plane whose pacing timer cannot fire
// within the test, one sample beyond the tenant's SLA target — through
// each of the three ingest routes — is actuated and committed by an
// early epoch, while in-SLA traffic rings nothing.
func TestPacedIngestNudges(t *testing.T) {
	routes := []struct {
		name string
		// send delivers the batch; acked reports whether the server has
		// ingested it by the time send returns.
		send  func(c *Client, w *ObservationWriter, samples []runtime.Sample) error
		acked bool
	}{
		{"json", func(c *Client, _ *ObservationWriter, samples []runtime.Sample) error {
			obs := make([]Observation, len(samples))
			for i, s := range samples {
				obs[i] = Observation{Metric: s.Metric, Value: s.Value}
			}
			_, err := c.Observe("probe", obs)
			return err
		}, true},
		{"binary", func(c *Client, _ *ObservationWriter, samples []runtime.Sample) error {
			_, err := c.ObserveBinary("probe", samples)
			return err
		}, true},
		{"stream", func(_ *Client, w *ObservationWriter, samples []runtime.Sample) error {
			for _, s := range samples {
				if err := w.Observe("probe", s.Metric, s.Value); err != nil {
					return err
				}
			}
			return w.Flush()
		}, false},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			k, c := newTestPlane(t)
			if err := k.Start(context.Background(), runtime.Options{Interval: time.Hour}); err != nil {
				t.Fatal(err)
			}
			defer k.Stop()
			if _, err := c.Register(probeSpec("probe")); err != nil {
				t.Fatal(err)
			}
			ctl := k.App("probe")
			if !waitEpoch(k, func() bool { return k.ServedGeneration() >= k.Generation() && k.Epochs() >= 1 }) {
				t.Fatal("the tenant's generation never ran its first epoch")
			}
			w, err := c.Stream()
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			quiet := []runtime.Sample{{Metric: "token", Value: 0.1}, {Metric: "token", Value: 0.5}, {Metric: "other", Value: 9}}
			if err := route.send(c, w, quiet); err != nil {
				t.Fatal(err)
			}
			if route.acked && k.EarlyEpochs() != 0 {
				t.Fatalf("an in-SLA batch rang the kernel (EarlyEpochs %d)", k.EarlyEpochs())
			}
			total := k.TotalFor("probe")
			if err := route.send(c, w, []runtime.Sample{{Metric: "token", Value: 1}}); err != nil {
				t.Fatal(err)
			}
			if !waitEpoch(k, func() bool { return ctl.Adaptations() == 1 && k.TotalFor("probe") > total }) {
				t.Fatalf("no early epoch: adaptations %d, total %g -> %g, EarlyEpochs %d",
					ctl.Adaptations(), total, k.TotalFor("probe"), k.EarlyEpochs())
			}
			// Exactly one ring: the in-SLA batch (ingested first on every
			// route, the stream included — frames are handled in order)
			// contributed none.
			if got := k.EarlyEpochs(); got != 1 {
				t.Errorf("EarlyEpochs() = %d, want 1", got)
			}
			if st, err := c.App("probe"); err != nil || st.Level != 2 || st.Adaptations != 1 {
				t.Errorf("status after the probe: %+v, %v; want level 2 after 1 adaptation", st, err)
			}
		})
	}
}

// TestPacedProbeCycleStress is the benchmark's probe verifier run
// in-process under the race detector: several producers each walk their
// own tenant through send → wait for Adaptations to advance → send, on
// a plane paced slowly enough that honoured nudges, dropped nudges and
// paced ticks all interleave. No sample may be lost, doubled or left in
// an inbox.
func TestPacedProbeCycleStress(t *testing.T) {
	const producers, samples = 4, 24
	k, s, c := newBinaryPlane(t)
	if err := k.Start(context.Background(), runtime.Options{Interval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for p := 0; p < producers; p++ {
		if _, err := c.Register(probeSpec(fmt.Sprintf("probe%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("probe%d", p)
			ctl := k.App(name)
			for i := int64(1); i <= samples; i++ {
				var err error
				if (int64(p)+i)%2 == 0 {
					_, err = c.Observe(name, []Observation{{Metric: "token", Value: 1}})
				} else {
					_, err = c.ObserveBinary(name, []runtime.Sample{{Metric: "token", Value: 1}})
				}
				if err != nil {
					t.Errorf("%s sample %d: %v", name, i, err)
					return
				}
				if !waitEpoch(k, func() bool { return ctl.Adaptations() >= i }) {
					t.Errorf("%s: sample %d never actuated (adaptations %d)", name, i, ctl.Adaptations())
					return
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < producers; p++ {
		ra := s.lookupApp(fmt.Sprintf("probe%d", p))
		if got := ra.ctl.Adaptations(); got != samples {
			t.Errorf("%s: %d adaptations for %d samples", ra.spec.Name, got, samples)
		}
		if n := ra.inbox.Len(); n != 0 {
			t.Errorf("%s: %d samples left in the inbox", ra.spec.Name, n)
		}
	}
	if k.EarlyEpochs() == 0 {
		t.Error("no nudge was honoured: the stress never exercised the early wake")
	}
}

// TestPacedFloodVictim: one tenant streams violations on a paced plane,
// a few frames after every epoch, so the pacer's bucket is spent as fast
// as it refills. Another tenant's single violation is still actuated
// within one interval plus an epoch — its own nudge is usually dropped,
// and the paced tick drains it — and every nudge the flood and the
// victim make is counted once, as honoured or dropped.
func TestPacedFloodVictim(t *testing.T) {
	const (
		interval = 25 * time.Millisecond
		probes   = 5
		frames   = 8 // flood frames per epoch: twice the pacer's burst
	)
	k, c := newTestPlane(t)
	for _, name := range []string{"flood", "victim"} {
		if _, err := c.Register(probeSpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), runtime.Options{Interval: interval}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	victim := k.App("victim")
	if !waitEpoch(k, func() bool { return k.Epochs() >= 1 }) {
		t.Fatal("the plane never ran its first epoch")
	}

	w, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stop := make(chan struct{})
	stopFlood := sync.OnceFunc(func() { close(stop) })
	defer stopFlood()
	flooded := make(chan error, 1)
	sig, cancel := k.EpochSignal()
	defer cancel()
	go func() {
		for {
			for i := 0; i < frames; i++ {
				if err := w.Observe("flood", "token", 1); err != nil {
					flooded <- err
					return
				}
				if err := w.Flush(); err != nil {
					flooded <- err
					return
				}
			}
			select {
			case <-stop:
				flooded <- nil
				return
			case <-sig:
			}
		}
	}()
	if !waitEpoch(k, func() bool { return k.DroppedNudges() > 0 }) {
		t.Fatal("the flood never emptied the pacer's bucket")
	}

	// An epoch here costs well under a millisecond; the allowance for it
	// is a whole interval so a loaded host does not fail the test.
	limit := interval + interval
	for i := int64(1); i <= probes; i++ {
		if _, err := c.ObserveBinary("victim", []runtime.Sample{{Metric: "token", Value: 1}}); err != nil {
			t.Fatal(err)
		}
		sent := time.Now() // the sample is in the inbox once the route acks
		if !waitEpoch(k, func() bool { return victim.Adaptations() >= i }) {
			t.Fatalf("victim violation %d never actuated", i)
		}
		if lat := time.Since(sent); lat > limit {
			t.Errorf("victim violation %d actuated after %v under the flood, want within %v", i, lat, limit)
		}
	}

	stopFlood()
	if err := <-flooded; err != nil {
		t.Fatal(err)
	}
	ack, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	honoured, dropped := k.EarlyEpochs(), k.DroppedNudges()
	if calls := ack.Frames + probes; honoured+dropped != calls {
		t.Errorf("honoured %d + dropped %d = %d nudges, want one per violating batch, %d", honoured, dropped, honoured+dropped, calls)
	}
	t.Logf("%d flood frames: %d nudges honoured, %d dropped", ack.Frames, honoured, dropped)
}

// TestPacedQuietTicks: on a paced plane, a tenant that receives nothing
// takes the quiet path on every tick after its first, while a tenant
// sent an in-SLA batch before every one of its ticks takes the full
// analyse pass almost every time; both counts reach GET /v1/apps as
// quiet_ticks.
func TestPacedQuietTicks(t *testing.T) {
	k, c := newTestPlane(t)
	// The interval leaves a slow host room for the batch's round trip
	// between the fed tenant's full tick and the next paced tick.
	if err := k.Start(context.Background(), runtime.Options{Interval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for _, name := range []string{"idle", "fed"} {
		spec := probeSpec(name)
		spec.Goals[0].Target = 10 // the batches below stay within it
		if _, err := c.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	fed := k.App("fed")
	waitFor(t, k, "both tenants ticked", func() bool {
		return k.App("idle").Ticks() >= 2 && fed.Ticks() >= 2
	})
	// full counts the fed tenant's full ticks, never more than have run:
	// a tick bumps ticks before quietTicks, so reading ticks first can
	// only undercount.
	full := func() int64 { n := fed.Ticks(); return n - fed.QuietTicks() }
	ticks0, quiet0 := fed.Ticks(), fed.QuietTicks()
	const rounds = 30
	batch := []runtime.Sample{{Metric: "token", Value: 1}, {Metric: "other", Value: 2}}
	for i := 0; i < rounds; i++ {
		before := full()
		if _, err := c.ObserveBinary("fed", batch); err != nil {
			t.Fatal(err)
		}
		waitFor(t, k, "a full tick of the fed tenant", func() bool { return full() > before })
	}
	k.Stop()

	apps, err := c.Apps()
	if err != nil {
		t.Fatal(err)
	}
	st := map[string]AppStatus{}
	for _, a := range apps {
		st[a.Name] = a
	}
	if idle := st["idle"]; idle.QuietTicks < idle.Ticks-1 || idle.Ticks < rounds {
		t.Errorf("idle tenant: quiet_ticks %d of %d ticks, want all but the first", idle.QuietTicks, idle.Ticks)
	}
	ticks, quiet := st["fed"].Ticks-ticks0, st["fed"].QuietTicks-quiet0
	if ticks < rounds || 4*quiet > ticks {
		t.Errorf("fed tenant: %d of %d ticks quiet over %d rounds, want at most a quarter", quiet, ticks, rounds)
	}
	t.Logf("idle %d/%d quiet; fed %d/%d quiet over %d rounds", st["idle"].QuietTicks, st["idle"].Ticks, quiet, ticks, rounds)
}
