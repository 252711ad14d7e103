package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {2000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("%d samples support p%g, want p%g", c.n, got, c.want)
		}
	}
}

// quartiles must read as Python's statistics.quantiles(v, n=4) does, so
// the A/A table shows the spread the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
	if got := relSpread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of a constant = %g", got)
	}
}

// fakeClock advances only when slept on: a positive sleep overshoots by
// the host's quantum, a zero sleep (the spin step) takes 10 µs.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		c.now = c.now.Add(10 * time.Microsecond)
		return
	}
	c.now = c.now.Add(d + c.overshoot)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: 1100 * time.Microsecond}
	loop := &openLoop{clk: clk, start: start, period: 10 * time.Millisecond, slots: 20, maxLate: time.Second}
	stalled := false
	var dues, fired []time.Time
	loop.run(func(now time.Time) {
		// One 35 ms host stall while waiting for slot 5.
		if !stalled && now.Sub(start) > 45*time.Millisecond {
			stalled = true
			clk.now = clk.now.Add(35 * time.Millisecond)
		}
	}, func(slot int, due time.Time) {
		if want := start.Add(time.Duration(slot) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("slot %d due %v, want %v", slot, due.Sub(start), want.Sub(start))
		}
		dues = append(dues, due)
		fired = append(fired, clk.now)
	})
	if len(dues) != 20 || loop.skipped != 0 {
		t.Fatalf("fired %d slots, skipped %d; want all 20 fired late, none skipped", len(dues), loop.skipped)
	}
	for i, late := range loop.late {
		if got := fired[i].Sub(dues[i]); got != late {
			t.Errorf("slot %d: recorded lateness %v, fired %v after due", i, late, got)
		}
		// Despite the 1.1 ms sleep overshoot an unstalled slot fires within
		// one spin step of its due time. The stall ends about 81 ms in:
		// slots 5-7 are late by what is left of it, not omitted, and slot 8
		// by the last millisecond.
		switch {
		case i >= 5 && i <= 7:
			if late < 5*time.Millisecond {
				t.Errorf("slot %d hides the stall: only %v late", i, late)
			}
		case i != 8 && (late < 0 || late > 20*time.Microsecond):
			t.Errorf("slot %d fired %v late", i, late)
		}
	}
}

func TestOpenLoopSkipsOnlyBeyondMaxLate(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	loop := &openLoop{clk: clk, start: start, period: 10 * time.Millisecond, slots: 200, maxLate: 100 * time.Millisecond}
	stalled := false
	fired := 0
	loop.run(func(now time.Time) {
		if !stalled && now.Sub(start) > 500*time.Millisecond {
			stalled = true
			clk.now = clk.now.Add(300 * time.Millisecond)
		}
	}, func(int, time.Time) { fired++ })
	if loop.skipped == 0 || fired+loop.skipped != 200 {
		t.Errorf("fired %d, skipped %d of 200: a 300 ms stall against a 100 ms limit must skip slots, and every slot is one or the other", fired, loop.skipped)
	}
	for _, late := range loop.late {
		if late > 100*time.Millisecond {
			t.Errorf("fired a slot %v late, past the limit", late)
		}
	}
}

func TestPacedFeedCatchesUp(t *testing.T) {
	start := time.Unix(1000, 0)
	var wrote int
	f := &pacedFeed{frames: [][]byte{{1}, {2}, {3}}, perSec: 1000, start: start,
		write: func(b []byte) error { wrote += len(b); return nil }}
	f.topUp(start.Add(10 * time.Millisecond))
	f.topUp(start.Add(10 * time.Millisecond)) // nothing new is due
	f.topUp(start.Add(50 * time.Millisecond)) // a late wake-up sends the backlog
	if f.sent != 50 || wrote != 50 {
		t.Errorf("sent %d frames (%d bytes) by 50 ms at 1000/s, want 50", f.sent, wrote)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 30, 2: 30, 3: 20, 4: 40, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.table() != nil {
		t.Error("a nil tracer must be inert")
	}
	live := newTracer()
	root := live.begin("root", 0, 0)
	child := live.begin("child", root, root)
	live.end(child)
	live.end(root)
	if live.spans[0].Probe != root || live.spans[1].Probe != root || live.spans[1].Parent != root {
		t.Errorf("spans of one probe must share its root's id: %+v", live.spans)
	}
}

func TestProbeCycle(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := newProbeTenant(probeTenantPlan{Name: "pl-1"})
	if p.canArm() {
		t.Fatal("armed before its total was ever seen")
	}
	p.observe(0, at(0))
	if !p.canArm() {
		t.Fatal("a seen, idle ladder tenant must be armable")
	}
	p.arm(at(10), 0)
	if _, visible := p.observe(0, at(12)); visible {
		t.Fatal("visible though the total has not moved")
	}
	lat, visible := p.observe(4, at(15))
	if !visible || lat != 5*time.Millisecond {
		t.Fatalf("visible %v after %v, want after 5 ms from the due time", visible, lat)
	}
	if p.level() != 1 {
		t.Errorf("level %g after the probe, want 1", p.level())
	}
	if send, failed := p.tick(at(16)); !send || failed {
		t.Fatalf("tick after visible: sendReset %v failed %v", send, failed)
	}
	p.resetSent(at(16))
	p.observe(8, at(20)) // the total still moves until the reset lands
	p.observe(8, at(30))
	if p.tick(at(30)); p.canArm() {
		t.Error("re-armed 14 ms after the reset: it must wait out the 50 ms settle")
	}
	if p.tick(at(500)); p.canArm() {
		t.Error("re-armed on silence: with no event since, the feed may be stalled and the reset not landed")
	}
	p.observe(8, at(70))
	if p.tick(at(70)); !p.canArm() {
		t.Errorf("not re-armable after an event 54 ms past the reset showed the total still for 50 ms (phase %d)", p.phase)
	}
	if p.sent != 2 || p.level() != 0 || p.stepsLeft != probeLadderLen-3 {
		t.Errorf("after one cycle: sent %d level %g steps left %d", p.sent, p.level(), p.stepsLeft)
	}

	// A probe that never becomes visible fails after a second and retires
	// the tenant: its level is no longer known.
	p.arm(at(100), 0)
	if _, failed := p.tick(at(900)); failed {
		t.Error("timed out early")
	}
	if _, failed := p.tick(at(1101)); !failed || p.phase != phaseDead || p.canArm() {
		t.Errorf("no timeout 1001 ms after the due time (phase %d)", p.phase)
	}

	// A ladder tenant stops when it cannot absorb a probe and its reset.
	q := newProbeTenant(probeTenantPlan{Name: "pl-2"})
	q.observe(0, at(0))
	q.stepsLeft = 1
	if q.canArm() {
		t.Error("armed with one ladder step left")
	}

	// A DSL tenant starts at level 1 and must be reset before its first probe.
	d := newProbeTenant(probeTenantPlan{Name: "pd-1", DSL: true})
	d.observe(3, at(0))
	if send, _ := d.tick(at(0)); !send || d.canArm() {
		t.Error("a fresh DSL tenant must ask for a reset first")
	}
}

// A burst that owns two of ten one-second stretches moves the pooled
// p90 but not the median of the stretches' p90s.
func TestWindowMediansShrugOffABurst(t *testing.T) {
	var due, lat []time.Duration
	for w := 0; w < 10; w++ {
		for i := 0; i < 50; i++ {
			d := time.Duration(i%10+1) * time.Millisecond // 1..10 ms, p50 5, p90 9
			if w == 3 || w == 4 {
				d *= 5 // the burst
			}
			due = append(due, time.Duration(w)*time.Second+time.Duration(i)*20*time.Millisecond)
			lat = append(lat, d)
		}
	}
	due, lat = append(due, 10*time.Second), append(lat, time.Second) // a partial last stretch: left out
	p50, p90 := windowMedians(due, lat)
	if p50 != 5 || p90 != 9 {
		t.Errorf("window medians p50 %g p90 %g, want 5 and 9", p50, p90)
	}
	if pooled := percentile(ms(lat), 90); pooled <= 9 {
		t.Errorf("the pooled p90 (%g) should show the burst this test is about", pooled)
	}
	if p50, _ := windowMedians(due[:5], lat[:5]); p50 != 3 {
		t.Errorf("with no full stretch the pooled median stands: got %g, want 3", p50)
	}
}

func TestAppTotalScansOneTenant(t *testing.T) {
	ev := []byte(`{"epochs":12,"totals_per_app":{"bg-1":10.5,"pl-10":7,"pl-1":3e+02},"work_gflop":1}`)
	for name, want := range map[string]float64{"bg-1": 10.5, "pl-1": 300, "pl-10": 7} {
		if got, ok := appTotal(ev, totalKey(name)); !ok || got != want {
			t.Errorf("total of %s = %g (%v), want %g", name, got, ok, want)
		}
	}
	if _, ok := appTotal(ev, totalKey("absent")); ok {
		t.Error("found a tenant that is not in the event")
	}
}

// The same seed gives byte-identical inputs; another seed gives others.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 2)
		c, _ := generate(w, 8, 2)
		ab, _ := a.bytes()
		bb, _ := b.bytes()
		cb, _ := c.bytes()
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: seed 7 generated two different plans", w)
		}
		if bytes.Equal(ab, cb) {
			t.Errorf("%s: seeds 7 and 8 generated the same plan", w)
		}
		for _, arg := range a.ServeArgs {
			if arg == "-protocol" || arg == "-wake" {
				t.Errorf("%s passes the engine selector %s", w, arg)
			}
		}
	}
	if _, err := generate("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the bench
// reports, with the same units.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, the bench has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range bf.EndToEnd {
		if d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], want %s [%s]", i, d.Name, d.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", d.Name, d.Bound, d.Better)
		}
	}
	for i, d := range bf.PerLayer {
		if d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], want %s [%s]", i, d.Name, d.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeAll runs every workload for a second through the real entry
// point: exit 0, every verifier passing, every metric BENCHMARK.json
// names present.
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("starts antarex-serve child processes")
	}
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "bench/run.sh", "--all", "--seconds", "1", "--seed", "3")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench --all: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		name, rest, ok := strings.Cut(line, " {")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte("{"+rest), &r); err != nil {
			t.Fatalf("%s: result line does not parse: %v", name, err)
		}
		seen[name] = true
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", name, r.Correct, r.Failed, r.Attempted)
		}
		for _, d := range bf.EndToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 || math.IsNaN(v.Value) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", name, d.Name, v, ok)
			}
		}
		for _, d := range bf.PerLayer {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", name, d.Name, v, ok)
			}
		}
		// The attribution adds up to the traced pass's own median.
		if sum, want := r.Metrics["walk.sum_ms"].Value+r.Metrics["walk.unattributed_ms"].Value, r.Metrics["react.p50_ms"].Value; math.Abs(sum-want) > 1e-9 {
			t.Errorf("%s: walk.sum_ms + walk.unattributed_ms = %g, react.p50_ms = %g", name, sum, want)
		}
	}
	for _, w := range workloadNames {
		if !seen[w] {
			t.Errorf("no result line for %s", w)
		}
	}
}
