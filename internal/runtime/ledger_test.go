package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/simhpc"
)

// fixedWorkSpec is an app offering one task of g GFlop every epoch, so
// its total after n epochs is a known float sum.
func fixedWorkSpec(name string, g float64) AppSpec {
	return AppSpec{
		Name: name,
		Workload: func() ([]*simhpc.Task, error) {
			return []*simhpc.Task{{GFlop: g, MemGB: 1}}, nil
		},
	}
}

// referenceTotals is the ledger read without the index: a map filled
// under k.mu in the documented association — detached, then each
// pending-retire controller in detach order, then the live one.
func referenceTotals(k *Kernel) map[string]float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]float64, len(k.detachedTotals)+len(k.apps))
	for n, g := range k.detachedTotals {
		out[n] = g
	}
	for _, ctl := range k.pendingRetire {
		out[ctl.Name()] += ctl.totalGFlop()
	}
	for _, ctl := range k.apps {
		out[ctl.Name()] += ctl.totalGFlop()
	}
	return out
}

// checkLedger asserts AppendTotals is name-sorted and bit-identical to
// the reference read, and that TotalsPerApp and TotalFor agree with it.
func checkLedger(t *testing.T, k *Kernel, stage string) []AppTotal {
	t.Helper()
	want := referenceTotals(k)
	got := k.AppendTotals(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d totals, want %d", stage, len(got), len(want))
	}
	tp := k.TotalsPerApp()
	for i, at := range got {
		if i > 0 && got[i-1].Name >= at.Name {
			t.Errorf("%s: %q before %q: not name-sorted", stage, got[i-1].Name, at.Name)
		}
		bits := math.Float64bits(at.GFlop)
		if w, ok := want[at.Name]; !ok || math.Float64bits(w) != bits {
			t.Errorf("%s: %q = %v, reference %v", stage, at.Name, at.GFlop, w)
		}
		if math.Float64bits(tp[at.Name]) != bits {
			t.Errorf("%s: TotalsPerApp[%q] = %v, AppendTotals %v", stage, at.Name, tp[at.Name], at.GFlop)
		}
		if g := k.TotalFor(at.Name); math.Float64bits(g) != bits {
			t.Errorf("%s: TotalFor(%q) = %v, AppendTotals %v", stage, at.Name, g, at.GFlop)
		}
	}
	return got
}

// TestAppendTotalsLedgerOrder walks one name through every place a
// total can live — live, pending-retire twice over with a live
// successor, folded — with per-epoch amounts whose sums depend on the
// association in the last bit, and checks the index read against the
// reference at each step, and that the fold itself changes no bit.
func TestAppendTotalsLedgerOrder(t *testing.T) {
	k := NewKernel(testManager(2))
	if got := checkLedger(t, k, "empty"); len(got) != 0 {
		t.Fatalf("empty kernel reports %v", got)
	}
	for _, spec := range []AppSpec{
		fixedWorkSpec("zeta", 0.1),
		fixedWorkSpec("alpha", 0.2),
		fixedWorkSpec("mid", 1e-7),
		fixedWorkSpec("idle", 0),
	} {
		if _, err := k.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := k.RunEpoch(60); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(3)
	checkLedger(t, k, "live")

	// zeta: detach, re-attach with another amount, run (folds the first
	// lifetime), detach again, re-attach again — now one folded base, one
	// pending controller and a live one.
	if err := k.Detach("zeta"); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, k, "pending")
	if _, err := k.Attach(fixedWorkSpec("zeta", 0.3)); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, k, "pending+live")
	run(2)
	if err := k.Detach("zeta"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(fixedWorkSpec("zeta", 0.7)); err != nil {
		t.Fatal(err)
	}
	if err := k.Detach("alpha"); err != nil {
		t.Fatal(err)
	}
	before := checkLedger(t, k, "base+pending+live")

	k.mu.Lock()
	k.foldRetiredLocked()
	k.mu.Unlock()
	after := checkLedger(t, k, "folded")
	if len(after) != len(before) {
		t.Fatalf("fold changed the roster: %v -> %v", before, after)
	}
	for i := range before {
		if before[i].Name != after[i].Name || math.Float64bits(before[i].GFlop) != math.Float64bits(after[i].GFlop) {
			t.Errorf("fold moved %q: %v -> %v", before[i].Name, before[i].GFlop, after[i].GFlop)
		}
	}
	run(1)
	checkLedger(t, k, "after fold")

	// The engine folds a pending controller before its successor runs an
	// epoch, so base, pending and live are never all non-zero through
	// RunEpoch. Credit the controllers directly to pin the association
	// where it shows: (0.1 + 0.2) + 1e-7 and (0.1 + 1e-7) + 0.2 differ
	// in the last bit.
	first, err := k.Attach(AppSpec{Name: "assoc"})
	if err != nil {
		t.Fatal(err)
	}
	first.addTotal(0.1)
	if err := k.Detach("assoc"); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	k.foldRetiredLocked()
	k.mu.Unlock()
	second, err := k.Attach(AppSpec{Name: "assoc"})
	if err != nil {
		t.Fatal(err)
	}
	second.addTotal(0.2)
	if err := k.Detach("assoc"); err != nil {
		t.Fatal(err)
	}
	live, err := k.Attach(AppSpec{Name: "assoc"})
	if err != nil {
		t.Fatal(err)
	}
	live.addTotal(1e-7)
	checkLedger(t, k, "base+pending+live, all non-zero")
	base, pending, cur := 0.1, 0.2, 1e-7 // variables: float64 arithmetic, not exact constants
	if got, want := k.TotalFor("assoc"), (base+pending)+cur; got != want {
		t.Errorf("assoc total %v, want %v (base, then pending, then live)", got, want)
	}
}

// TestAppendTotalsSteadyStateNoAlloc: with membership unchanged a full
// ledger read is a pass of atomic loads into the caller's slice.
func TestAppendTotalsSteadyStateNoAlloc(t *testing.T) {
	k := NewKernel(testManager(2))
	for i := 0; i < 64; i++ {
		if _, err := k.Attach(fixedWorkSpec(fmt.Sprintf("app%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	buf := k.AppendTotals(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = k.AppendTotals(buf[:0]) }); allocs != 0 {
		t.Errorf("steady-state AppendTotals allocates %.1f, want 0", allocs)
	}
}

// TestAppendTotalsUnderChurn: readers racing a running kernel's
// attach/detach churn always see a name-sorted ledger whose per-name
// totals never step backwards — a stale index read across a detach or
// a fold sums the same controllers in the same order.
func TestAppendTotalsUnderChurn(t *testing.T) {
	k := NewKernel(testManager(2))
	for _, name := range []string{"steady-a", "steady-b"} {
		if _, err := k.Attach(fixedWorkSpec(name, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), Options{Flush: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]float64{}
			var buf []AppTotal
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = k.AppendTotals(buf[:0])
				for i, at := range buf {
					if i > 0 && buf[i-1].Name >= at.Name {
						t.Errorf("unsorted read: %q before %q", buf[i-1].Name, at.Name)
						return
					}
					if at.GFlop < seen[at.Name] {
						t.Errorf("%q stepped back: %v -> %v", at.Name, seen[at.Name], at.GFlop)
						return
					}
					seen[at.Name] = at.GFlop
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("churn%d", i%5)
		if _, err := k.Attach(fixedWorkSpec(name, 0.3)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			waitFor(t, "churn app served", func() bool { return k.ServedGeneration() >= k.Generation() })
		}
		if err := k.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	k.Stop()
	checkLedger(t, k, "after churn")
}
