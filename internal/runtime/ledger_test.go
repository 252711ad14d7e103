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

// shadow is the tests' own account of offered work, kept without
// looking inside the kernel: every workload it builds adds what it
// offers to its name's running sum as it is called, and a name is in
// the shadow from its first spec on, as it is in the ledger from its
// first Attach.
type shadow struct {
	mu sync.Mutex
	g  map[string]float64
}

func newShadow() *shadow { return &shadow{g: map[string]float64{}} }

// spec is an app whose i-th workload call offers one task of
// gs[i mod len(gs)] GFlop (nothing at all when gs is empty).
func (s *shadow) spec(name string, gs ...float64) AppSpec {
	s.mu.Lock()
	s.g[name] += 0
	s.mu.Unlock()
	spec := AppSpec{Name: name}
	if len(gs) == 0 {
		return spec
	}
	calls := 0
	spec.Workload = func() ([]*simhpc.Task, error) {
		g := gs[calls%len(gs)]
		calls++
		s.mu.Lock()
		s.g[name] += g
		s.mu.Unlock()
		return []*simhpc.Task{{GFlop: g, MemGB: 1}}, nil
	}
	return spec
}

// checkLedger asserts, with the engine quiescent, that AppendTotals is
// name-sorted and bit-identical to the shadow, and that TotalsPerApp
// and TotalFor agree with it.
func checkLedger(t *testing.T, k *Kernel, sh *shadow, stage string) []AppTotal {
	t.Helper()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	got := k.AppendTotals(nil)
	if len(got) != len(sh.g) {
		t.Fatalf("%s: %d totals, shadow has %d", stage, len(got), len(sh.g))
	}
	tp := k.TotalsPerApp()
	for i, at := range got {
		if i > 0 && got[i-1].Name >= at.Name {
			t.Errorf("%s: %q before %q: not name-sorted", stage, got[i-1].Name, at.Name)
		}
		bits := math.Float64bits(at.GFlop)
		if w, ok := sh.g[at.Name]; !ok || math.Float64bits(w) != bits {
			t.Errorf("%s: %q = %v, shadow %v", stage, at.Name, at.GFlop, w)
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

// TestAppendTotalsLedgerOrder walks names through detach and re-attach
// with per-epoch amounts whose sums depend on the association in the
// last bit, and checks the ledger against the shadow at each step: a
// name's total is the running sum of its contributions in the order
// they were offered, whatever lifetime offered them — not a sum of
// per-lifetime subtotals.
func TestAppendTotalsLedgerOrder(t *testing.T) {
	k := NewKernel(testManager(2))
	sh := newShadow()
	if got := checkLedger(t, k, sh, "empty"); len(got) != 0 {
		t.Fatalf("empty kernel reports %v", got)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := k.RunEpoch(60); err != nil {
				t.Fatal(err)
			}
		}
	}
	attach := func(spec AppSpec) {
		t.Helper()
		if _, err := k.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	detach := func(name string) {
		t.Helper()
		if err := k.Detach(name); err != nil {
			t.Fatal(err)
		}
	}
	attach(sh.spec("zeta", 0.1))
	attach(sh.spec("alpha", 0.2))
	attach(sh.spec("mid", 1e-7))
	attach(sh.spec("idle"))
	run(3)
	checkLedger(t, k, sh, "live")

	// zeta: 0.1 three times, then a second lifetime offering 0.3 twice.
	// Running, ((0.1+0.1+0.1) + 0.3) + 0.3 is 0.9000000000000001; summed
	// per lifetime it would read (0.1+0.1+0.1) + (0.3+0.3) = 0.9.
	detach("zeta")
	checkLedger(t, k, sh, "detached")
	attach(sh.spec("zeta", 0.3))
	checkLedger(t, k, sh, "re-attached")
	run(2)
	checkLedger(t, k, sh, "second lifetime")
	detach("zeta")
	attach(sh.spec("zeta", 0.7))
	detach("alpha")
	checkLedger(t, k, sh, "third lifetime, alpha detached")
	run(1)
	checkLedger(t, k, sh, "third lifetime ran")

	// assoc: 0.2, then a lifetime offering 0.1 and 1e-7. Running,
	// (0.2+0.1) + 1e-7; per lifetime, 0.2 + (0.1+1e-7): they differ in
	// the last bit.
	attach(sh.spec("assoc", 0.2))
	run(1)
	detach("assoc")
	attach(sh.spec("assoc", 0.1, 1e-7))
	run(2)
	checkLedger(t, k, sh, "assoc, two lifetimes")
	a, b, c := 0.2, 0.1, 1e-7 // variables: float64 arithmetic, not exact constants
	if got, want := k.TotalFor("assoc"), (a+b)+c; got != want {
		t.Errorf("assoc total %v, want %v (the running sum)", got, want)
	}
}

// TestAppendTotalsSteadyStateNoAlloc: unless a new name was attached a
// full ledger read is a pass of atomic loads into the caller's slice —
// detaching and re-attaching a known name keeps the index.
func TestAppendTotalsSteadyStateNoAlloc(t *testing.T) {
	k := NewKernel(testManager(2))
	sh := newShadow()
	for i := 0; i < 64; i++ {
		if _, err := k.Attach(sh.spec(fmt.Sprintf("app%02d", i), 1)); err != nil {
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
	idx := k.currentLedger()
	if err := k.Detach("app07"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Attach(sh.spec("app07", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if k.currentLedger() != idx {
		t.Error("detaching and re-attaching a known name rebuilt the ledger index")
	}
	checkLedger(t, k, sh, "re-attached")
}

// TestAppendTotalsUnderChurn: readers racing a running kernel's
// attach/detach churn always see a name-sorted ledger whose per-name
// totals never step backwards, and once the kernel stops every churned
// name reads the running sum of all its lifetimes' workloads.
func TestAppendTotalsUnderChurn(t *testing.T) {
	k := NewKernel(testManager(2))
	sh := newShadow()
	for _, name := range []string{"steady-a", "steady-b"} {
		if _, err := k.Attach(sh.spec(name, 0.1)); err != nil {
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
		if _, err := k.Attach(sh.spec(name, 0.3)); err != nil {
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
	checkLedger(t, k, sh, "after churn")
}
