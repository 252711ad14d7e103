package runtime

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// TestEveryGenerationTicksEveryShard: a generation wound down before
// its loops got going still ticks every app once. At GOMAXPROCS 2,
// toggling a fifth app in and out moves the loop count between 4 and 2,
// so every toggle is a rebuild; with an hour-long interval only a
// generation's first round (and the round a change rings to its
// boundary) ticks. The next toggle follows as soon as the last one is
// served — before the new loops have run, if nothing made them. So
// after R rebuilds every stable app has ticked at least R times.
func TestEveryGenerationTicksEveryShard(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	k := NewKernel(testManager(2))
	stable := make([]*Controller, 4)
	for i := range stable {
		ctl, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		stable[i] = ctl
	}
	if err := k.Start(context.Background(), Options{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 200; i++ {
		var err error
		if i%2 == 0 {
			_, err = k.Attach(AppSpec{Name: "toggle"})
		} else {
			err = k.Detach("toggle")
		}
		if err != nil {
			t.Fatal(err)
		}
		// Spin, not sleep: a sleep would hand the new loops the time
		// to start that this test must not give them.
		for gen := k.Generation(); k.ServedGeneration() < gen; goruntime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("toggle %d never served", i)
			}
		}
	}
	r := k.Rebuilds()
	if r < 100 {
		t.Fatalf("%d rebuilds for 200 toggles: the loop count did not follow them", r)
	}
	for _, ctl := range stable {
		if got := ctl.Ticks(); got < r {
			t.Errorf("%s ticked %d times over %d rebuilds: a generation skipped its shard", ctl.Name(), got, r)
		}
	}
}

// ledgerBackend sums the GFlop of every task it commits, per epoch
// first, in the order the kernel's own ledger adds contributions, and
// counts its commits.
type ledgerBackend struct {
	Backend
	mu      sync.Mutex
	gflop   float64
	commits int
}

func (b *ledgerBackend) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	sum := 0.0
	for _, task := range offered {
		sum += task.GFlop
	}
	b.mu.Lock()
	b.gflop += sum
	b.commits++
	b.mu.Unlock()
	return b.Backend.RunEpoch(dt, offered, workers)
}

func (b *ledgerBackend) committed() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gflop
}

func (b *ledgerBackend) commitCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.commits
}

// TestMembershipChangeKeepsParkedBatch: an Attach and a Detach while an epoch batch is parked on a total outage neither
// unpark nor write off the batch — the change waits for its boundary,
// which comes after the revived backend commits the batch. Every
// offered GFlop is committed exactly once and nothing is dropped.
func TestMembershipChangeKeepsParkedBatch(t *testing.T) {
	be := &ledgerBackend{Backend: testManager(2)}
	k := NewKernel()
	if err := k.AddBackend("b0", be); err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		offered float64
		failed  atomic.Bool
	)
	parking := make(chan struct{}, 1)
	gen := simhpc.NewWorkloadGen(7)
	ctl, err := k.Attach(AppSpec{Name: "a", Workload: func() ([]*simhpc.Task, error) {
		tasks := gen.Mix(2, 1, 1, 1, 8)
		sum := 0.0
		for _, task := range tasks {
			sum += task.GFlop
		}
		mu.Lock()
		offered += sum
		mu.Unlock()
		if failed.Load() {
			select {
			case parking <- struct{}{}: // this round's epoch meets no healthy backend
			default:
			}
		}
		return tasks, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Paced an hour: past the first round, only a ring runs another.
	if err := k.Start(context.Background(), Options{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitEpoch(t, k, "the first epoch", func() bool { return k.Epochs() >= 1 })

	failed.Store(true)
	k.setBackendHealth(k.backends[0], BackendFailed, "outage")
	k.Nudge() // the round whose batch parks
	<-parking
	sig, cancel := k.EpochSignal()
	defer cancel()
	if _, err := k.Attach(AppSpec{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Detach("b"); err != nil {
		t.Fatal(err)
	}
	// No epoch can complete while the batch is parked. A change that
	// unparked it would complete one — writing the batch off — within a
	// wake; the window is the fixture.
	select {
	case <-sig:
		t.Fatalf("an epoch completed with no healthy backend (kernel error: %v)", k.Err())
	case <-time.After(50 * time.Millisecond):
	}
	mu.Lock()
	want := offered
	mu.Unlock()
	if err := k.ReviveBackend("b0"); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "the parked batch committed", func() bool { return be.committed() >= want })
	k.Stop()

	if err := k.Err(); err != nil {
		t.Fatalf("kernel error: %v", err)
	}
	if msg := ctl.LastError(); msg != "" {
		t.Fatalf("app status: %q", msg)
	}
	mu.Lock()
	defer mu.Unlock()
	if got, total := be.committed(), k.TotalFor("a"); got != offered || total != offered {
		t.Errorf("offered %v GFlop; backend committed %v, ledger %v — want all three equal", offered, got, total)
	}
}

// TestAddBackendLandsParkedBatch: a backend added during a total outage
// takes the parked epoch batch. The AddBackend patch waits for the
// parked epoch at its boundary, so the park itself must see the new
// backend (AddBackend rings the signal it waits on, and it re-reads the
// backend set on each ring) or the kernel hangs. Two apps, so the boundary is the sharded scheduler's:
// the batch commits exactly once, on the new backend, the change is
// then served, and every offered GFlop is accounted once.
func TestAddBackendLandsParkedBatch(t *testing.T) {
	b0, b1 := &ledgerBackend{Backend: testManager(2)}, &ledgerBackend{Backend: testManager(2)}
	k := NewKernel()
	if err := k.AddBackend("b0", b0); err != nil {
		t.Fatal(err)
	}
	var (
		mu              sync.Mutex
		offered, parked float64
		failed          atomic.Bool
	)
	parking := make(chan struct{}, 2)
	ctls := make([]*Controller, 2)
	for i := range ctls {
		gen := simhpc.NewWorkloadGen(uint64(7 + i))
		ctl, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i), Workload: func() ([]*simhpc.Task, error) {
			tasks := gen.Mix(2, 1, 1, 1, 8)
			sum := 0.0
			for _, task := range tasks {
				sum += task.GFlop
			}
			mu.Lock()
			defer mu.Unlock()
			offered += sum
			if failed.Load() {
				parked += sum
				select {
				case parking <- struct{}{}: // this round's epoch meets no healthy backend
				default:
				}
			}
			return tasks, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		ctls[i] = ctl
	}
	// Paced an hour: past the first round, only a ring runs another.
	if err := k.Start(context.Background(), Options{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitEpoch(t, k, "the first epoch", func() bool { return k.Epochs() >= 1 })
	if got := k.topoShards.Load(); got != 2 {
		t.Fatalf("topoShards = %d, want 2 shard loops", got)
	}

	failed.Store(true)
	k.setBackendHealth(k.backends[0], BackendFailed, "outage")
	k.Nudge() // the round whose batch parks
	<-parking
	<-parking
	sig, cancel := k.EpochSignal()
	defer cancel()
	// No epoch can complete while the batch is parked; the window is the
	// fixture that lets the executor reach the park.
	select {
	case <-sig:
		t.Fatalf("an epoch completed with no healthy backend (kernel error: %v)", k.Err())
	case <-time.After(50 * time.Millisecond):
	}
	if err := k.AddBackend("b1", b1); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, k, "the parked batch committed on b1 and AddBackend served", func() bool {
		return b1.commitCount() > 0 && k.ServedGeneration() >= k.Generation()
	})
	k.Stop()

	if err := k.Err(); err != nil {
		t.Fatalf("kernel error: %v", err)
	}
	for _, ctl := range ctls {
		if msg := ctl.LastError(); msg != "" {
			t.Errorf("%s status: %q", ctl.Name(), msg)
		}
		if got := k.AppBackend(ctl.Name()); got != "b1" {
			t.Errorf("%s on %q after the patch, want evacuated to b1", ctl.Name(), got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*offered }
	if n, got := b1.commitCount(), b1.committed(); n != 1 || !near(got, parked) {
		t.Errorf("b1 committed %v GFlop in %d commits, want the parked %v in exactly 1", got, n, parked)
	}
	ledger := k.TotalFor("app0") + k.TotalFor("app1")
	if got := b0.committed() + b1.committed(); !near(got, offered) || !near(ledger, offered) {
		t.Errorf("offered %v GFlop; backends committed %v, ledger %v — want all three equal", offered, got, ledger)
	}
}

// TestPatchServedWithinOneRound: a patch rings no pacer bell, so on a
// paced plane a membership change rides the next paced round — it is
// served at the first boundary after it, within about one Interval
// (the sleep left, plus that round's work). Each change is checked
// against a probe app that records ServedGeneration at every tick: the
// first tick it records after the change returned is flushed with the
// change pending, so that round's boundary serves it and the probe's
// next tick sees it. Both
// boundaries: singleLoop (GOMAXPROCS 1) and the sharded scheduler's.
func TestPatchServedWithinOneRound(t *testing.T) {
	const interval, changes = 20 * time.Millisecond, 6
	for _, gmp := range []int{1, 2} {
		t.Run(fmt.Sprintf("gmp=%d", gmp), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(gmp))
			k := NewKernel(testManager(2))
			var (
				mu   sync.Mutex
				seen []int64 // ServedGeneration at each probe tick
			)
			probeTicks := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(seen)
			}
			if _, err := k.Attach(AppSpec{Name: "probe", Workload: func() ([]*simhpc.Task, error) {
				mu.Lock()
				seen = append(seen, k.ServedGeneration())
				mu.Unlock()
				return nil, nil
			}}); err != nil {
				t.Fatal(err)
			}
			// 8 apps, 8 or 9 with the toggled one: 1 loop at GOMAXPROCS 1,
			// 2 shard loops at 2 — the loop count never changes.
			for i := 1; i < 8; i++ {
				if _, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Start(context.Background(), Options{Interval: interval}); err != nil {
				t.Fatal(err)
			}
			defer k.Stop()
			waitEpoch(t, k, "the first epoch", func() bool { return k.Epochs() >= 1 })

			lat := make([]time.Duration, 0, changes)
			for i := 0; i < changes; i++ {
				start := time.Now()
				var err error
				if i%2 == 0 {
					_, err = k.Attach(AppSpec{Name: "toggle"})
				} else {
					err = k.Detach("toggle")
				}
				if err != nil {
					t.Fatal(err)
				}
				gen, n := k.Generation(), probeTicks()
				waitEpoch(t, k, "the change served", func() bool { return k.ServedGeneration() >= gen })
				lat = append(lat, time.Since(start))
				// Every other change waits a round more, so the changes do not
				// all land at boundaries of one parity.
				waitEpoch(t, k, "two probe ticks after the change", func() bool { return probeTicks() >= n+2+i%2 })
				mu.Lock()
				got := seen[n+1]
				mu.Unlock()
				if got < gen {
					t.Errorf("change %d (generation %d) not served before the probe's next round (it saw %d)", i, gen, got)
				}
			}
			if got := k.Rebuilds(); got != 0 {
				t.Errorf("Rebuilds() = %d, want 0: the loop count never changed", got)
			}
			slices.Sort(lat)
			if med := lat[len(lat)/2]; med > 2*interval {
				t.Errorf("median change-to-served %v over %d changes, want within one %v round (latencies %v)", med, changes, interval, lat)
			}
		})
	}
}

// TestPatchChurnNoRebuild: 2 000 Attach/SwapPolicy/Detach operations
// against 64 running apps at GOMAXPROCS 2 never change the loop count,
// so every one is patched in — none rebuilds the topology — and each is
// served: an attached app is admitted and ticks, every change reaches
// ServedGeneration, and the stable apps keep their epochs.
func TestPatchChurnNoRebuild(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	k := NewKernel(testManager(4))
	stable := make([]*Controller, 64)
	for i := range stable {
		ctl, err := k.Attach(AppSpec{Name: fmt.Sprintf("app%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		stable[i] = ctl
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitEpoch(t, k, "the first epoch", func() bool { return k.Epochs() >= 1 })
	ticks := stable[0].Ticks()

	const churners, opsEach = 4, 500
	policy := PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
		return nil, false
	})
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", c)
			var ctl *Controller
			for op := 0; op < opsEach; op++ {
				var err error
				switch op % 3 {
				case 0:
					ctl, err = k.Attach(AppSpec{Name: name})
				case 1:
					_, err = k.SwapPolicy(name, policy, nil)
				case 2:
					err = k.Detach(name)
				}
				if err != nil {
					t.Errorf("%s op %d: %v", name, op, err)
					return
				}
				gen := k.Generation()
				if !awaitEpoch(k, func() bool { return k.ServedGeneration() >= gen }) {
					t.Errorf("%s op %d: never served", name, op)
					return
				}
				if op%3 == 0 && !awaitEpoch(k, func() bool { return ctl.Ticks() > 0 }) {
					t.Errorf("%s op %d: admitted but never ticked", name, op)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := k.Rebuilds(); got != 0 {
		t.Errorf("Rebuilds() = %d, want 0: the loop count never changed", got)
	}
	if g, s := k.Generation(), k.ServedGeneration(); g != s {
		t.Errorf("generation %d not served (at %d)", g, s)
	}
	if got := k.NumApps(); got != 64+churners {
		t.Errorf("%d apps after the churn, want %d", got, 64+churners)
	}
	waitEpoch(t, k, "stable apps ticking", func() bool { return stable[63].Ticks() > ticks })
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// placementLog records, per kernel epoch, which backend committed each
// app's tasks and from which contribution. Tasks carry their app in Tag
// and their contribution's sequence number in ID.
type placementLog struct {
	k  *Kernel
	mu sync.Mutex
	at map[int64]map[string][2]int // epoch → app → {backend, contribution}
	// violations lists every app seen twice in one epoch.
	violations []string
}

// backend wraps be as backend number idx of the log.
func (l *placementLog) backend(idx int, be Backend) Backend {
	return &loggedBackend{Backend: be, log: l, idx: idx}
}

type loggedBackend struct {
	Backend
	log *placementLog
	idx int
}

func (b *loggedBackend) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	l := b.log
	// Without a commit deadline every commit of epoch N runs inside its
	// barrier, after epoch N-1 was counted.
	epoch := l.k.Epochs() + 1
	l.mu.Lock()
	seen := l.at[epoch]
	if seen == nil {
		seen = map[string][2]int{}
		l.at[epoch] = seen
	}
	for _, task := range offered {
		cur := [2]int{b.idx, task.ID}
		if prev, ok := seen[task.Tag]; ok && prev != cur {
			l.violations = append(l.violations, fmt.Sprintf("epoch %d: %s as %v and %v", epoch, task.Tag, prev, cur))
		}
		seen[task.Tag] = cur
	}
	l.mu.Unlock()
	return b.Backend.RunEpoch(dt, offered, workers)
}

// TestPatchMigratesOneBackendPerEpoch: evacuations (a failed backend, a
// drained one) and the migrations home after revive and re-add are
// patched in — no rebuild — and no app's tasks ever reach two backends,
// or come from two contributions, in one epoch.
func TestPatchMigratesOneBackendPerEpoch(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	log := &placementLog{at: map[int64]map[string][2]int{}}
	k := NewKernel()
	log.k = k
	for i := 0; i < 2; i++ {
		if err := k.AddBackend(fmt.Sprintf("b%d", i), log.backend(i, testManagerAt(2, 15))); err != nil {
			t.Fatal(err)
		}
	}
	var seq atomic.Int64
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("app%d", i)
		gen := simhpc.NewWorkloadGen(uint64(20 + i))
		if _, err := k.Attach(AppSpec{Name: name, Backend: fmt.Sprintf("b%d", i%2), Workload: func() ([]*simhpc.Task, error) {
			tasks := gen.Mix(2, 1, 1, 1, 8)
			id := int(seq.Add(1))
			for _, task := range tasks {
				task.Tag, task.ID = name, id
			}
			return tasks, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	on := func(backend string) func() bool {
		return func() bool { return k.AppBackend("app1") == backend && k.ServedGeneration() == k.Generation() }
	}
	settle := func(what string, cond func() bool) {
		t.Helper()
		waitEpoch(t, k, what, cond)
		e := k.Epochs()
		waitEpoch(t, k, what+" (epochs after)", func() bool { return k.Epochs() >= e+3 })
	}
	settle("app1 on b1", on("b1"))
	for cycle := 0; cycle < 5; cycle++ {
		k.setBackendHealth(k.backends[1], BackendFailed, "evacuate")
		settle("app1 evacuated", on("b0"))
		if err := k.ReviveBackend("b1"); err != nil {
			t.Fatal(err)
		}
		settle("app1 home", on("b1"))
	}
	if err := k.RemoveBackend("b1"); err != nil {
		t.Fatal(err)
	}
	settle("app1 drained off b1", on("b0"))
	if err := k.AddBackend("b1", log.backend(1, testManagerAt(2, 15))); err != nil {
		t.Fatal(err)
	}
	settle("app1 on the re-added b1", on("b1"))
	k.Stop()

	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	if got := k.Rebuilds(); got != 0 {
		t.Errorf("Rebuilds() = %d, want 0: 8 apps keep 2 loops at GOMAXPROCS 2", got)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, v := range log.violations {
		t.Error(v)
	}
}
