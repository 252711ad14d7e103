package runtime

import (
	"context"
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/simhpc"
)

// TestStatsCellTornSnapshot: a reader that arrives while the seqlock
// version is odd (write in progress) must not return the half-written
// fields — it spins until the writer finishes, then returns the
// post-write values.
func TestStatsCellTornSnapshot(t *testing.T) {
	var c statsCell
	c.publishStats(rtrm.Stats{Epochs: 1, WorkGFlop: 10})
	c.publishApps(3)

	// Open a write by hand: version goes odd, then the fields change
	// one at a time — the torn state snapshot must never expose.
	c.ver.Add(1)
	c.epochs.Store(2)

	got := make(chan rtrm.Stats, 1)
	go func() {
		s, _ := c.snapshot()
		got <- s
	}()
	select {
	case s := <-got:
		t.Fatalf("snapshot returned mid-write: %+v", s)
	case <-time.After(50 * time.Millisecond):
	}

	// Complete the write; the parked reader must come back with the
	// finished values, not the torn ones.
	c.work.Store(math.Float64bits(20))
	c.ver.Add(1)
	select {
	case s := <-got:
		if s.Epochs != 2 || s.WorkGFlop != 20 {
			t.Errorf("post-write snapshot: %+v, want epochs=2 work=20", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot never returned after write completed")
	}
}

// TestStatsCellConsistency is the seqlock stress: one writer publishes
// correlated fields (work = 2×epochs, thermal = 3×epochs) as fast as it
// can while readers snapshot concurrently — any snapshot mixing two
// publishes breaks the correlation. A second goroutine republishes the
// app count throughout, as a placement refresh does beside an abandoned
// commit still publishing on a Degraded slot: it must not disturb the
// version protocol.
func TestStatsCellConsistency(t *testing.T) {
	var c statsCell
	done := make(chan struct{})
	var wrote atomic.Int64
	appsDone := make(chan struct{})
	go func() {
		defer close(appsDone)
		for n := 0; ; n++ {
			c.publishApps(n)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer close(done)
		for n := int64(1); n <= 20000; n++ {
			c.publishStats(rtrm.Stats{
				Epochs:        int(n),
				WorkGFlop:     float64(2 * n),
				ThermalEvents: int(3 * n),
			})
			wrote.Store(n)
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, _ := c.snapshot()
				n := int64(s.Epochs)
				if s.WorkGFlop != float64(2*n) || s.ThermalEvents != int(3*n) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done
	<-appsDone
	if s, _ := c.snapshot(); int64(s.Epochs) != wrote.Load() {
		t.Errorf("final snapshot epochs %d, want %d", s.Epochs, wrote.Load())
	}
}

// pinnedPairKernel builds a 2-backend kernel with one pinned app each.
func pinnedPairKernel(t *testing.T) *Kernel {
	t.Helper()
	k := NewKernel(testManagerAt(2, 15), testManagerAt(2, 15))
	attachPinnedPair(t, k)
	return k
}

// attachPinnedPair attaches app0→b0 and app1→b1.
func attachPinnedPair(t *testing.T, k *Kernel) {
	t.Helper()
	for i := 0; i < 2; i++ {
		spec := pinnedSpec(fmt.Sprintf("app%d", i), fmt.Sprintf("b%d", i), simhpc.NewWorkloadGen(uint64(7+i)), 2)
		if _, err := k.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
}

// gatedKernel builds a 2-backend kernel, one pinned app each, whose b0
// is a gatedBackend. open releases the gate (idempotent).
func gatedKernel(t *testing.T) (k *Kernel, gated *gatedBackend, open func()) {
	t.Helper()
	gated = &gatedBackend{
		Backend: testManagerAt(2, 15),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	k = NewKernel()
	if err := k.AddBackend("b0", gated); err != nil {
		t.Fatal(err)
	}
	if err := k.AddBackend("b1", testManagerAt(2, 15)); err != nil {
		t.Fatal(err)
	}
	attachPinnedPair(t, k)
	var release sync.Once
	return k, gated, func() { release.Do(func() { close(gated.gate) }) }
}

// TestBackendSeqAdvancesPerCommit: every backend commit bumps that
// backend's sequence number — the counter the control plane's SSE
// coalescing keys on.
func TestBackendSeqAdvancesPerCommit(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		k := pinnedPairKernel(t)
		const epochs = 4
		for e := 0; e < epochs; e++ {
			if _, err := k.RunEpoch(60); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range k.BackendStats() {
			if st.Seq != epochs {
				t.Errorf("%s: seq %d, want %d (one per commit)", st.Name, st.Seq, epochs)
			}
		}
	})
}

// gatedBackend wraps a Backend so a test can hold one backend's commit
// open: once armed, the next RunEpoch announces itself on entered and
// blocks until gate closes.
type gatedBackend struct {
	Backend
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedBackend) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Backend.RunEpoch(dt, offered, workers)
}

// workersLog wraps a Backend and records the core budget each commit
// passes to RunEpoch.
type workersLog struct {
	Backend
	mu      sync.Mutex
	workers []int
}

func (w *workersLog) RunEpoch(dt float64, offered []*simhpc.Task, workers int) rtrm.EpochReport {
	w.mu.Lock()
	w.workers = append(w.workers, workers)
	w.mu.Unlock()
	return w.Backend.RunEpoch(dt, offered, workers)
}

// take returns the budgets recorded since the last take.
func (w *workersLog) take() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.workers
	w.workers = nil
	return out
}

// TestCommitPassesWorkerBudget: every commit hands Backend.RunEpoch its
// share of the cores — all of GOMAXPROCS for a sole backend, or for the
// only backend that commits in an epoch, and GOMAXPROCS split evenly
// across the backends that commit at once.
func TestCommitPassesWorkerBudget(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(prev)
	runEpochs := func(k *Kernel, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := k.RunEpoch(60); err != nil {
				t.Fatal(err)
			}
		}
	}

	sole := &workersLog{Backend: testManagerAt(2, 15)}
	k := NewKernel(sole)
	if _, err := k.Attach(simpleSpec("a", simhpc.NewWorkloadGen(7), 2)); err != nil {
		t.Fatal(err)
	}
	runEpochs(k, 2)
	if got := sole.take(); !slices.Equal(got, []int{4, 4}) {
		t.Errorf("sole backend: workers %v, want [4 4]", got)
	}

	b0 := &workersLog{Backend: testManagerAt(2, 15)}
	b1 := &workersLog{Backend: testManagerAt(2, 15)}
	k = NewKernel(b0, b1)
	for _, spec := range []AppSpec{
		pinnedSpec("a", "b0", simhpc.NewWorkloadGen(7), 2),
		pinnedSpec("b", "b1", simhpc.NewWorkloadGen(8), 2),
	} {
		if _, err := k.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	runEpochs(k, 2)
	for _, b := range []*workersLog{b0, b1} {
		if got := b.take(); !slices.Equal(got, []int{2, 2}) {
			t.Errorf("two backends committing at once: workers %v, want [2 2]", got)
		}
	}
	if err := k.Detach("b"); err != nil {
		t.Fatal(err)
	}
	runEpochs(k, 1)
	if got0, got1 := b0.take(), b1.take(); !slices.Equal(got0, []int{4}) || len(got1) != 0 {
		t.Errorf("one of two backends committing: workers b0 %v b1 %v, want [4] and []", got0, got1)
	}
}

// TestStatusReadsDoNotBlockOnCommit: ManagerStats and BackendStats
// return while a healthy backend's commit is parked inside RunEpoch
// holding its commit mutex — status reads go through the seqlock cell,
// so one slow epoch never stalls /v1/epochs, /v1/backends or the SSE
// render behind it.
func TestStatusReadsDoNotBlockOnCommit(t *testing.T) {
	k, gated, open := gatedKernel(t)
	defer open()
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}

	gated.armed.Store(true)
	epochDone := make(chan error, 1)
	go func() {
		_, err := k.RunEpoch(60)
		epochDone <- err
	}()
	<-gated.entered // b0's commit holds its commit mutex until open()

	type read struct {
		ms  ManagerStats
		bks []BackendStats
	}
	got := make(chan read, 1)
	go func() { got <- read{k.ManagerStats(), k.BackendStats()} }()
	select {
	case r := <-got:
		if r.ms.WorkGFlop <= 0 {
			t.Errorf("merged stats lost the committed first epoch: %+v", r.ms)
		}
		if len(r.bks) != 2 || r.bks[0].Name != "b0" || r.bks[0].Seq != 1 || r.bks[0].Epochs != 1 {
			t.Errorf("b0 mid-commit should read as its last committed epoch: %+v", r.bks)
		}
	case <-time.After(10 * time.Second): // hang guard: only a blocked reader gets here
		t.Error("status reads blocked behind a parked commit")
	}
	open()
	if err := <-epochDone; err != nil {
		t.Fatal(err)
	}
	if st := k.BackendStats()[0]; st.Seq != 2 || st.Epochs != 2 {
		t.Errorf("b0 after the gated commit landed: %+v, want seq=2 epochs=2", st)
	}
}

// TestSoleBackendEpochContract pins what a kernel with exactly one
// backend promises, next to the two-backend behaviour it differs from:
// the sole backend's report comes back verbatim with Backends nil, an
// epoch nobody contributes to still steps the backend, and the commit
// deadline never abandons its commit (there is nowhere to reroute the
// batch) — while two backends with one contributor get a one-entry
// Backends list and the deadline.
func TestSoleBackendEpochContract(t *testing.T) {
	gated := &gatedBackend{
		Backend: testManagerAt(2, 15),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	k := NewKernel(gated)
	if _, err := k.Attach(simpleSpec("a", simhpc.NewWorkloadGen(7), 2)); err != nil {
		t.Fatal(err)
	}
	// An identical manager fed the identical workload is the reference
	// for "the backend's own report".
	twin, twinGen := testManagerAt(2, 15), simhpc.NewWorkloadGen(7)
	res, err := k.RunEpoch(60)
	if err != nil {
		t.Fatal(err)
	}
	want := twin.RunEpoch(60, twinGen.Mix(2, 1, 1, 1, 8), 1)
	if res.Backends != nil {
		t.Errorf("sole backend: Backends = %+v, want nil", res.Backends)
	}
	if !reflect.DeepEqual(res.Report, want) {
		t.Errorf("sole backend: Report = %+v, want the manager's own %+v", res.Report, want)
	}
	if res.Report.Plan == (rtrm.Plan{}) || res.Report.Cap.FacilityW == 0 {
		t.Errorf("sole backend: Plan/Cap lost: %+v", res.Report)
	}

	// The deadline does not apply: a commit parked far past it neither
	// degrades the slot nor returns early.
	k.SetBackendTimeout(time.Millisecond)
	gated.armed.Store(true)
	epochDone := make(chan error, 1)
	go func() {
		_, err := k.RunEpoch(60)
		epochDone <- err
	}()
	<-gated.entered
	time.Sleep(20 * time.Millisecond) // the fixture: outlast the 1 ms deadline
	if _, h, _ := k.BackendState("b0"); h != BackendHealthy {
		t.Errorf("sole backend past the deadline: %s, want healthy", h)
	}
	select {
	case err := <-epochDone:
		t.Fatalf("sole-backend epoch returned with its commit still parked (err %v)", err)
	default:
	}
	close(gated.gate)
	if err := <-epochDone; err != nil {
		t.Fatal(err)
	}
	if st := k.BackendStats()[0]; st.Health != BackendHealthy || st.Epochs != 2 {
		t.Errorf("after the parked commit landed: %+v, want healthy with 2 epochs", st)
	}

	// No live contribution: the backend's simulated time still steps.
	if err := k.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if res, err = k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if got := k.BackendStats()[0].Epochs; got != 3 || len(res.PerApp) != 0 {
		t.Errorf("empty epoch: backend ran %d epochs (PerApp %v), want 3 and none", got, res.PerApp)
	}

	// Two backends, one contributor: per-backend reports, and the
	// deadline abandons a parked commit.
	k2, gated2, open := gatedKernel(t)
	defer open()
	if err := k2.Detach("app1"); err != nil {
		t.Fatal(err)
	}
	if res, err = k2.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if len(res.Backends) != 1 || res.Backends[0].Name != "b0" {
		t.Errorf("two backends, one contributor: Backends = %+v, want [b0]", res.Backends)
	}
	k2.SetBackendTimeout(time.Millisecond)
	gated2.armed.Store(true)
	if res, err = k2.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if _, h, _ := k2.BackendState("b0"); h != BackendDegraded || len(res.Backends) != 0 {
		t.Errorf("parked commit with a second backend: b0 %s, Backends %+v; want degraded and no report", h, res.Backends)
	}
	open()
	waitHealth(t, k2, "b0", BackendHealthy)
}

// TestEpochSignalPerBackendCommit: a commit released after a stall
// signals epoch subscribers and advances the backend's Seq. The test
// parks b0's commit, drains the signals of every earlier epoch (the
// serialized engine can fire no new one while b0 is parked), then
// releases the commit and requires a fresh wakeup plus a b0 sequence
// advance — the pair the control plane's SSE coalescing keys on. Seq
// is read while b0's commit mutex is held, which the lock-free status
// path allows.
func TestEpochSignalPerBackendCommit(t *testing.T) {
	k, gated, open := gatedKernel(t)
	defer open()

	if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	waitFor(t, "warm-up epochs", func() bool { return k.Epochs() >= 3 })

	ch, cancel := k.EpochSignal()
	defer cancel()
	gated.armed.Store(true)
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("b0 never entered its gated commit")
	}
	// The executor is inside the epoch waiting on b0, so the only
	// signal that can be pending is an earlier epoch's.
	select {
	case <-ch:
	default:
	}
	seqStalled := k.BackendStats()[0].Seq

	open() // b0 commits now
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("missed wakeup: b0's commit after the stall produced no signal (epochs %d)", k.Epochs())
	}
	// The signal follows the epoch b0's commit belonged to, so Seq has
	// already moved.
	if seq := k.BackendStats()[0].Seq; seq <= seqStalled {
		t.Errorf("b0 seq %d after the released commit signalled, was %d while stalled", seq, seqStalled)
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolMembershipChurnRace is the membership -race stress: four
// churners attach/detach pinned and unhinted apps against a 2-backend
// kernel while telemetry flows and a status reader snapshots — every
// attach and detach is patched in at the quiescent boundary, the
// migration path.
func TestProtocolMembershipChurnRace(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		k := NewKernel(testManagerAt(2, 15), testManagerAt(2, 15))
		baseInbox := &Inbox{}
		baseSpec := simpleSpec("base", simhpc.NewWorkloadGen(51), 2)
		baseSpec.Sensor = baseInbox
		if _, err := k.Attach(baseSpec); err != nil {
			t.Fatal(err)
		}
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()
		// The helpers get their own context: canceling it stops the
		// producer and reader without tearing the kernel down.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		go func() {
			for ctx.Err() == nil {
				baseInbox.Push(monitor.MetricLatency, 0.2)
				time.Sleep(200 * time.Microsecond)
			}
		}()
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			for ctx.Err() == nil {
				_ = k.ManagerStats()
				_ = k.BackendStats()
				_ = k.TotalsPerApp()
				time.Sleep(500 * time.Microsecond)
			}
		}()

		const churners = 4
		const cycles = 10
		var wg sync.WaitGroup
		for c := 0; c < churners; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				name := fmt.Sprintf("churn%d", c)
				hint := ""
				if c%2 == 0 {
					hint = fmt.Sprintf("b%d", c/2)
				}
				gen := simhpc.NewWorkloadGen(uint64(60 + c))
				for i := 0; i < cycles; i++ {
					if _, err := k.Attach(pinnedSpec(name, hint, gen, 1)); err != nil {
						t.Errorf("churn attach %s: %v", name, err)
						return
					}
					time.Sleep(time.Duration(c+1) * time.Millisecond)
					if err := k.Detach(name); err != nil {
						t.Errorf("churn detach %s: %v", name, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		cancel()
		<-readerDone
		waitServed(t, k)
		epochs := k.Epochs()
		waitFor(t, "epochs after churn", func() bool { return k.Epochs() > epochs })
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}
		if apps := k.Apps(); len(apps) != 1 || apps[0].Name() != "base" {
			t.Errorf("leftover membership after churn: %d apps", len(apps))
		}
		totals := k.TotalsPerApp()
		for c := 0; c < churners; c++ {
			if totals[fmt.Sprintf("churn%d", c)] <= 0 {
				t.Errorf("churn%d's drained work was lost across detach", c)
			}
		}
	})
}
