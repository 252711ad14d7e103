package controlplane

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// gatedBackend wraps a Backend so a test can hold one backend's commit
// open: once armed, the next RunEpoch announces itself on entered and
// blocks until gate closes.
type gatedBackend struct {
	runtime.Backend
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

// TestStatusReadsDoNotBlockOnCommit: GET /v1/epochs answers while a
// healthy backend's commit is parked inside RunEpoch — the payload is
// assembled from the seqlock cells, so it shows the backend's last
// committed epoch instead of waiting out the running one.
func TestStatusReadsDoNotBlockOnCommit(t *testing.T) {
	gated := &gatedBackend{
		Backend: BuildBackend(BackendSpec{Name: "b0", Nodes: 4, AmbientC: 15}),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	var release sync.Once
	open := func() { release.Do(func() { close(gated.gate) }) }
	defer open()
	k := runtime.NewKernel()
	if err := k.AddBackend("b0", gated); err != nil {
		t.Fatal(err)
	}
	if err := k.AddBackend("hot", BuildBackend(BackendSpec{Name: "hot", Nodes: 4, AmbientC: 40})); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(k))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	for _, reg := range []AppSpec{
		{Name: "left", Placement: "b0", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}},
		{Name: "right", Placement: "hot", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}},
	} {
		if _, err := c.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
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

	type reply struct {
		ep  EpochsStatus
		err error
	}
	got := make(chan reply, 1)
	go func() {
		ep, err := c.Epochs()
		got <- reply{ep, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.ep.Backends) != 2 || r.ep.Backends[0].Name != "b0" || r.ep.Backends[0].Seq != 1 {
			t.Errorf("b0 mid-commit should read as its last committed epoch: %+v", r.ep.Backends)
		}
		if r.ep.WorkGFlop <= 0 {
			t.Errorf("merged stats lost the committed first epoch: %+v", r.ep)
		}
	case <-time.After(10 * time.Second): // hang guard: only a blocked handler gets here
		t.Error("GET /v1/epochs blocked behind a parked commit")
	}
	open()
	if err := <-epochDone; err != nil {
		t.Fatal(err)
	}
	ep, err := c.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range ep.Backends {
		if bs.Seq != 2 {
			t.Errorf("backend %s seq %d after two epochs, want 2", bs.Name, bs.Seq)
		}
	}
}

// TestEpochStreamCoalescesPerBackend: the SSE feed coalesces on the
// per-backend seq vector, not the global epoch counter — consecutive
// events always differ somewhere in (epochs, seqs), and seqs are
// monotone per backend.
func TestEpochStreamCoalescesPerBackend(t *testing.T) {
	k, c := newMultiPlane(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := k.Start(ctx, runtime.Options{Flush: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer k.Stop()
	for _, reg := range []AppSpec{
		{Name: "left", Placement: "b0", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}},
		{Name: "right", Placement: "hot", Workload: WorkloadSpec{Tasks: 1, GFlop: 2}},
	} {
		if _, err := c.Register(reg); err != nil {
			t.Fatal(err)
		}
	}

	var events []EpochsStatus
	err := c.StreamEpochs(ctx, time.Millisecond, func(st EpochsStatus) bool {
		events = append(events, st)
		return len(events) < 6
	})
	if err != nil {
		t.Fatalf("epoch stream: %v", err)
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		changed := cur.Epochs != prev.Epochs || len(cur.Backends) != len(prev.Backends)
		for j := range cur.Backends {
			if !changed && cur.Backends[j].Seq != prev.Backends[j].Seq {
				changed = true
			}
			if j < len(prev.Backends) && cur.Backends[j].Seq < prev.Backends[j].Seq {
				t.Errorf("event %d: backend %s seq went backwards: %d -> %d",
					i, cur.Backends[j].Name, prev.Backends[j].Seq, cur.Backends[j].Seq)
			}
		}
		if !changed {
			t.Errorf("event %d is a duplicate of event %d: coalescing on the seq vector failed (%+v)", i, i-1, cur)
		}
	}
}
