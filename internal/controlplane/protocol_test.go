package controlplane

import (
	"context"
	"testing"
	"time"

	"repro/internal/runtime"
)

// TestEpochsOptimisticLockFree is the acceptance test for the
// OptimisticMerge read path end to end: /v1/epochs (and the repeated
// status reads behind it) must take zero commit locks while the kernel
// commits epochs, and the payload must carry the protocol name and a
// live per-backend seq vector.
func TestEpochsOptimisticLockFree(t *testing.T) {
	k, c := newMultiPlane(t, nil)
	k.SetProtocol(runtime.OptimisticMerge)
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
	waitBackendSeqs(t, k, 1, "b0", "hot")

	base := k.CommitLockReads()
	var last EpochsStatus
	for i := 0; i < 20; i++ {
		ep, err := c.Epochs()
		if err != nil {
			t.Fatal(err)
		}
		last = ep
	}
	if got := k.CommitLockReads() - base; got != 0 {
		t.Errorf("optimistic /v1/epochs took %d commit locks across 20 reads, want 0", got)
	}
	if last.Protocol != "optimistic" {
		t.Errorf("protocol %q, want optimistic", last.Protocol)
	}
	if len(last.Backends) != 2 {
		t.Fatalf("backends: %+v", last.Backends)
	}
	for _, bs := range last.Backends {
		if bs.Seq <= 0 {
			t.Errorf("backend %s seq %d, want > 0 (both serve a pinned app)", bs.Name, bs.Seq)
		}
	}
	if last.WorkGFlop <= 0 {
		t.Errorf("lock-free merge saw no work: %+v", last)
	}
}

// TestEpochsLockedProtocolsCount: under Barrier and PerBackendClock the
// same read path goes through commit locks and says so on the counter —
// the contrast that makes the zero above meaningful.
func TestEpochsLockedProtocolsCount(t *testing.T) {
	for _, proto := range []runtime.EpochProtocol{runtime.Barrier, runtime.PerBackendClock} {
		t.Run(proto.String(), func(t *testing.T) {
			k, c := newMultiPlane(t, nil)
			k.SetProtocol(proto)
			base := k.CommitLockReads()
			ep, err := c.Epochs()
			if err != nil {
				t.Fatal(err)
			}
			if ep.Protocol != proto.String() {
				t.Errorf("protocol %q, want %s", ep.Protocol, proto)
			}
			if got := k.CommitLockReads() - base; got <= 0 {
				t.Errorf("locked-protocol /v1/epochs took %d commit locks, want > 0", got)
			}
		})
	}
}

// TestEpochStreamCoalescesPerBackend: the SSE feed coalesces on the
// per-backend seq vector, not the global epoch counter — consecutive
// events always differ somewhere in (epochs, seqs), and seqs are
// monotone per backend.
func TestEpochStreamCoalescesPerBackend(t *testing.T) {
	k, c := newMultiPlane(t, nil)
	k.SetProtocol(runtime.PerBackendClock)
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

// waitBackendSeqs waits, on the kernel's epoch signal, until each named
// backend has committed at least n epochs. It keys on BackendStats.Seq
// — what the assertions read — because the global epoch counter is
// moved by whichever backend commits first.
func waitBackendSeqs(t *testing.T, k *runtime.Kernel, n int64, names ...string) {
	t.Helper()
	reached := func() bool {
		seqs := map[string]int64{}
		for _, bs := range k.BackendStats() {
			seqs[bs.Name] = bs.Seq
		}
		for _, name := range names {
			if seqs[name] < n {
				return false
			}
		}
		return true
	}
	if !waitEpoch(k, reached) {
		t.Fatalf("timed out waiting for backends %v to reach seq %d (at %+v)", names, n, k.BackendStats())
	}
}
