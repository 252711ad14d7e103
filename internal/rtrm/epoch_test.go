package rtrm

import (
	"fmt"
	"testing"

	"repro/internal/simhpc"
)

func epochTestManager(nodes int) *Manager {
	rng := simhpc.NewRNG(77)
	cluster := simhpc.NewCluster(nodes, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.15, rng)
	})
	return NewManager(cluster, cluster.FacilityPowerW(1)*0.9)
}

// TestStagedEpochMatchesRunEpoch: the staged API with a parallel
// dispatch fan-out, and RunEpoch given the same worker budget, must
// both produce bit-identical reports and cumulative stats to RunEpoch
// with one worker — the determinism contract the kernel's
// protocol-equivalence tests lean on, and Backend.RunEpoch's "the
// report does not depend on workers". Per-node partials merged in node
// order make the float accumulation order worker-count independent.
func TestStagedEpochMatchesRunEpoch(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial := epochTestManager(16)
			staged := epochTestManager(16)
			fanned := epochTestManager(16)
			genA := simhpc.NewWorkloadGen(9)
			genB := simhpc.NewWorkloadGen(9)
			genC := simhpc.NewWorkloadGen(9)
			for epoch := 0; epoch < 25; epoch++ {
				// Odd epochs offer enough tasks for every worker to take
				// a node block (dispatch caps at one worker per 32
				// admitted tasks).
				n := 40
				if epoch%2 == 1 {
					n = 320
				}
				tasksA := genA.Mix(n, 2, 1, 1, 8)
				tasksB := genB.Mix(n, 2, 1, 1, 8)
				tasksC := genC.Mix(n, 2, 1, 1, 8)

				repA := serial.RunEpoch(60, tasksA, 1)

				staged.BeginEpoch(60, tasksB)
				staged.SweepEpoch()
				staged.DispatchEpoch(workers)
				repB := staged.CommitEpoch()

				repC := fanned.RunEpoch(60, tasksC, workers)

				// Bit-equality on every numeric field (the report also
				// carries the cap plan, whose slice makes == illegal).
				for form, rep := range map[string]EpochReport{"staged": repB, "RunEpoch": repC} {
					if repA.EnergyJ != rep.EnergyJ || repA.DoneGFlop != rep.DoneGFlop ||
						repA.DeferredGFlop != rep.DeferredGFlop || repA.HotNodes != rep.HotNodes {
						t.Fatalf("epoch %d: %s(workers=%d) report diverged:\nserial: %+v\n%s: %+v",
							epoch, form, workers, repA, form, rep)
					}
				}
			}
			a := serial.Stats()
			if b := staged.Stats(); a != b {
				t.Errorf("cumulative stats diverged:\nserial: %+v\nstaged: %+v", a, b)
			}
			if c := fanned.Stats(); a != c {
				t.Errorf("cumulative stats diverged:\nserial:   %+v\nRunEpoch: %+v", a, c)
			}
		})
	}
}

// TestStagedEpochEmptyAndTiny: degenerate shapes — no offered work, and
// fewer tasks than nodes — must not panic or skew counters under a
// parallel dispatch.
func TestStagedEpochEmptyAndTiny(t *testing.T) {
	m := epochTestManager(8)
	m.BeginEpoch(60, nil)
	m.SweepEpoch()
	m.DispatchEpoch(4)
	rep := m.CommitEpoch()
	if rep.DoneGFlop != 0 || rep.DeferredGFlop != 0 {
		t.Errorf("empty epoch did work: %+v", rep)
	}
	gen := simhpc.NewWorkloadGen(3)
	m.BeginEpoch(60, gen.Mix(3, 1, 1, 1, 8))
	m.SweepEpoch()
	m.DispatchEpoch(8)
	rep = m.CommitEpoch()
	if rep.DoneGFlop <= 0 {
		t.Errorf("tiny epoch did no work: %+v", rep)
	}
	if m.EpochCount != 2 {
		t.Errorf("EpochCount = %d, want 2", m.EpochCount)
	}
}
