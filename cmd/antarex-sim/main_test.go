package main

import "testing"

// TestDispatchTableCoversAll: every experiment in the "all" sequence
// exists in the dispatch table and vice versa.
func TestDispatchTableCoversAll(t *testing.T) {
	if len(experimentOrder) != len(experiments) {
		t.Fatalf("order lists %d experiments, table has %d", len(experimentOrder), len(experiments))
	}
	for _, name := range experimentOrder {
		if experiments[name] == nil {
			t.Errorf("experiment %q in order but not in table", name)
		}
	}
}

// TestRunExperimentUnknownName: unknown experiments are rejected with
// an error instead of a panic or silent success.
func TestRunExperimentUnknownName(t *testing.T) {
	if err := runExperiment("nosuch"); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if err := runExperiment(""); err == nil {
		t.Fatal("empty experiment should error")
	}
}

// TestRunExperimentSmoke executes the cheapest real experiments through
// the dispatch path (output goes to stdout; only success is asserted).
func TestRunExperimentSmoke(t *testing.T) {
	for _, name := range []string{"efficiency", "variability", "pue"} {
		if err := runExperiment(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestChaos runs the chaos round in tier-1, so a change to the epoch
// engine or its cadence is checked against the exact-totals ledger on
// every test run, not only in the chaos CI job.
func TestChaos(t *testing.T) {
	if !chaosRun() {
		t.Fatal("chaos round violated an invariant (see the FAIL lines above)")
	}
}

// TestCrashloop runs the crashloop rounds against a real antarex-serve
// (ANTAREX_SERVE, or a fresh build): every acked mutation survives each
// SIGKILL and the journal replays idempotently.
func TestCrashloop(t *testing.T) {
	if testing.Short() {
		t.Skip("starts and SIGKILLs a server process repeatedly")
	}
	if err := crashloopRun(43); err != nil {
		t.Fatal(err)
	}
}
