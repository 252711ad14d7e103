package autotune

import (
	"sync"
	"testing"
)

// TestTunerConcurrentObserveRetune exercises the production-side tuner
// API from many goroutines (run under -race in CI): serving goroutines
// Observe live costs while a control loop calls Retune and KnownBest.
func TestTunerConcurrentObserveRetune(t *testing.T) {
	space := NewSpace(VariantKnob("variant", "A", "B"))
	cost := func(cfg Config) Measurement {
		if cfg["variant"] == 0 {
			return Measurement{Cost: 1}
		}
		return Measurement{Cost: 2}
	}
	tu := NewTuner(space, &Exhaustive{}, cost)
	if _, _, err := tu.Run(0); err != nil {
		t.Fatal(err)
	}
	if tu.Applied().Key() != "0" {
		t.Fatalf("applied %v", tu.Applied())
	}

	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Variant A degrades in production: B's stale estimate wins.
			// Each serving goroutine reports the live cost of the variant
			// it finds applied — B still costs 2 — so observations made
			// after the retune do not degrade B as well.
			for i := 0; i < 200; i++ {
				live := 5.0
				if tu.Applied().Key() == "1" {
					live = 2
				}
				tu.Observe(live)
			}
		}()
	}
	retuned := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if tu.Retune(0.05) {
				retuned = true
			}
			tu.KnownBest()
		}
	}()
	wg.Wait()
	if !tu.Retune(0.05) && !retuned {
		t.Error("tuner never retuned away from the degraded variant")
	}
	if tu.Applied().Key() != "1" {
		t.Errorf("applied after drift: %v", tu.Applied())
	}
	if est, ok := tu.Knowledge(Point{0}); !ok || est < 2 {
		t.Errorf("degraded estimate: %v %v", est, ok)
	}
}
