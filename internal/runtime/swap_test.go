package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/monitor"
)

func TestSwapPolicyUnknownApp(t *testing.T) {
	k := NewKernel(testManager(2))
	_, err := k.SwapPolicy("ghost", PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
		return nil, false
	}), nil)
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("err = %v, want ErrUnknownApp", err)
	}
}

// TestSwapPolicyLive swaps the policy of an app between synchronous
// epochs: decisions switch to the new policy, counters and totals are
// retained, and the old policy is handed back.
func TestSwapPolicyLive(t *testing.T) {
	k := NewKernel(testManager(2))
	inbox := &Inbox{}
	var applied atomic.Value // last cfg "who" marker
	oldPolicy := PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
		return autotune.Config{"who": 1}, true
	})
	ctl, err := k.Attach(AppSpec{
		Name: "swappable",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   4,
		Debounce: 1,
		Sensor:   inbox,
		Policy:   oldPolicy,
		Knob:     KnobFunc(func(cfg autotune.Config) { applied.Store(cfg["who"]) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox.Push(monitor.MetricLatency, 3.0)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if got := applied.Load(); got != 1.0 {
		t.Fatalf("pre-swap knob = %v, want 1", got)
	}
	ticksBefore, adaptsBefore := ctl.Ticks(), ctl.Adaptations()

	prev, err := k.SwapPolicy("swappable",
		PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			return autotune.Config{"who": 2}, true
		}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if prev == nil {
		t.Fatal("SwapPolicy returned no previous policy")
	}
	if cfg, _ := prev.Decide(monitor.Decision{}, nil); cfg["who"] != 1 {
		t.Fatalf("previous policy is not the original: %v", cfg)
	}

	inbox.Push(monitor.MetricLatency, 3.0)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if got := applied.Load(); got != 2.0 {
		t.Fatalf("post-swap knob = %v, want 2", got)
	}
	if ctl.Ticks() <= ticksBefore || ctl.Adaptations() <= adaptsBefore {
		t.Fatalf("counters reset by swap: ticks %d→%d adapts %d→%d",
			ticksBefore, ctl.Ticks(), adaptsBefore, ctl.Adaptations())
	}
}

// TestSwapPolicyClearsQuarantine: a panicking policy quarantines the
// app via the tick-path recover; swapping in a working replacement
// clears the quarantine without a detach (totals survive).
func TestSwapPolicyClearsQuarantine(t *testing.T) {
	k := NewKernel(testManager(2))
	inbox := &Inbox{}
	ctl, err := k.Attach(AppSpec{
		Name: "crashy",
		SLA: monitor.SLA{Goals: []monitor.Goal{
			{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
		}},
		Window:   4,
		Debounce: 1,
		Sensor:   inbox,
		Policy: PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			panic("bad tenant policy")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox.Push(monitor.MetricLatency, 3.0)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if !ctl.Quarantined() {
		t.Fatal("panicking policy did not quarantine the app")
	}

	if _, err := k.SwapPolicy("crashy",
		PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			return autotune.Config{"level": 1}, true
		}), nil); err != nil {
		t.Fatal(err)
	}
	if ctl.Quarantined() {
		t.Fatal("swap did not clear quarantine")
	}
	if ctl.LastError() != "" {
		t.Fatalf("lastErr survived swap: %q", ctl.LastError())
	}
	inbox.Push(monitor.MetricLatency, 3.0)
	if _, err := k.RunEpoch(60); err != nil {
		t.Fatal(err)
	}
	if ctl.Adaptations() == 0 {
		t.Fatal("replacement policy never adapted")
	}
}

// TestSwapPolicyUnderChurn hot-swaps one app's policy continuously
// while other apps attach and detach. Run with -race: the swap path
// must not tear a decision or
// race the epoch engine's snapshots.
func TestSwapPolicyUnderChurn(t *testing.T) {
	t.Run("barrier", func(t *testing.T) {
		k := NewKernel(testManager(4))
		inbox := &Inbox{}
		var decisions atomic.Int64
		mkPolicy := func(id float64) Policy {
			return PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
				decisions.Add(1)
				return autotune.Config{"level": id}, true
			})
		}
		_, err := k.Attach(AppSpec{
			Name: "stable",
			SLA: monitor.SLA{Goals: []monitor.Goal{
				{Metric: monitor.MetricLatency, Relation: monitor.AtMost, Target: 1.0},
			}},
			Window:   4,
			Debounce: 1,
			Sensor:   inbox,
			Policy:   mkPolicy(0),
			Knob:     KnobFunc(func(autotune.Config) {}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Start(context.Background(), Options{Flush: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer k.Stop()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Membership churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d", i%8)
				if _, err := k.Attach(AppSpec{Name: name}); err == nil {
					time.Sleep(500 * time.Microsecond)
					_ = k.Detach(name)
				}
			}
		}()
		// Continuous violation so the stable app's policy fires.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					inbox.Push(monitor.MetricLatency, 3.0)
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		// Hot-swap loop.
		deadline := time.Now().Add(400 * time.Millisecond)
		for i := 1; time.Now().Before(deadline); i++ {
			if _, err := k.SwapPolicy("stable", mkPolicy(float64(i)), nil); err != nil {
				t.Errorf("swap %d: %v", i, err)
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
		if decisions.Load() == 0 {
			t.Fatal("no policy decisions fired during the churn run")
		}
	})
}
