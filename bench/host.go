package main

import (
	"sort"
	"time"
)

// calibrateHost measures the two host facts the benchmark's design
// rests on, before anything is started: how long a 50 µs sleep really
// takes (so nothing may be detected by sleep-polling), and how often an
// otherwise idle process is stalled for more than 5 ms (so the highest
// percentiles are host noise). One second of spinning.
func calibrateHost() map[string]float64 {
	var naps []float64
	for i := 0; i < 100; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		naps = append(naps, float64(time.Since(t))/float64(time.Millisecond))
	}
	sort.Float64s(naps)
	var stalls int
	var worst time.Duration
	last := time.Now()
	for end := last.Add(time.Second); last.Before(end); {
		now := time.Now()
		if gap := now.Sub(last); gap > 5*time.Millisecond {
			stalls++
			worst = max(worst, gap)
		}
		last = now
	}
	return map[string]float64{
		"host.sleep_quantum_ms": percentile(naps, 50),
		"host.stall_count":      float64(stalls),
		"host.stall_max_ms":     float64(worst) / float64(time.Millisecond),
	}
}
