package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by nearest rank. Empty input reads as 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 99.9 % of 10000 is rank 9990, not ceil(9990.000000000002)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles highestPercentile picks from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile picks the highest rung of tailLadder that still has
// at least ten samples beyond it — the tail a sample of this size can
// support. Fewer than 20 samples support only the median.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ms converts durations to sorted milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), so the A/A table reads the same spread the driver computes.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	data := sortedCopy(v)
	ld := len(data)
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
