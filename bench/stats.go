package main

import (
	"math"
	"sort"
	"time"
)

// median of unsorted values; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tailLadder lists the percentiles a tail may be reported at. It stops
// at p90, the highest rung every workload fills with ten samples at
// this commit: a fixed rung keeps read_tail_ms comparable when a change
// alters how many requests a run completes.
var tailLadder = []float64{50, 75, 90}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail returns the highest ladder percentile with at least tailSamples
// samples beyond it (nearest-rank), its value and that sample count.
// With too few samples for any rung it falls back to the maximum.
func tail(vs []float64) (pct, value float64, beyond int) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		idx := int(math.Ceil(tailLadder[i]/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= tailSamples {
			return tailLadder[i], s[idx], n - 1 - idx
		}
	}
	return 100, s[n-1], 0
}

func msValues(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
