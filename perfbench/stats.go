package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks (the "type 7" estimator: the
// median of an even-length sample is the mean of its two middle values).
// xs need not be sorted and is not modified. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles with the method of
// Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), the spread the benchmark's steadiness rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Cut point i of 4 sits at 1-based rank i·(n+1)/4; Python clamps the
	// bracketing pair into the sample and extrapolates from it.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// durationsMs converts latencies to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
