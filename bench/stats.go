package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middles when even); vs
// is not modified. It returns 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) does, so
// the spreads printed here are the ones the acceptance driver computes.
// It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of vs as a share of its median: the
// run-to-run (or slice-to-slice) noise figure every bound is judged against.
// Fewer than two values have no spread (0).
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be a measurement rather than an outlier.
const minBeyond = 10

// supported reports whether n samples leave minBeyond of them beyond the
// p-th percentile (0 < p < 100).
func supported(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// percentile is the nearest-rank p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
