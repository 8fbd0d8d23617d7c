package main

import (
	"math"
	"sort"
	"time"
)

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64 { return ns(d) / 1e3 }
func ms(d time.Duration) float64 { return ns(d) / 1e6 }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile picks the highest of the percentiles 90, 95, 98, 99 and
// 99.9 that still has at least ten samples beyond it, or 0 when even the
// 90th has not (fewer than 100 samples): a tail read off a handful of
// samples is the maximum, not a percentile.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{900, 950, 980, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so the
// spreads printed here are the ones the acceptance check computes. Fewer
// than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
