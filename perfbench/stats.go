package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 over 300 samples is three requests, which is noise, not a tail.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples. It refuses when fewer than minTail samples lie beyond the
// selected rank, so a tail is only ever reported where it has support.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", q*100, n, beyond, minTail)
	}
	return sorted[idx], nil
}

// median is the middle of sorted samples (the mean of the two middle
// ones for an even count), 0 for none.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// mean is the arithmetic mean, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
