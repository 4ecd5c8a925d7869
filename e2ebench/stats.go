package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie strictly beyond a reported
// percentile for it to be reported at all.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// minSamples is the smallest sample count that leaves tailSamples beyond
// the q-quantile.
func minSamples(q float64) int {
	n := 1
	for beyond(n, q) < tailSamples {
		n++
	}
	return n
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
