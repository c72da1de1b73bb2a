package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between order statistics; xs need not be sorted. It
// returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the percentiles a tail metric may report, highest
// first; the median is the floor when a run holds fewer than 40 samples.
var tailCandidates = []int{99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of size n: a percentile
// resting on fewer is a report of the few slowest operations, not of the
// distribution.
func tailPercentile(n int) int {
	for _, p := range tailCandidates {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
