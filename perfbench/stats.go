package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail percentile.
const tailMin = 10

// tailPercentile is the highest percentile, capped at 99, that leaves at
// least tailMin samples beyond it in a sample of n: 99 once n reaches 1000,
// lower for smaller samples. A sample too small to have such a percentile
// reports its largest value (100).
func tailPercentile(n int) float64 {
	if n <= tailMin {
		return 100
	}
	p := 100 * float64(n-tailMin) / float64(n)
	return math.Min(99, math.Floor(p*10)/10)
}

// quantile reads the p-th percentile (0..100) of an ascending sample by
// nearest rank: the smallest value with at least p% of the sample at or
// below it.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a rank that is whole in exact arithmetic from
	// rounding up past it (98.4% of 625 is 615, not 615.0000000000001).
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle of an unsorted sample (the mean of the two middle
// values for an even count); 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
