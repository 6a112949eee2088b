package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 99, 99.9}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to count as measured rather than as one outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (0.999*5000 = 4995.000000000001) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above the nearest-rank position of p.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestTail returns the highest ladder percentile with at least
// minBeyond samples beyond it among n samples, or 0 when even the median
// has fewer.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of samples (which it
// sorts in place). NaN for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// median of samples (sorted in place); the lower middle value for even
// counts, so the result is always an observed sample.
func median(samples []float64) float64 { return percentile(samples, 50) }
