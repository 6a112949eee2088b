package main

import (
	"math"
	"testing"
)

// The tail rule: the highest ladder percentile with at least ten samples
// strictly beyond its nearest-rank position.
func TestHighestTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{9, 0},    // even the median has only 4 samples beyond it
		{20, 50},  // rank 10, 10 beyond; p75 has rank 15, 5 beyond
		{40, 75},  // p75: rank 30, 10 beyond
		{99, 75},  // p90 has rank 90, only 9 beyond
		{100, 90}, // p90: rank 90, 10 beyond; p99: 1 beyond
		{999, 90}, // p99: rank 990, 9 beyond
		{1000, 99},
		{5000, 99},    // p99.9: rank 4995, only 5 beyond
		{10000, 99.9}, // p99.9: rank 9990, 10 beyond
	}
	for _, c := range cases {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{99, 50, 50}, {99, 90, 90}, {99, 99, 99},
		{100, 50, 50}, {100, 90, 90}, {100, 99, 99}, {100, 100, 100},
		{1000, 99, 990}, {1000, 99.9, 999},
		{5000, 99, 4950}, {5000, 99.9, 4995},
	}
	for _, c := range cases {
		if got := percentile(samples(c.n), c.p); got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p, c.n, got, c.want)
		}
		if b := beyond(c.n, c.p); b != c.n-int(c.want) {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, b, c.n-int(c.want))
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}
