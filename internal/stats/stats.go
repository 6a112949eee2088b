// Package stats provides the small statistics and table-formatting toolkit
// used by the experiment harness: summaries, percentiles, least-squares
// fits for scaling checks, and aligned text tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
	P50, P95     float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P95 = quantile(sorted, 0.95)
	return s
}

// SummarizeInts converts to float64 and summarizes.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Quantile returns the interpolated q-quantile of xs (any order; xs is not
// modified). An empty sample yields 0; q is clamped to [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, q)
}

// NearestRank returns the nearest-rank q-quantile of xs (any order; xs is
// not modified): the sample at sorted index ⌈q·n⌉−1, so a tail percentile
// is always an observed value at or above the requested share — with two
// samples the P99 is the slower one. An empty sample yields 0; q is
// clamped to [0, 1].
func NearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// The epsilon keeps q·n that is integral in exact arithmetic (0.5·6)
	// from rounding up a rank on float error.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quantile interpolates the q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit performs least-squares regression y ≈ intercept + slope·x and
// returns the coefficient of determination r². Degenerate inputs (fewer
// than two points, or constant x) return zeros.
func LinearFit(xs, ys []float64) (intercept, slope, r2 float64) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return intercept, slope, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return intercept, slope, r2
}

// FitPerNode reports the average ratio y/x — the "cost per node" for
// complexity experiments where y is expected Θ(x).
func FitPerNode(xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0
	}
	total := 0.0
	count := 0
	for i := range xs {
		if xs[i] != 0 {
			total += ys[i] / xs[i]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Table accumulates rows and renders them with aligned columns, suitable
// for terminals and for pasting into EXPERIMENTS.md as code blocks.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given precision — a terser fmt.Sprintf
// shorthand for table cells.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// I formats an int for table cells.
func I(v int) string { return fmt.Sprintf("%d", v) }
