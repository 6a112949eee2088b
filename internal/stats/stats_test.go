package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.P50 != 7 || s.P95 != 7 || s.StdDev != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 &&
			s.Min <= s.P50+1e-9 && s.P50 <= s.P95+1e-9 && s.P95 <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if s.P50 != 5 {
		t.Errorf("P50 = %v, want 5", s.P50)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, r2 := LinearFit([]float64{1}, []float64{2}); r2 != 0 {
		t.Error("single point should be degenerate")
	}
	if _, _, r2 := LinearFit([]float64{2, 2}, []float64{1, 5}); r2 != 0 {
		t.Error("constant x should be degenerate")
	}
	a, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if a != 4 || b != 0 || r2 != 1 {
		t.Errorf("constant y fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "messages")
	tb.AddRow("10", "123")
	tb.AddRow("1000", "45")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table = %q", out)
	}
	if !strings.HasPrefix(lines[0], "n   ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[3], "1000") {
		t.Errorf("row missing: %q", lines[3])
	}
	// Short rows pad, long rows truncate.
	tb2 := NewTable("a", "b")
	tb2.AddRow("1")
	tb2.AddRow("1", "2", "3")
	if out := tb2.String(); !strings.Contains(out, "1") {
		t.Errorf("padded table = %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4} // unsorted on purpose
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	// Out-of-range q clamps; empty and singleton samples are safe.
	if got := Quantile(xs, 2); got != 5 {
		t.Errorf("clamped q = %v, want 5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("singleton = %v, want 7", got)
	}
	// The input must not be reordered.
	if xs[0] != 5 || xs[4] != 4 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{6, 1, 5, 2, 4, 3} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.51, 4}, {0.99, 6}, {1, 6}, {2, 6}, {-1, 1},
	} {
		if got := NearestRank(xs, tc.q); got != tc.want {
			t.Errorf("NearestRank(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Two samples: the tail is the slower one, never the faster.
	if got := NearestRank([]float64{18.7, 25.1}, 0.99); got != 25.1 {
		t.Errorf("two-sample p99 = %v, want 25.1", got)
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if xs[0] != 6 || xs[5] != 3 {
		t.Errorf("NearestRank mutated its input: %v", xs)
	}
}
