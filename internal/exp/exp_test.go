package exp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/stats"
)

func TestQuickConfigSizes(t *testing.T) {
	cfg := QuickConfig()
	sizes := cfg.sizes(200, 400, 800)
	if len(sizes) == 0 || len(sizes) > 2 {
		t.Fatalf("quick sizes = %v", sizes)
	}
	for _, n := range sizes {
		if n >= 200 {
			t.Errorf("quick size %d not shrunk", n)
		}
	}
	full := DefaultConfig().sizes(200, 400)
	if len(full) != 2 || full[0] != 200 {
		t.Errorf("full sizes = %v", full)
	}
}

func TestTrialsFloor(t *testing.T) {
	c := Config{}
	if c.trials() != 1 {
		t.Errorf("zero trials should floor to 1, got %d", c.trials())
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "E0", Title: "t", Claim: "c", Table: "x\n", Pass: true, Notes: []string{"note"}}
	s := r.String()
	for _, want := range []string{"E0", "PASS", "c", "note"} {
		if !strings.Contains(s, want) {
			t.Errorf("result string missing %q: %s", want, s)
		}
	}
	r.Pass = false
	if !strings.Contains(r.String(), "FAIL") {
		t.Error("failing result should render FAIL")
	}
}

// TestAllExperimentsQuick runs every experiment at quick scale and demands
// every checked bound passes — this is the repository's end-to-end
// regression of the paper's claims.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	results, err := RunAll(QuickConfig())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != 12 {
		t.Fatalf("got %d experiments, want 12", len(results))
	}
	for _, r := range results {
		if r.Table == "" {
			t.Errorf("%s produced no table", r.ID)
		}
		if !r.Pass {
			t.Errorf("%s FAILED its bound checks:\n%s", r.ID, r.String())
		}
	}
}

// TestAblationsQuick runs the design-decision ablations (A1–A2) at quick
// scale.
func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite skipped in -short mode")
	}
	for _, runner := range Ablations() {
		res, err := runner(QuickConfig())
		if err != nil {
			t.Fatalf("%v", err)
		}
		if !res.Pass {
			t.Errorf("%s FAILED:\n%s", res.ID, res.String())
		}
	}
}

// TestE6AggregatesDilationRows pins that E6 reads its table off the batch
// sweep: Algorithm II's worst h'/h in each (n, deg) row is the maximum
// worstTopo over that cell's dilation rows, here from a one-worker run.
func TestE6AggregatesDilationRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	cfg := QuickConfig()
	res, err := RunE6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := e6Spec(cfg)
	rep, err := batch.Run(context.Background(), spec, batch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, r := range rep.Results {
		if r.Workload == "dilation-II-p0" {
			key := fmt.Sprintf("%d/%g", r.Size, r.Degree)
			want[key] = max(want[key], r.WorstTopo)
		}
	}
	if len(want) != len(spec.Sizes)*len(spec.Degrees) {
		t.Fatalf("dilation-II rows cover %d cells, want %d", len(want), len(spec.Sizes)*len(spec.Degrees))
	}
	for _, line := range strings.Split(res.Table, "\n") {
		f := strings.Fields(line) // algo, n, deg, worst h'/h, worst l'/l, bounds ok
		if len(f) != 6 || f[0] != "II" {
			continue
		}
		key := f[1] + "/" + f[2]
		if got := f[3]; got != stats.F(want[key], 2) {
			t.Errorf("E6 II n=%s deg=%s: worst h'/h %s, dilation rows give %s", f[1], f[2], got, stats.F(want[key], 2))
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Errorf("E6 table has no Algorithm II row for %v", want)
	}
}
