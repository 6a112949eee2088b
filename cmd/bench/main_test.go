package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wcdsnet"
)

func report(ops, mallocs float64, procs, scenarios int, quick bool) *Report {
	return &Report{
		Schema:     Schema,
		GOMAXPROCS: procs,
		Quick:      quick,
		Scenarios:  scenarios,
		Phases: map[string]Phase{
			"engineN": {OpsPerSec: ops, MallocPerOp: mallocs},
		},
	}
}

func TestGate(t *testing.T) {
	base := report(1000, 2000, 1, 108, false)
	cases := []struct {
		name string
		cur  *Report
		fail bool
	}{
		{"identical", report(1000, 2000, 1, 108, false), false},
		{"within tolerance", report(850, 2300, 1, 108, false), false},
		{"throughput regression", report(700, 2000, 1, 108, false), true},
		{"alloc regression", report(1000, 2500, 1, 108, false), true},
		{"slow but different cores", report(100, 2000, 4, 108, false), false},
		{"alloc regression gates on any cores", report(1000, 2500, 4, 108, false), true},
		{"different suite skipped", report(10, 99999, 1, 27, true), false},
	}
	for _, c := range cases {
		err := gate(c.cur, base, "baseline.json")
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure=%v", c.name, err, c.fail)
		}
	}
}

func withMeasure(rep *Report, ops, mallocs float64) *Report {
	rep.Phases["measure"] = Phase{OpsPerSec: ops, MallocPerOp: mallocs}
	return rep
}

func TestGateMeasurePhase(t *testing.T) {
	base := withMeasure(report(1000, 2000, 1, 108, false), 50, 40)
	cases := []struct {
		name string
		cur  *Report
		fail bool
	}{
		{"identical", withMeasure(report(1000, 2000, 1, 108, false), 50, 40), false},
		{"measure alloc regression", withMeasure(report(1000, 2000, 1, 108, false), 50, 60), true},
		{"measure throughput regression", withMeasure(report(1000, 2000, 1, 108, false), 30, 40), true},
		{"measure alloc gates on any cores", withMeasure(report(1000, 2000, 4, 108, false), 50, 60), true},
		{"measure throughput skipped on different cores", withMeasure(report(1000, 2000, 4, 108, false), 30, 40), false},
		{"no measure phase in current run", report(1000, 2000, 1, 108, false), false},
	}
	for _, c := range cases {
		err := gate(c.cur, base, "baseline.json")
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure=%v (err=%v)", c.name, err, c.fail, err)
		}
	}
}

func withMillion(rep *Report, nodes int, ops, mallocs float64) *Report {
	rep.MillionNodeSize = nodes
	rep.Phases["millionNode"] = Phase{OpsPerSec: ops, MallocPerOp: mallocs}
	return rep
}

func TestGateMillionNodePhase(t *testing.T) {
	base := withMillion(report(1000, 2000, 1, 108, false), 250_000, 400_000, 30)
	cases := []struct {
		name string
		cur  *Report
		fail bool
	}{
		{"identical", withMillion(report(1000, 2000, 1, 108, false), 250_000, 400_000, 30), false},
		{"alloc regression", withMillion(report(1000, 2000, 1, 108, false), 250_000, 400_000, 50), true},
		{"throughput regression", withMillion(report(1000, 2000, 1, 108, false), 250_000, 200_000, 30), true},
		{"alloc gates on any cores", withMillion(report(1000, 2000, 4, 108, false), 250_000, 400_000, 50), true},
		{"throughput skipped on different cores", withMillion(report(1000, 2000, 4, 108, false), 250_000, 200_000, 30), false},
		{"different scene size skipped", withMillion(report(1000, 2000, 1, 108, false), 1_000_000, 100_000, 90), false},
		{"no millionNode phase in current run", report(1000, 2000, 1, 108, false), false},
	}
	for _, c := range cases {
		err := gate(c.cur, base, "baseline.json")
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure=%v (err=%v)", c.name, err, c.fail, err)
		}
	}
}

// TestMillionNodeSmoke runs the phase itself at toy scale: the backbone
// must dominate, repetitions must agree, and the reported rate be sane.
func TestMillionNodeSmoke(t *testing.T) {
	ph, err := millionNode(2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ph.OpsPerSec <= 0 || ph.WallNS <= 0 {
		t.Fatalf("degenerate phase measurement: %+v", ph)
	}
}

func withPhases(rep *Report, spans ...wcdsnet.PhaseSpan) *Report {
	rep.ProtocolPhases = spans
	return rep
}

func TestGateProtocolPhases(t *testing.T) {
	mis := wcdsnet.PhaseSpan{Name: "mis", Messages: 1800, Deliveries: 13000}
	recruit := wcdsnet.PhaseSpan{Name: "recruit", Messages: 4000, Deliveries: 26000}
	base := withPhases(report(1000, 2000, 1, 108, false), mis, recruit)
	cases := []struct {
		name string
		cur  *Report
		fail bool
	}{
		{"identical", withPhases(report(1000, 2000, 1, 108, false), mis, recruit), false},
		{"fewer messages pass", withPhases(report(1000, 2000, 1, 108, false),
			wcdsnet.PhaseSpan{Name: "mis", Messages: 900, Deliveries: 6500}, recruit), false},
		{"message regression", withPhases(report(1000, 2000, 1, 108, false),
			mis, wcdsnet.PhaseSpan{Name: "recruit", Messages: 9000, Deliveries: 26000}), true},
		{"delivery regression", withPhases(report(1000, 2000, 1, 108, false),
			wcdsnet.PhaseSpan{Name: "mis", Messages: 1800, Deliveries: 26000}, recruit), true},
		{"phase counts gate on any cores", withPhases(report(1000, 2000, 4, 108, false),
			mis, wcdsnet.PhaseSpan{Name: "recruit", Messages: 9000, Deliveries: 26000}), true},
		{"absent phase skipped", withPhases(report(1000, 2000, 1, 108, false), mis), false},
		{"no phases in current run", report(1000, 2000, 1, 108, false), false},
	}
	for _, c := range cases {
		err := gate(c.cur, base, "baseline.json")
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure=%v", c.name, err, c.fail)
		}
	}
}

func withFleet(rep *Report, workers int, ops float64) *Report {
	rep.FleetWorkers = workers
	rep.Phases["fleetN"] = Phase{Workers: workers, OpsPerSec: ops}
	return rep
}

func TestGateFleetPhase(t *testing.T) {
	base := withFleet(report(1000, 2000, 1, 108, false), 3, 200)
	cases := []struct {
		name string
		cur  *Report
		fail bool
	}{
		{"identical", withFleet(report(1000, 2000, 1, 108, false), 3, 200), false},
		{"fleet throughput regression", withFleet(report(1000, 2000, 1, 108, false), 3, 100), true},
		{"different fleet size skipped", withFleet(report(1000, 2000, 1, 108, false), 5, 100), false},
		{"fleet throughput skipped on different cores", withFleet(report(1000, 2000, 4, 108, false), 3, 100), false},
		{"no fleet phase in current run", report(1000, 2000, 1, 108, false), false},
	}
	for _, c := range cases {
		err := gate(c.cur, base, "baseline.json")
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure=%v (err=%v)", c.name, err, c.fail, err)
		}
	}
}

func TestCheckFleetSpeedup(t *testing.T) {
	one := Phase{Workers: 1, Parallel: 1}
	cases := []struct {
		name    string
		many    Phase
		speedup float64
		fail    bool
	}{
		{"scaling ok", Phase{Workers: 3, Parallel: 3}, 2.4, false},
		{"floor violation with real parallelism", Phase{Workers: 3, Parallel: 3}, 1.1, true},
		{"flat on shared cores only warns", Phase{Workers: 3, Parallel: 1}, 1.0, false},
		{"single worker exempt", Phase{Workers: 1, Parallel: 1}, 1.0, false},
	}
	for _, c := range cases {
		err := checkFleetSpeedup(one, c.many, c.speedup)
		if (err != nil) != c.fail {
			t.Errorf("%s: error = %v, want failure=%v", c.name, err, c.fail)
		}
	}
}

func TestEffectiveParallel(t *testing.T) {
	if got := effectiveParallel(1); got != 1 {
		t.Errorf("effectiveParallel(1) = %d", got)
	}
	if got := effectiveParallel(0); got != 1 {
		t.Errorf("effectiveParallel(0) = %d", got)
	}
	procs := runtime.GOMAXPROCS(0)
	if got := effectiveParallel(procs + 5); got != procs {
		t.Errorf("effectiveParallel(%d) = %d, want GOMAXPROCS=%d", procs+5, got, procs)
	}
}

// TestFleetPhaseSmoke runs the cluster-mode phase itself at toy scale:
// 2 in-process workers over the wire, digest-checked against a local run.
func TestFleetPhaseSmoke(t *testing.T) {
	spec := &wcdsnet.BatchSpec{
		Sizes:   []int{30},
		Degrees: []float64{6},
		Seeds:   []int64{1, 2},
		Workloads: []wcdsnet.BatchWorkload{
			{Kind: "backbone", Algorithm: "II", Mode: "sync"},
			{Kind: "broadcast", Source: 0},
		},
	}
	local, err := wcdsnet.RunBatch(context.Background(), spec, wcdsnet.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, many, err := fleetPhases(context.Background(), spec, local.Digest(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if one.Workers != 1 || many.Workers != 2 {
		t.Fatalf("phase worker counts %d/%d, want 1/2", one.Workers, many.Workers)
	}
	if one.WallNS <= 0 || many.WallNS <= 0 || one.OpsPerSec <= 0 {
		t.Fatalf("degenerate fleet phases: %+v %+v", one, many)
	}
	if many.Parallel < 1 || many.Parallel > 2 {
		t.Fatalf("fleetN effective parallelism %d out of range", many.Parallel)
	}
}

func TestMedianBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := report(1000, 2000, 1, 108, false)
	write := func(name string, rep *Report) {
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Empty dir: nothing to gate against.
	if base, _, err := medianBaseline(dir, 3, cur); err != nil || base != nil {
		t.Fatalf("empty dir: base=%v err=%v", base, err)
	}

	write("BENCH_20260101T000000Z.json", report(400, 3000, 1, 108, false))
	write("BENCH_20260201T000000Z.json", report(1200, 1900, 1, 108, false))
	write("BENCH_20260301T000000Z.json", report(1000, 2000, 1, 108, false))

	base, name, err := medianBaseline(dir, 3, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Median of {400, 1200, 1000} ops and {3000, 1900, 2000} mallocs.
	if got := base.Phases["engineN"].OpsPerSec; got != 1000 {
		t.Errorf("median ops = %v, want 1000", got)
	}
	if got := base.Phases["engineN"].MallocPerOp; got != 2000 {
		t.Errorf("median mallocs = %v, want 2000", got)
	}
	if name == "BENCH_20260301T000000Z.json" {
		t.Errorf("median gate reported a single baseline name: %s", name)
	}

	// n=1 degrades to newest-only.
	base, name, err = medianBaseline(dir, 1, cur)
	if err != nil || name != "BENCH_20260301T000000Z.json" {
		t.Fatalf("n=1: name=%s err=%v", name, err)
	}
	if base.Phases["engineN"].OpsPerSec != 1000 {
		t.Fatalf("n=1 loaded wrong report: %+v", base)
	}

	// A baseline from a different suite shape is excluded from the median.
	write("BENCH_20260401T000000Z.json", report(5000, 100, 1, 108, false))
	write("BENCH_20250101T000000Z.json", report(1, 1, 1, 27, true))
	base, _, err = medianBaseline(dir, 4, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Median over the four full-suite runs {400, 1200, 1000, 5000} = 1100.
	if got := base.Phases["engineN"].OpsPerSec; got != 1100 {
		t.Errorf("median ops with foreign-shape baseline = %v, want 1100", got)
	}

	// A mixed-core history only medians over runs matching the newest.
	write("BENCH_20260501T000000Z.json", report(10, 9, 8, 108, false))
	base, _, err = medianBaseline(dir, 5, cur)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.GOMAXPROCS; got != 8 {
		t.Errorf("merged baseline GOMAXPROCS = %d, want the newest run's 8", got)
	}
	if got := base.Phases["engineN"].OpsPerSec; got != 10 {
		t.Errorf("median across mismatched cores = %v, want the newest run alone (10)", got)
	}
}

func TestNewestBaseline(t *testing.T) {
	dir := t.TempDir()
	if base, _, err := newestBaseline(dir); err != nil || base != nil {
		t.Fatalf("empty dir: base=%v err=%v", base, err)
	}
	write := func(name string, rep *Report) {
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := report(500, 3000, 1, 108, false)
	newer := report(1000, 2000, 1, 108, false)
	write("BENCH_20250101T000000Z.json", old)
	write("BENCH_20260101T000000Z.json", newer)
	base, name, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "BENCH_20260101T000000Z.json" {
		t.Fatalf("picked %s, want the newest stamp", name)
	}
	if base.Phases["engineN"].OpsPerSec != 1000 {
		t.Fatalf("loaded wrong report: %+v", base)
	}

	// A baseline with a foreign schema is ignored, not an error.
	foreign := report(1, 1, 1, 1, false)
	foreign.Schema = "somebody-else/v9"
	write("BENCH_20270101T000000Z.json", foreign)
	base, _, err = newestBaseline(dir)
	if err != nil || base != nil {
		t.Fatalf("foreign schema: base=%v err=%v", base, err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		"BENCH_20240101T000000Z.json",
		"BENCH_20250101T000000Z.json",
		"BENCH_20260101T000000Z.json",
		"BENCH_20260301T000000Z.json",
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated files are never touched.
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	pruned, err := prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 2 {
		t.Fatalf("pruned %d reports, want 2: %v", len(pruned), pruned)
	}
	left, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 ||
		filepath.Base(left[0]) != names[2] || filepath.Base(left[1]) != names[3] {
		t.Fatalf("kept %v, want the two newest stamps", left)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.json")); err != nil {
		t.Fatalf("prune touched an unrelated file: %v", err)
	}

	// Idempotent below the threshold; keep <= 0 disables pruning.
	if pruned, err := prune(dir, 2); err != nil || len(pruned) != 0 {
		t.Fatalf("second prune: %v, %v", pruned, err)
	}
	if pruned, err := prune(dir, 0); err != nil || len(pruned) != 0 {
		t.Fatalf("keep=0 pruned %v, %v", pruned, err)
	}
}
