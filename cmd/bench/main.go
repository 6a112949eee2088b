// Command bench measures the sharded batch engine on a pinned, fully
// deterministic sweep and emits a schema-versioned BENCH_<stamp>.json
// report.
//
// Two executions of the same spec are timed:
//
//	engine1  — the batch engine pinned to one worker; its digest is the
//	           reference every other execution is checked against
//	engineN  — the batch engine at the requested worker count
//
// Both must produce byte-identical per-scenario results (compared by
// report digest); bench exits non-zero otherwise. The pinned suite contains
// only centralized and deterministic-engine workloads, whose measurements
// are schedule-independent; async runs would replay from their seed, but
// their costs measure one random schedule rather than the protocol.
//
// A measure phase (measure.go) isolates the dilation measurement core:
// spanner.DilationN over a pinned set of networks, outside the engine.
//
// A further millionNode phase (million.go) times the event-driven engine
// on one large uniform scene — Algorithm II end to end, generate to
// verified backbone. The scene size scales with the suite (50k quick, 250k
// full) and -nodes overrides it; at -nodes 1000000 the phase additionally
// enforces a hard single-digit-seconds wall-clock budget.
//
// The competitors phase (competitors.go) sweeps every registered algorithm
// across every registered topology kind — backbone size, dilation and
// message cost per (algorithm × topology) cell — digest-checked across
// worker counts and validity-checked cell by cell. `-competitors` runs just
// that sweep in its quick shape and exits (the CI smoke job).
//
// The fleet phases (fleetphase.go) time the cluster-mode coordinator on
// the same suite through the full wire path — HTTP, JSON, NDJSON — against
// in-process loopback workers: fleet1 drives one worker, fleetN a 3-worker
// fleet, both with single-threaded workers so the measured scaling comes
// from fleet size alone. Both merged digests must match engine1. On a
// multi-core runner (GOMAXPROCS >= fleet size) the N-worker fleet must
// clear a 1.8x speedup over the single worker; below that core count the
// two runs share cores and the phase only warns, because their timings are
// indistinguishable.
//
// If prior BENCH_*.json reports exist in the output directory, bench
// compares against the median of the last -baselines matching reports
// (same schema and suite shape; default 3, damping one-off baseline noise)
// and fails on a >20% regression: throughput is gated only when GOMAXPROCS
// matches the baseline (ops/s on a different core count is not comparable,
// and millionNode throughput additionally only when the scene size
// matches); allocations per scenario, measurement-core allocations and
// per-phase protocol message/delivery counts are gated always. Every phase
// records its effective parallelism (workers actually backed by cores);
// when an N-worker phase ran without real parallelism bench says so.
//
// Usage:
//
//	go run ./cmd/bench                  # full suite (132 scenarios + 250k-node run)
//	go run ./cmd/bench -quick           # CI smoke (33 scenarios + 50k-node run)
//	go run ./cmd/bench -nodes 1000000   # nightly: full scale, 10s budget enforced
//	go run ./cmd/bench -out bench/      # write the report elsewhere
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"wcdsnet"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/stats"
)

// Schema identifies the report layout; bump on breaking changes. v2 added
// protocol_phases (the merged per-phase cost breakdown of the suite's
// distributed workloads) and retention pruning via -keep. v3 added the
// measurement-core phases (measure plus an allocating-reference
// comparator, see measure.go) and extended the gate to per-phase protocol
// message/delivery counts. v4 added event-engine workloads to the pinned
// sweep plus the millionNode phase (million.go): one large uniform scene
// through Algorithm II on the event engine, sized by -nodes and recorded
// in million_node_size so the gate only compares like against like. v5
// added the competitors phase (competitors.go): every registered algorithm
// crossed with every registered topology kind, digest-checked across
// worker counts, with the per-cell table recorded in
// competitors/competitor_digest. v6 added the cluster-mode fleet phases
// (fleet1/fleetN through the wire against in-process workers,
// fleetphase.go), speedup_fleet/fleet_workers, per-phase effective
// parallelism, and median-of-N baseline gating.
//
// The two comparator phases (the serial sweep and the allocating dilation
// reference) and the speedup_1w / speedup_nw fields were later dropped
// without a bump: the gate never read them. It reads engineN, measure,
// millionNode, fleetN and the protocol phase counters, all unchanged, and
// the reader ignores the retired fields, so v6 baselines written before
// the removal still gate.
const Schema = "wcdsnet-bench/v6"

// regressionTolerance is the fractional slack before the gate trips.
const regressionTolerance = 0.20

// Phase is the measurement of one execution of the suite.
type Phase struct {
	Workers     int     `json:"workers"`
	WallNS      int64   `json:"wall_ns"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	AllocPerOp  float64 `json:"alloc_bytes_per_op"`
	MallocPerOp float64 `json:"mallocs_per_op"`
	// Parallel is the phase's effective parallelism: the worker count
	// actually backed by cores (min(Workers, GOMAXPROCS)). An N-worker
	// phase with Parallel == 1 timed concurrency, not parallelism — its
	// wall clock is indistinguishable from the 1-worker run.
	Parallel int `json:"parallel,omitempty"`
}

// effectiveParallel is the worker count actually backed by cores.
func effectiveParallel(workers int) int {
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		return procs
	}
	return max(workers, 1)
}

// warnParallel notes when a multi-worker phase ran without real
// parallelism, so a flat speedup on a starved runner reads as the
// measurement artifact it is rather than a regression.
func warnParallel(name string, ph Phase) {
	if ph.Workers > 1 && ph.Parallel == 1 {
		fmt.Printf("warning: %s ran %d workers at effective parallelism 1 (GOMAXPROCS=%d) — its timing is indistinguishable from a 1-worker run\n",
			name, ph.Workers, runtime.GOMAXPROCS(0))
	}
}

// Report is the BENCH_*.json document.
type Report struct {
	Schema     string           `json:"schema"`
	Stamp      string           `json:"stamp"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Scenarios  int              `json:"scenarios"`
	Networks   int              `json:"networks"`
	Digest     string           `json:"digest"`
	Phases     map[string]Phase `json:"phases"`
	Baseline   string           `json:"baseline,omitempty"`

	// SpeedupFleet is fleet1 wall over fleetN wall (cluster-mode scaling)
	// and FleetWorkers the fleetN worker count; the gate compares fleet
	// throughput only between runs with the same fleet size.
	SpeedupFleet float64 `json:"speedup_fleet,omitempty"`
	FleetWorkers int     `json:"fleet_workers,omitempty"`

	// MillionNodeSize is the node count of the millionNode phase's scene.
	// Throughput at different scales is not comparable, so the gate only
	// compares the phase when the sizes match.
	MillionNodeSize int `json:"million_node_size,omitempty"`

	// ProtocolPhases merges the per-phase protocol cost breakdown across
	// the suite's distributed workloads (from the engineN execution). Wall
	// times are scheduler-dependent; the counters are deterministic.
	ProtocolPhases []wcdsnet.PhaseSpan `json:"protocol_phases,omitempty"`

	// Competitors is the (topology × algorithm) sweep table and
	// CompetitorDigest its worker-count-invariant report digest (see
	// competitors.go).
	Competitors      []CompetitorRow `json:"competitors,omitempty"`
	CompetitorDigest string          `json:"competitor_digest,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "run the ~20-scenario CI smoke suite instead of the full one")
	out := flag.String("out", ".", "directory for the BENCH_<stamp>.json report (and where baselines are looked up)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker count for the engineN phase")
	reps := flag.Int("reps", 3, "repetitions per phase; the fastest is reported (damps scheduler noise)")
	noGate := flag.Bool("no-gate", false, "skip the regression comparison against the newest prior report")
	keep := flag.Int("keep", 5, "retain only the newest N BENCH_*.json reports after writing (0 = keep all)")
	nodes := flag.Int("nodes", 0, "node count for the millionNode event-engine phase (0 = 50k quick / 250k full; nightly passes 1000000)")
	compOnly := flag.Bool("competitors", false, "run only the quick competitor smoke (every algorithm × topology cell) and exit; no report, no gate")
	baselines := flag.Int("baselines", 3, "gate against the median of the last N matching baselines (1 = newest only)")
	fleetN := flag.Int("fleet", 3, "worker count for the fleetN cluster-mode phase (0 disables the fleet phases)")
	flag.Parse()

	if *compOnly {
		if err := competitorsSmoke(*workers); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*quick, *out, *workers, *reps, *noGate, *keep, *nodes, *baselines, *fleetN); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(quick bool, outDir string, workers, reps int, noGate bool, keep, nodes, baselines, fleetWorkers int) error {
	if reps < 1 {
		reps = 1
	}
	if nodes <= 0 {
		nodes = defaultMillionNodes(quick)
	}
	spec := suite(quick)
	ctx := context.Background()

	fmt.Printf("suite: %d scenarios over %d networks (quick=%v, reps=%d, GOMAXPROCS=%d)\n",
		spec.NumScenarios(), spec.NumNetworks(), quick, reps, runtime.GOMAXPROCS(0))

	engine1Rep, err := timed("engine1", reps, func() (*wcdsnet.BatchReport, error) {
		return wcdsnet.RunBatch(ctx, spec, wcdsnet.BatchOptions{Workers: 1})
	})
	if err != nil {
		return err
	}
	engineNRep, err := timed("engineN", reps, func() (*wcdsnet.BatchReport, error) {
		return wcdsnet.RunBatch(ctx, spec, wcdsnet.BatchOptions{Workers: workers})
	})
	if err != nil {
		return err
	}

	digest := engine1Rep.Digest()
	if d := engineNRep.Digest(); d != digest {
		return fmt.Errorf("determinism violation: engine(%d workers) digest %s != engine(1 worker) %s", workers, d[:12], digest[:12])
	}
	if engine1Rep.Failed != 0 {
		return fmt.Errorf("%d scenarios failed", engine1Rep.Failed)
	}

	cases, err := measureCases(quick)
	if err != nil {
		return err
	}
	measurePh, err := measurePhase("measure", cases, reps, workers)
	if err != nil {
		return err
	}

	millionPh, err := millionNode(nodes, reps)
	if err != nil {
		return err
	}

	compPh, compDigest, compRows, err := competitors(quick, workers, reps)
	if err != nil {
		return err
	}

	var fleet1Ph, fleetNPh Phase
	var speedupFleet float64
	if fleetWorkers > 0 {
		fleet1Ph, fleetNPh, err = fleetPhases(ctx, spec, digest, reps, fleetWorkers)
		if err != nil {
			return err
		}
		speedupFleet = float64(fleet1Ph.WallNS) / float64(fleetNPh.WallNS)
	}

	rep := &Report{
		Schema:     Schema,
		Stamp:      time.Now().UTC().Format("20060102T150405Z"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Scenarios:  engine1Rep.Scenarios,
		Networks:   engine1Rep.Networks,
		Digest:     digest,
		Phases: map[string]Phase{
			"engine1":     phase(engine1Rep),
			"engineN":     phase(engineNRep),
			"measure":     measurePh,
			"millionNode": millionPh,
			"competitors": compPh,
		},
		SpeedupFleet:     speedupFleet,
		FleetWorkers:     fleetWorkers,
		ProtocolPhases:   phaseTotals(engineNRep),
		MillionNodeSize:  nodes,
		Competitors:      compRows,
		CompetitorDigest: compDigest,
	}
	if fleetWorkers > 0 {
		rep.Phases["fleet1"] = fleet1Ph
		rep.Phases["fleetN"] = fleetNPh
	}
	fmt.Printf("digest : %s (identical across 1 worker and %d workers)\n", digest[:16], workers)
	fmt.Printf("speedup: %.2fx (%d workers vs 1)\n", float64(engine1Rep.WallNS)/float64(engineNRep.WallNS), workers)
	if fleetWorkers > 0 {
		fmt.Printf("fleet  : %.2fx (%d workers vs 1, effective parallelism %d)\n",
			speedupFleet, fleetWorkers, fleetNPh.Parallel)
		if err := checkFleetSpeedup(fleet1Ph, fleetNPh, speedupFleet); err != nil {
			return err
		}
	}
	warnParallel("engineN", rep.Phases["engineN"])
	warnParallel("fleetN", fleetNPh)
	printCompetitors(compRows)

	var gateErr error
	if !noGate {
		base, name, err := medianBaseline(outDir, baselines, rep)
		if err != nil {
			return err
		}
		if base == nil {
			fmt.Println("gate   : no prior BENCH_*.json, nothing to compare against")
		} else {
			rep.Baseline = name
			gateErr = gate(rep, base, name)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_"+rep.Stamp+".json")
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote  :", path)
	if pruned, err := prune(outDir, keep); err != nil {
		return err
	} else if len(pruned) > 0 {
		fmt.Printf("pruned : %d old report(s), keeping the newest %d\n", len(pruned), keep)
	}
	return gateErr
}

// phaseTotals merges the per-phase protocol breakdown across every result
// of the report (only distributed workloads carry one).
func phaseTotals(rep *wcdsnet.BatchReport) []wcdsnet.PhaseSpan {
	totals := obs.NewSpans()
	for i := range rep.Results {
		totals.Merge(rep.Results[i].Phases)
	}
	return totals.Snapshot()
}

// prune deletes all but the newest keep BENCH_*.json reports in dir, so
// repeated bench runs stop accumulating baselines. keep <= 0 disables
// pruning.
func prune(dir string, keep int) ([]string, error) {
	if keep <= 0 {
		return nil, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(matches) <= keep {
		return nil, nil
	}
	sort.Strings(matches) // stamps sort chronologically
	doomed := matches[:len(matches)-keep]
	for _, path := range doomed {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("prune %s: %w", path, err)
		}
	}
	return doomed, nil
}

// suite is the pinned benchmark sweep. Full: 2 sizes × 2 degrees × 3 seeds
// × 11 workloads = 132 scenarios over 12 networks. Quick: 1 × 1 × 3 × 11 =
// 33 scenarios over 3 networks. Only native-schedule workloads — no async
// (async message counts depend on the schedule seed, so they would measure
// one random schedule; the event engine's FIFO order is swept, both
// lossless and lossy-reliable). The workloads per network cell mirror how the sweep is
// used in practice — one backbone per algorithm, distributed runs on both
// deterministic engines, sampled dilation, and broadcast from several
// sources over the same backbone — and exercise the engine's shared
// subcomputations: every cell builds its network once, runs each
// centralized construction once and the detailed distributed run once, no
// matter how many workloads consume them.
func suite(quick bool) *wcdsnet.BatchSpec {
	spec := &wcdsnet.BatchSpec{
		Sizes:   []int{100, 200},
		Degrees: []float64{6, 10},
		Seeds:   []int64{1, 2, 3},
		Workloads: []wcdsnet.BatchWorkload{
			{Kind: "backbone", Algorithm: "II"},
			{Kind: "backbone", Algorithm: "I"},
			{Kind: "backbone", Algorithm: "II", Mode: "sync"},
			{Kind: "backbone", Algorithm: "II", Engine: "event"},
			{Kind: "backbone", Algorithm: "II", Engine: "event",
				Faults: &wcdsnet.FaultPlan{Seed: 11, DropRate: 0.15}, Reliable: true, MaxRounds: 4000},
			{Kind: "dilation", Algorithm: "II", Pairs: 40, SampleSeed: 7},
			{Kind: "broadcast", Source: 0},
			{Kind: "broadcast", Source: 1},
			{Kind: "broadcast", Source: 2},
			{Kind: "broadcast", Source: 3},
			{Kind: "broadcast", Source: 4},
		},
	}
	if quick {
		spec.Sizes = []int{60}
		spec.Degrees = []float64{6}
		spec.Seeds = []int64{1, 2, 3}
	}
	return spec
}

// timed runs the phase reps times and keeps the fastest repetition — wall
// clock on a busy box only ever adds noise, so min is the honest estimate.
// Every repetition must produce the same digest, which turns the reps into
// extra determinism checks for free.
func timed(label string, reps int, f func() (*wcdsnet.BatchReport, error)) (*wcdsnet.BatchReport, error) {
	var best *wcdsnet.BatchReport
	digest := ""
	for i := 0; i < reps; i++ {
		rep, err := f()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		if d := rep.Digest(); digest == "" {
			digest = d
		} else if d != digest {
			return nil, fmt.Errorf("%s: repetition %d digest %s != %s", label, i+1, d[:12], digest[:12])
		}
		if best == nil || rep.WallNS < best.WallNS {
			best = rep
		}
	}
	p := phase(best)
	fmt.Printf("%s: %8.1f scenarios/s  wall %7.1fms  p50 %6.2fms  p95 %6.2fms  %7.0f B/op  %5.0f allocs/op\n",
		label, p.OpsPerSec, float64(best.WallNS)/1e6, p.P50MS, p.P95MS, p.AllocPerOp, p.MallocPerOp)
	return best, nil
}

func phase(rep *wcdsnet.BatchReport) Phase {
	wall := make([]float64, 0, len(rep.Results))
	for _, r := range rep.Results {
		wall = append(wall, float64(r.WallNS)/1e6)
	}
	sum := stats.Summarize(wall)
	n := float64(rep.Scenarios)
	return Phase{
		Workers:     rep.Workers,
		WallNS:      rep.WallNS,
		OpsPerSec:   n / (float64(rep.WallNS) / 1e9),
		P50MS:       sum.P50,
		P95MS:       sum.P95,
		AllocPerOp:  float64(rep.AllocBytes) / n,
		MallocPerOp: float64(rep.Mallocs) / n,
		Parallel:    effectiveParallel(rep.Workers),
	}
}

// newestBaseline loads the lexically newest BENCH_*.json in dir (the stamp
// format sorts chronologically). Returns nil when none exists.
func newestBaseline(dir string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	if len(matches) == 0 {
		return nil, "", nil
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("read baseline %s: %w", path, err)
	}
	var base Report
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, "", fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Schema != Schema {
		fmt.Printf("gate   : baseline %s has schema %q, skipping comparison\n", filepath.Base(path), base.Schema)
		return nil, "", nil
	}
	return &base, filepath.Base(path), nil
}

// medianBaseline gates against the median of the last n baselines that
// match the newest one's shape (same schema, suite, core count, scene and
// fleet size), instead of the newest alone — one anomalously fast or slow
// baseline run then shifts the reference by at most half a sample, not the
// whole gate. n <= 1 degrades to newest-only. The synthetic report carries
// the newest baseline's metadata, so gate's comparability rules behave
// exactly as with a single baseline.
func medianBaseline(dir string, n int, cur *Report) (*Report, string, error) {
	newest, newestName, err := newestBaseline(dir)
	if err != nil || newest == nil || n <= 1 {
		return newest, newestName, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	sort.Strings(matches)
	var picked []*Report
	var names []string
	for i := len(matches) - 1; i >= 0 && len(picked) < n; i-- {
		blob, err := os.ReadFile(matches[i])
		if err != nil {
			return nil, "", fmt.Errorf("read baseline %s: %w", matches[i], err)
		}
		var base Report
		if err := json.Unmarshal(blob, &base); err != nil {
			return nil, "", fmt.Errorf("parse baseline %s: %w", matches[i], err)
		}
		if base.Schema != Schema || base.Quick != newest.Quick ||
			base.Scenarios != newest.Scenarios || base.GOMAXPROCS != newest.GOMAXPROCS ||
			base.MillionNodeSize != newest.MillionNodeSize || base.FleetWorkers != newest.FleetWorkers {
			continue
		}
		picked = append(picked, &base)
		names = append(names, filepath.Base(matches[i]))
	}
	if len(picked) <= 1 {
		return newest, newestName, nil
	}

	merged := *newest
	merged.Phases = make(map[string]Phase, len(newest.Phases))
	for name, ph := range newest.Phases {
		ops := make([]float64, 0, len(picked))
		mallocs := make([]float64, 0, len(picked))
		for _, base := range picked {
			if bph, ok := base.Phases[name]; ok {
				ops = append(ops, bph.OpsPerSec)
				mallocs = append(mallocs, bph.MallocPerOp)
			}
		}
		ph.OpsPerSec, ph.MallocPerOp = median(ops), median(mallocs)
		merged.Phases[name] = ph
	}
	merged.ProtocolPhases = nil
	for _, sp := range newest.ProtocolPhases {
		msgs := make([]float64, 0, len(picked))
		dels := make([]float64, 0, len(picked))
		for _, base := range picked {
			for _, bsp := range base.ProtocolPhases {
				if bsp.Name == sp.Name {
					msgs = append(msgs, float64(bsp.Messages))
					dels = append(dels, float64(bsp.Deliveries))
				}
			}
		}
		sp.Messages, sp.Deliveries = int(median(msgs)), int(median(dels))
		merged.ProtocolPhases = append(merged.ProtocolPhases, sp)
	}
	return &merged, fmt.Sprintf("median of %d: %s .. %s", len(picked), names[len(names)-1], names[0]), nil
}

// median of a sample; even-sized samples average the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// gate compares the report against the baseline and returns an error on a
// >20% regression. Throughput across different suite shapes or core counts
// is not comparable and is skipped with a note; the allocations-per-
// scenario gates (engineN and measure) and the per-phase protocol message
// and delivery counts are gated whenever the suite shape matches — the
// counters are deterministic, so any core count compares.
func gate(rep, base *Report, name string) error {
	cur, curOK := rep.Phases["engineN"]
	old, oldOK := base.Phases["engineN"]
	if !curOK || !oldOK {
		fmt.Printf("gate   : baseline %s has no engineN phase, skipping\n", name)
		return nil
	}
	if base.Quick != rep.Quick || base.Scenarios != rep.Scenarios {
		fmt.Printf("gate   : baseline %s ran a different suite (%d scenarios, quick=%v), skipping\n",
			name, base.Scenarios, base.Quick)
		return nil
	}

	if err := gateMallocs("engineN", cur, old, name); err != nil {
		return err
	}
	mcur, mcurOK := rep.Phases["measure"]
	mold, moldOK := base.Phases["measure"]
	if mcurOK && moldOK {
		if err := gateMallocs("measure", mcur, mold, name); err != nil {
			return err
		}
	}
	ncur, ncurOK := rep.Phases["millionNode"]
	nold, noldOK := base.Phases["millionNode"]
	millionComparable := ncurOK && noldOK && rep.MillionNodeSize == base.MillionNodeSize
	if ncurOK && noldOK && !millionComparable {
		fmt.Printf("gate   : baseline %s ran millionNode at %d nodes (now %d), skipping that phase\n",
			name, base.MillionNodeSize, rep.MillionNodeSize)
	}
	if millionComparable {
		if err := gateMallocs("millionNode", ncur, nold, name); err != nil {
			return err
		}
	}
	if err := gateProtocolPhases(rep, base, name); err != nil {
		return err
	}
	if base.GOMAXPROCS != rep.GOMAXPROCS {
		fmt.Printf("gate   : baseline %s ran at GOMAXPROCS=%d (now %d), allocs and phase gates only\n",
			name, base.GOMAXPROCS, rep.GOMAXPROCS)
		return nil
	}
	if err := gateOps("engineN", "scenarios/s", cur, old, name); err != nil {
		return err
	}
	if mcurOK && moldOK {
		if err := gateOps("measure", "dilations/s", mcur, mold, name); err != nil {
			return err
		}
	}
	if millionComparable {
		if err := gateOps("millionNode", "nodes/s", ncur, nold, name); err != nil {
			return err
		}
	}
	fcur, fcurOK := rep.Phases["fleetN"]
	fold, foldOK := base.Phases["fleetN"]
	fleetComparable := fcurOK && foldOK && rep.FleetWorkers == base.FleetWorkers
	if fcurOK && foldOK && !fleetComparable {
		fmt.Printf("gate   : baseline %s ran the fleet phase at %d workers (now %d), skipping it\n",
			name, base.FleetWorkers, rep.FleetWorkers)
	}
	if fleetComparable {
		if err := gateOps("fleetN", "scenarios/s", fcur, fold, name); err != nil {
			return err
		}
	}
	fmt.Printf("gate   : within %.0f%% of %s (%.1f vs %.1f scenarios/s, %.0f vs %.0f allocs/op)\n",
		regressionTolerance*100, name, cur.OpsPerSec, old.OpsPerSec, cur.MallocPerOp, old.MallocPerOp)
	return nil
}

// gateMallocs trips when a phase's allocations per op grew past tolerance.
func gateMallocs(phase string, cur, old Phase, name string) error {
	if old.MallocPerOp <= 0 {
		return nil
	}
	limit := old.MallocPerOp * (1 + regressionTolerance)
	if cur.MallocPerOp > limit {
		return fmt.Errorf("regression vs %s: %s %.0f mallocs/op > %.0f (baseline %.0f +%d%%)",
			name, phase, cur.MallocPerOp, limit, old.MallocPerOp, int(regressionTolerance*100))
	}
	return nil
}

// gateOps trips when a phase's throughput fell past tolerance.
func gateOps(phase, unit string, cur, old Phase, name string) error {
	if old.OpsPerSec <= 0 {
		return nil
	}
	floor := old.OpsPerSec * (1 - regressionTolerance)
	if cur.OpsPerSec < floor {
		return fmt.Errorf("regression vs %s: %s %.1f %s < %.1f (baseline %.1f -%d%%)",
			name, phase, cur.OpsPerSec, unit, floor, old.OpsPerSec, int(regressionTolerance*100))
	}
	return nil
}

// gateProtocolPhases trips when a protocol phase's message or delivery
// count grew past tolerance — the per-phase counters are deterministic on
// the pinned suite, so a protocol change that silently doubles recruit
// traffic fails here even if total throughput still passes. One-sided:
// sending fewer messages is an improvement, not a regression.
func gateProtocolPhases(rep, base *Report, name string) error {
	curByName := make(map[string]wcdsnet.PhaseSpan, len(rep.ProtocolPhases))
	for _, sp := range rep.ProtocolPhases {
		curByName[sp.Name] = sp
	}
	for _, old := range base.ProtocolPhases {
		cur, ok := curByName[old.Name]
		if !ok {
			fmt.Printf("gate   : phase %q absent from this run, skipping its counters\n", old.Name)
			continue
		}
		if old.Messages > 0 {
			limit := float64(old.Messages) * (1 + regressionTolerance)
			if float64(cur.Messages) > limit {
				return fmt.Errorf("regression vs %s: phase %s %d messages > %.0f (baseline %d +%d%%)",
					name, old.Name, cur.Messages, limit, old.Messages, int(regressionTolerance*100))
			}
		}
		if old.Deliveries > 0 {
			limit := float64(old.Deliveries) * (1 + regressionTolerance)
			if float64(cur.Deliveries) > limit {
				return fmt.Errorf("regression vs %s: phase %s %d deliveries > %.0f (baseline %d +%d%%)",
					name, old.Name, cur.Deliveries, limit, old.Deliveries, int(regressionTolerance*100))
			}
		}
	}
	return nil
}
