// Command fleet runs the cluster-mode coordinator: it fans one batch sweep
// out across N serve workers over POST /v1/shard (wire schema v7), merges
// the index-addressed rows back digest-identically, and prints per-worker
// utilization and tail latency. Workers are either spawned in-process on
// loopback ports (-spawn) or addressed externally (-workers); either way
// every row travels the full HTTP + NDJSON wire path.
//
// Usage:
//
//	fleet [flags]
//
//	-spawn 3          spawn N in-process loopback workers
//	-workers ""       comma-separated external worker base URLs
//	                  (e.g. "http://h1:8080,http://h2:8080"; overrides -spawn)
//	-width 8          scenarios per shard, rounded up to whole network cells
//	                  (results identical for any width)
//	-parallel 0       in-worker shard parallelism (0 = worker GOMAXPROCS)
//	-measure 0        per-scenario dilation measurement workers
//	-sizes 100,200    sweep sizes
//	-degrees 6,10     sweep average degrees
//	-seeds 1,2,3      sweep seeds
//	-spec ""          JSON batch-spec file (full control; overrides the axis flags)
//	-check            also run the sweep locally and fail on digest drift
//	-out ""           write the fleet report as JSON to this file
//
// The command drives sweeps; it does not grade worker loss. Killing a
// worker mid-sweep under survivor traffic is the fleet package's
// TestFleetWorkerKillMidSweepConverges.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wcdsnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		spawnN   = flag.Int("spawn", 3, "spawn N in-process loopback workers")
		workers  = flag.String("workers", "", "comma-separated external worker base URLs (overrides -spawn)")
		width    = flag.Int("width", 8, "scenarios per shard, rounded up to whole network cells")
		parallel = flag.Int("parallel", 0, "in-worker shard parallelism (0 = worker GOMAXPROCS)")
		measure  = flag.Int("measure", 0, "per-scenario dilation measurement workers")
		sizes    = flag.String("sizes", "100,200", "sweep sizes")
		degrees  = flag.String("degrees", "6,10", "sweep average degrees")
		seeds    = flag.String("seeds", "1,2,3", "sweep seeds")
		specFile = flag.String("spec", "", "JSON batch-spec file (overrides the axis flags)")
		check    = flag.Bool("check", false, "also run the sweep locally and fail on digest drift")
		out      = flag.String("out", "", "write the fleet report as JSON to this file")
	)
	flag.Parse()
	ctx := context.Background()

	spec, err := buildSpec(*specFile, *sizes, *degrees, *seeds)
	if err != nil {
		return err
	}

	addrs, cleanup, err := fleetAddrs(*workers, *spawnN)
	if err != nil {
		return err
	}
	defer cleanup()

	rep, err := wcdsnet.RunBatchFleet(ctx, spec, wcdsnet.FleetOptions{
		Workers:        addrs,
		ShardWidth:     *width,
		WorkerParallel: *parallel,
		MeasureWorkers: *measure,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d scenarios over %d workers, shard width %d\n",
		spec.NumScenarios(), len(addrs), rep.ShardWidth)
	printReport(rep)

	if *check {
		local, err := wcdsnet.RunBatch(ctx, spec, wcdsnet.BatchOptions{})
		if err != nil {
			return err
		}
		if rep.Digest != local.Digest() {
			return fmt.Errorf("digest drift: fleet %s != local %s", rep.Digest, local.Digest())
		}
		fmt.Printf("digest check: fleet == local run (%s)\n", rep.Digest[:16])
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *out)
	}
	return nil
}

// fleetAddrs resolves the worker set: external addresses verbatim, or an
// in-process spawn. The cleanup closes spawned workers gracefully.
func fleetAddrs(external string, spawnN int) ([]string, func(), error) {
	if external != "" {
		var addrs []string
		for _, a := range strings.Split(external, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, strings.TrimSuffix(a, "/"))
			}
		}
		if len(addrs) == 0 {
			return nil, nil, fmt.Errorf("no worker addresses in %q", external)
		}
		return addrs, func() {}, nil
	}
	if spawnN <= 0 {
		return nil, nil, fmt.Errorf("need -spawn >= 1 or -workers")
	}
	spawned, err := wcdsnet.SpawnFleetWorkers(spawnN, wcdsnet.ServiceOptions{})
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() {
		for _, w := range spawned {
			w.Close()
		}
	}
	return wcdsnet.FleetWorkerAddrs(spawned), cleanup, nil
}

// buildSpec assembles the sweep from a JSON file or the axis flags. The
// flag-built sweep uses a fixed deterministic workload trio so repeated
// invocations hit the workers' result caches.
func buildSpec(specFile, sizes, degrees, seeds string) (*wcdsnet.BatchSpec, error) {
	if specFile != "" {
		raw, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		spec := &wcdsnet.BatchSpec{}
		if err := json.Unmarshal(raw, spec); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", specFile, err)
		}
		return spec, nil
	}
	sz, err := parseInts(sizes)
	if err != nil {
		return nil, fmt.Errorf("-sizes: %w", err)
	}
	deg, err := parseFloats(degrees)
	if err != nil {
		return nil, fmt.Errorf("-degrees: %w", err)
	}
	sd, err := parseInts(seeds)
	if err != nil {
		return nil, fmt.Errorf("-seeds: %w", err)
	}
	seeds64 := make([]int64, len(sd))
	for i, s := range sd {
		seeds64[i] = int64(s)
	}
	return &wcdsnet.BatchSpec{
		Sizes:   sz,
		Degrees: deg,
		Seeds:   seeds64,
		Workloads: []wcdsnet.BatchWorkload{
			{Kind: "backbone", Algorithm: "II", Mode: "sync"},
			{Kind: "dilation", Algorithm: "II", Pairs: 40, SampleSeed: 7},
			{Kind: "broadcast", Source: 0},
		},
	}, nil
}

// printReport renders the merged summary and the per-worker utilization /
// tail-latency table.
func printReport(rep *wcdsnet.FleetReport) {
	fmt.Printf("merged: %d scenarios in %d shards, %.2fs wall, digest %s\n",
		rep.Scenarios, rep.Shards, float64(rep.WallNS)/1e9, rep.Digest[:16])
	if rep.Failed > 0 {
		fmt.Printf("  %d scenario(s) failed inside the sweep\n", rep.Failed)
	}
	if rep.Redispatched > 0 || rep.Duplicates > 0 {
		fmt.Printf("  re-dispatched %d shard(s), dropped %d duplicate row(s)\n",
			rep.Redispatched, rep.Duplicates)
	}
	if rep.CacheHits > 0 {
		fmt.Printf("  %d of %d shards served from worker caches\n", rep.CacheHits, rep.Shards)
	}
	fmt.Printf("%-28s %7s %6s %6s %6s %9s %9s %s\n",
		"worker", "shards", "rows", "hits", "util", "p50(ms)", "p99(ms)", "state")
	for _, ws := range rep.Fleet {
		state := "ok"
		if ws.Failed {
			state = "FAILED"
		}
		fmt.Printf("%-28s %7d %6d %6d %5.0f%% %9.1f %9.1f %s\n",
			ws.Addr, ws.Shards, ws.Rows, ws.CacheHits, 100*ws.Utilization, ws.P50MS, ws.P99MS, state)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
