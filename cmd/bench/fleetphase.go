package main

// The fleet phases time cluster mode on the pinned suite: the same spec the
// engine phases run, fanned across in-process loopback workers through the
// full wire path — HTTP, JSON encode/decode, NDJSON row streaming, shard
// slicing and index-ordered merge. fleet1 drives a single worker (the wire
// overhead baseline), fleetN a -fleet worker cluster. Workers run with a
// single pool goroutine and WorkerParallel 1, so any scaling measured comes
// from the fleet fanning out, not from in-worker parallelism; worker result
// caches are disabled so every repetition times compute, not replay.
//
// Both merged digests must be byte-identical to engine1's. When the
// runner has at least as many cores as the fleet has workers, the N-worker
// fleet must clear fleetSpeedupFloor over the single worker — on fewer
// cores the workers share cores and the comparison is only noted, since
// concurrency without parallelism cannot speed anything up.

import (
	"context"
	"fmt"
	"runtime"

	"wcdsnet"
)

// fleetShardWidth is the shard size the bench phases ask for. The
// coordinator rounds it up to whole network cells — 11 scenarios on the
// 132-scenario suite — so each of the 12 cells is one shard, each scene's
// shared work is computed once, and a 3-worker fleet gets 4 shards apiece.
const fleetShardWidth = 4

// fleetSpeedupFloor is the minimum fleetN-over-fleet1 speedup on a runner
// with enough cores to back every worker.
const fleetSpeedupFloor = 1.8

// fleetPhases times the 1-worker and N-worker fleet executions of spec.
func fleetPhases(ctx context.Context, spec *wcdsnet.BatchSpec, digest string, reps, fleetWorkers int) (one, many Phase, err error) {
	one, err = fleetPhase(ctx, "fleet1 ", spec, digest, reps, 1)
	if err != nil {
		return
	}
	many, err = fleetPhase(ctx, "fleetN ", spec, digest, reps, fleetWorkers)
	return
}

// fleetPhase runs spec through a freshly spawned workers-sized fleet reps
// times and keeps the fastest repetition, digest-checking every one.
func fleetPhase(ctx context.Context, label string, spec *wcdsnet.BatchSpec, digest string, reps, workers int) (Phase, error) {
	var best *wcdsnet.FleetReport
	for i := 0; i < reps; i++ {
		rep, err := fleetOnce(ctx, spec, workers)
		if err != nil {
			return Phase{}, fmt.Errorf("%s: %w", label, err)
		}
		if rep.Digest != digest {
			return Phase{}, fmt.Errorf("determinism violation: %s digest %s != engine1 %s", label, rep.Digest[:12], digest[:12])
		}
		if best == nil || rep.WallNS < best.WallNS {
			best = rep
		}
	}
	p := phase(&best.Report)
	fmt.Printf("%s: %8.1f scenarios/s  wall %7.1fms  p50 %6.2fms  p95 %6.2fms  %d shards over %d workers\n",
		label, p.OpsPerSec, float64(best.WallNS)/1e6, p.P50MS, p.P95MS, best.Shards, workers)
	return p, nil
}

// fleetOnce spawns a fresh fleet (cold caches), runs the sweep, tears the
// workers down.
func fleetOnce(ctx context.Context, spec *wcdsnet.BatchSpec, workers int) (*wcdsnet.FleetReport, error) {
	spawned, err := wcdsnet.SpawnFleetWorkers(workers, wcdsnet.ServiceOptions{
		Workers:   1,
		CacheSize: -1,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, w := range spawned {
			w.Close()
		}
	}()
	return wcdsnet.RunBatchFleet(ctx, spec, wcdsnet.FleetOptions{
		Workers:        wcdsnet.FleetWorkerAddrs(spawned),
		ShardWidth:     fleetShardWidth,
		WorkerParallel: 1,
	})
}

// checkFleetSpeedup enforces the scaling floor when the runner can actually
// parallelize the fleet, and explains the flat result when it cannot.
func checkFleetSpeedup(one, many Phase, speedup float64) error {
	if many.Workers <= 1 {
		return nil
	}
	if many.Parallel < many.Workers {
		fmt.Printf("fleet  : %d workers share %d core(s) — speedup floor not enforced (scaling needs GOMAXPROCS >= %d)\n",
			many.Workers, runtime.GOMAXPROCS(0), many.Workers)
		return nil
	}
	if speedup < fleetSpeedupFloor {
		return fmt.Errorf("fleet scaling regression: %d workers only %.2fx over 1 (floor %.1fx at effective parallelism %d)",
			many.Workers, speedup, fleetSpeedupFloor, many.Parallel)
	}
	return nil
}
