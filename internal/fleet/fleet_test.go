package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/service"
)

// fleetSpec is the sweep the fleet contract tests run: 8 network cells ×
// 2 workloads = 16 scenarios, with a distributed workload in the mix so
// rows carry the full phase breakdown across the wire.
func fleetSpec() *batch.Spec {
	return &batch.Spec{
		Sizes:   []int{30, 40},
		Degrees: []float64{6},
		Seeds:   []int64{1, 2, 3, 4},
		Workloads: []batch.Workload{
			{Kind: batch.Backbone, Algorithm: "II", Mode: "sync"},
			{Kind: batch.Broadcast, Source: 1},
		},
	}
}

func spawn(t *testing.T, n int, opts service.Options) []*LocalWorker {
	t.Helper()
	workers, err := SpawnLocal(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	return workers
}

// TestFleetDigestMatchesLocal is the tentpole contract: the merged report
// of a 1-worker and a 3-worker fleet is byte-identical (digest) to a local
// one-worker run, for more than one shard width.
func TestFleetDigestMatchesLocal(t *testing.T) {
	ctx := context.Background()
	local, err := batch.Run(ctx, fleetSpec(), batch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := spawn(t, 3, service.Options{Workers: 2})
	addrs := Addrs(workers)

	for _, tc := range []struct {
		name  string
		addrs []string
		width int
	}{
		{"one-worker-width4", addrs[:1], 4},
		{"three-workers-width4", addrs, 4},
		{"three-workers-width1", addrs, 1},
		{"three-workers-width16", addrs, 16},
	} {
		rep, err := Run(ctx, fleetSpec(), Options{Workers: tc.addrs, ShardWidth: tc.width})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Digest != local.Digest() {
			t.Errorf("%s: fleet digest %s != local %s", tc.name, rep.Digest, local.Digest())
		}
		if rep.Digest != rep.Report.Digest() {
			t.Errorf("%s: precomputed digest out of sync", tc.name)
		}
		plan, err := Plan(fleetSpec(), Options{Workers: tc.addrs, ShardWidth: tc.width})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ShardWidth != plan.Width || rep.Shards != len(plan.Shards) {
			t.Errorf("%s: report says %d shards of width %d, plan %d of width %d",
				tc.name, rep.Shards, rep.ShardWidth, len(plan.Shards), plan.Width)
		}
		if rep.Scenarios != 16 || len(rep.Results) != 16 || rep.Failed != 0 {
			t.Errorf("%s: scenarios=%d rows=%d failed=%d", tc.name, rep.Scenarios, len(rep.Results), rep.Failed)
		}
		for i, res := range rep.Results {
			if res.Index != i {
				t.Fatalf("%s: row %d carries index %d", tc.name, i, res.Index)
			}
		}
		if rep.Duplicates != 0 || rep.Redispatched != 0 {
			t.Errorf("%s: clean run reports duplicates=%d redispatched=%d", tc.name, rep.Duplicates, rep.Redispatched)
		}
		rows := 0
		for _, ws := range rep.Fleet {
			rows += ws.Rows
			if ws.Failed {
				t.Errorf("%s: worker %s marked failed on a clean run", tc.name, ws.Addr)
			}
		}
		if rows != 16 {
			t.Errorf("%s: per-worker rows sum to %d", tc.name, rows)
		}
	}
}

// TestFleetCacheAffinity: a repeated sweep lands every shard on the worker
// that cached it — the consistent-hash placement's payoff.
func TestFleetCacheAffinity(t *testing.T) {
	ctx := context.Background()
	workers := spawn(t, 3, service.Options{Workers: 2})
	opts := Options{Workers: Addrs(workers), ShardWidth: 2}

	first, err := Run(ctx, fleetSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 {
		t.Fatalf("cold sweep reports %d cache hits", first.CacheHits)
	}
	second, err := Run(ctx, fleetSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Digest != first.Digest {
		t.Fatalf("digest drifted across cached rerun")
	}
	if second.CacheHits != second.Shards {
		t.Fatalf("warm sweep hit %d of %d shards", second.CacheHits, second.Shards)
	}
}

// TestFleetWorkerKillMidSweepConverges is the loss-recovery acceptance
// test: a worker killed mid-sweep (listener closed, in-flight streams
// cancelled) must cost nothing but re-dispatch — the merged digest stays
// byte-identical to the local run and no row is double-counted.
func TestFleetWorkerKillMidSweepConverges(t *testing.T) {
	ctx := context.Background()
	local, err := batch.Run(ctx, fleetSpec(), batch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := spawn(t, 3, service.Options{Workers: 2})
	addrs := Addrs(workers)

	// The victim is the worker owning the most shards: when the kill fires
	// on the very first merged row, it cannot have completed more than one
	// of them, so orphans are guaranteed.
	plan, err := Plan(fleetSpec(), Options{Workers: addrs, ShardWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.Owned()
	victim := 0
	for i, a := range addrs {
		if counts[a] > counts[addrs[victim]] {
			victim = i
		}
	}
	if counts[addrs[victim]] < 2 {
		t.Fatalf("victim owns only %d shards; placement too skewed for the test", counts[addrs[victim]])
	}

	var once sync.Once
	killed := make(chan struct{})
	rep, err := Run(ctx, fleetSpec(), Options{
		Workers:    addrs,
		ShardWidth: 1,
		OnRow: func(batch.Result) {
			once.Do(func() {
				go func() {
					workers[victim].Kill()
					close(killed)
				}()
			})
		},
	})
	if err != nil {
		t.Fatalf("fleet run did not survive the kill: %v", err)
	}
	<-killed

	if rep.Digest != local.Digest() {
		t.Errorf("post-kill digest %s != local %s", rep.Digest, local.Digest())
	}
	if len(rep.Results) != 16 || rep.Failed != 0 {
		t.Errorf("post-kill rows=%d failed=%d", len(rep.Results), rep.Failed)
	}
	if rep.Redispatched == 0 {
		t.Error("kill produced no re-dispatches")
	}
	var failedWorkers int
	for _, ws := range rep.Fleet {
		if ws.Failed {
			failedWorkers++
			if ws.Addr != addrs[victim] {
				t.Errorf("wrong worker marked failed: %s", ws.Addr)
			}
		}
	}
	if failedWorkers != 1 {
		t.Errorf("%d workers marked failed, want 1", failedWorkers)
	}
}

// TestFleetPermanentErrorAborts: a 4xx from a worker (spec outside its
// bounds) must abort the run, not cascade through re-dispatch.
func TestFleetPermanentErrorAborts(t *testing.T) {
	workers := spawn(t, 2, service.Options{MaxNodes: 20})
	_, err := Run(context.Background(), fleetSpec(), Options{Workers: Addrs(workers), ShardWidth: 4})
	if err == nil {
		t.Fatal("run succeeded against workers that reject the spec")
	}
	var perm *permanentError
	if !errors.As(err, &perm) {
		t.Fatalf("error %v is not permanent", err)
	}
}

// TestFleetNoWorkers and context expiry round out the error surface.
func TestFleetErrorSurface(t *testing.T) {
	if _, err := Run(context.Background(), fleetSpec(), Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	workers := spawn(t, 1, service.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	if _, err := Run(ctx, fleetSpec(), Options{Workers: Addrs(workers)}); err == nil {
		t.Error("expired context accepted")
	}
}

// TestWorkerStatsNearestRank: per-worker percentiles are nearest rank, so
// the P99 of a handful of shards is the slowest one, never a faster one.
func TestWorkerStatsNearestRank(t *testing.T) {
	ws := WorkerStats{BusyNS: int64(21 * time.Millisecond)}
	for ms := 6; ms >= 1; ms-- {
		ws.latencies = append(ws.latencies, time.Duration(ms)*time.Millisecond)
	}
	ws.finalize(42 * time.Millisecond)
	if ws.P99MS != 6 || ws.P50MS != 3 {
		t.Errorf("p50 = %v ms, p99 = %v ms; want 3 and 6", ws.P50MS, ws.P99MS)
	}
	if ws.Utilization != 0.5 {
		t.Errorf("utilization = %v, want 0.5", ws.Utilization)
	}
}
