package main

// The cluster soak harness (-soak): the release gate for cluster mode.
//
// It boots a 3-worker local cluster, drives the pinned 108-scenario sweep
// through the coordinator while sustained mixed /v1/backbone traffic runs
// against the surviving workers, kills one worker on the first merged row,
// and asserts:
//
//   - zero digest drift: the merged fleet digest is byte-identical to a
//     local RunBatch of the same spec, kill included;
//   - convergence after loss: every scenario row arrives exactly once and
//     at least one shard was re-dispatched onto the survivors;
//   - the p99 latency SLO on the concurrent backbone traffic holds and no
//     survivor ever answered an error.
//
// The JSON soak report is written even when the gate fails, so CI can
// upload it as an artifact either way.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"wcdsnet"
	"wcdsnet/internal/fleet"
	"wcdsnet/internal/stats"
)

// soakSchema versions the soak report format.
const soakSchema = "wcdsnet-fleet-soak/v1"

// minTrafficWindow is the shortest span the background backbone load runs,
// even when the sweep itself converges faster — the p99 sample has to mean
// something.
const minTrafficWindow = 5 * time.Second

// soakSpec is the pinned sweep: 2 sizes × 2 degrees × 3 seeds × 9
// deterministic workloads = 108 scenarios. Only schedule-independent
// workloads (centralized, sync, seeded-fault event runs) qualify — the
// digest comparison against the local run must be exact.
func soakSpec() *wcdsnet.BatchSpec {
	return &wcdsnet.BatchSpec{
		Sizes:   []int{50, 70},
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
		},
	}
}

// soakReport is the artifact CI uploads.
type soakReport struct {
	Schema       string              `json:"schema"`
	Scenarios    int                 `json:"scenarios"`
	Workers      int                 `json:"workers"`
	ShardWidth   int                 `json:"shardWidth"`
	Killed       string              `json:"killed"`
	Digest       string              `json:"digest"`
	LocalDigest  string              `json:"localDigest"`
	DigestMatch  bool                `json:"digestMatch"`
	Redispatched int                 `json:"redispatched"`
	Duplicates   int                 `json:"duplicates"`
	WallNS       int64               `json:"wallNS"`
	Traffic      trafficReport       `json:"traffic"`
	Fleet        []fleet.WorkerStats `json:"fleet"`
	Pass         bool                `json:"pass"`
	Failures     []string            `json:"failures,omitempty"`
}

type trafficReport struct {
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Throttled int     `json:"throttled"`
	P50MS     float64 `json:"p50MS"`
	P99MS     float64 `json:"p99MS"`
	SLOMS     float64 `json:"sloMS"`
	WithinSLO bool    `json:"withinSLO"`
	LastError string  `json:"lastError,omitempty"`
}

// runSoak executes the harness and fails the process on any gate violation.
func runSoak(ctx context.Context, workers, width int, sloMS float64, out string) error {
	if workers < 3 {
		workers = 3
	}
	spec := soakSpec()

	// The reference digest comes from a fully local run of the same spec;
	// the digest is the same at every worker count.
	local, err := wcdsnet.RunBatch(ctx, soakSpec(), wcdsnet.BatchOptions{})
	if err != nil {
		return fmt.Errorf("local reference run: %w", err)
	}

	spawned, err := wcdsnet.SpawnFleetWorkers(workers, wcdsnet.ServiceOptions{
		Workers:   2,
		QueueSize: 16,
	})
	if err != nil {
		return err
	}
	defer func() {
		for _, w := range spawned {
			w.Close()
		}
	}()
	addrs := wcdsnet.FleetWorkerAddrs(spawned)
	opts := wcdsnet.FleetOptions{Workers: addrs, ShardWidth: width}

	// The victim is the worker owning the most shards, so killing it on the
	// very first merged row is guaranteed to orphan work. The placement is
	// the coordinator's own (fleet.Plan on the options the run gets).
	plan, err := fleet.Plan(spec, opts)
	if err != nil {
		return err
	}
	victim, owned, err := pickVictim(plan, addrs)
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d scenarios over %d workers, shard width %d, traffic SLO p99 <= %.0fms\n",
		spec.NumScenarios(), workers, plan.Width, sloMS)
	fmt.Printf("soak: victim %s owns %d of %d shards; kill fires on the first merged row\n",
		addrs[victim], owned, len(plan.Shards))

	// Sustained mixed /v1/backbone traffic against the survivors for the
	// whole sweep, sampling per-request latency.
	traffic := newTrafficLoad(survivorAddrs(addrs, victim))
	traffic.start()

	var once sync.Once
	killed := make(chan struct{})
	start := time.Now()
	opts.OnRow = func(wcdsnet.BatchResult) {
		once.Do(func() {
			go func() {
				spawned[victim].Kill()
				close(killed)
			}()
		})
	}
	rep, runErr := wcdsnet.RunBatchFleet(ctx, spec, opts)
	wall := time.Since(start)
	if runErr == nil {
		<-killed
	}
	// A fast sweep can finish before the load says anything about tail
	// latency; keep the traffic window open long enough for a real sample.
	if remain := minTrafficWindow - time.Since(start); remain > 0 && runErr == nil {
		time.Sleep(remain)
	}
	traffic.stop()
	if runErr != nil {
		return fmt.Errorf("fleet run did not converge after the kill: %w", runErr)
	}

	report := &soakReport{
		Schema:       soakSchema,
		Scenarios:    rep.Scenarios,
		Workers:      workers,
		ShardWidth:   rep.ShardWidth,
		Killed:       addrs[victim],
		Digest:       rep.Digest,
		LocalDigest:  local.Digest(),
		DigestMatch:  rep.Digest == local.Digest(),
		Redispatched: rep.Redispatched,
		Duplicates:   rep.Duplicates,
		WallNS:       wall.Nanoseconds(),
		Traffic:      traffic.report(sloMS),
		Fleet:        rep.Fleet,
	}

	// The gate.
	if !report.DigestMatch {
		report.Failures = append(report.Failures,
			fmt.Sprintf("digest drift: fleet %s != local %s", rep.Digest, local.Digest()))
	}
	if got := len(rep.Results); got != spec.NumScenarios() {
		report.Failures = append(report.Failures,
			fmt.Sprintf("row accounting: %d of %d rows merged", got, spec.NumScenarios()))
	}
	if rep.Redispatched == 0 {
		report.Failures = append(report.Failures, "worker kill produced no re-dispatch")
	}
	for _, ws := range rep.Fleet {
		if ws.Failed && ws.Addr != addrs[victim] {
			report.Failures = append(report.Failures,
				fmt.Sprintf("survivor %s marked failed", ws.Addr))
		}
	}
	if report.Traffic.Errors > 0 {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%d traffic errors on surviving workers (last: %s)",
				report.Traffic.Errors, report.Traffic.LastError))
	}
	if !report.Traffic.WithinSLO {
		report.Failures = append(report.Failures,
			fmt.Sprintf("traffic p99 %.1fms exceeds SLO %.0fms", report.Traffic.P99MS, sloMS))
	}
	report.Pass = len(report.Failures) == 0

	printReport(rep)
	fmt.Printf("traffic: %d requests, %d errors, %d throttled, p50 %.1fms p99 %.1fms (SLO %.0fms)\n",
		report.Traffic.Requests, report.Traffic.Errors, report.Traffic.Throttled,
		report.Traffic.P50MS, report.Traffic.P99MS, sloMS)

	if out != "" {
		if err := writeJSON(out, report); err != nil {
			return err
		}
		fmt.Printf("soak report written to %s\n", out)
	}
	if !report.Pass {
		return fmt.Errorf("soak gate failed:\n  %s", joinLines(report.Failures))
	}
	fmt.Printf("soak: PASS — digest stable across worker loss, %d shard(s) re-dispatched\n",
		rep.Redispatched)
	return nil
}

// pickVictim returns the index of the worker the plan gives the most
// shards, and that count.
func pickVictim(plan *fleet.ShardPlan, addrs []string) (int, int, error) {
	counts := plan.Owned()
	victim := 0
	for i, a := range addrs {
		if counts[a] > counts[addrs[victim]] {
			victim = i
		}
	}
	if counts[addrs[victim]] < 2 {
		return 0, 0, fmt.Errorf("victim owns only %d shard(s); narrow -width so the kill can orphan work", counts[addrs[victim]])
	}
	return victim, counts[addrs[victim]], nil
}

func survivorAddrs(addrs []string, victim int) []string {
	out := make([]string, 0, len(addrs)-1)
	for i, a := range addrs {
		if i != victim {
			out = append(out, a)
		}
	}
	return out
}

// trafficLoad drives one request loop per surviving worker: a rotating mix
// of /v1/backbone requests (centralized II, centralized I, distributed
// sync II) over a small seed pool, so the load mixes cache hits and fresh
// computes the way a live deployment would.
type trafficLoad struct {
	addrs  []string
	client *http.Client
	stopCh chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	latencies []time.Duration
	errors    int
	throttled int
	lastErr   string
}

func newTrafficLoad(addrs []string) *trafficLoad {
	return &trafficLoad{
		addrs:  addrs,
		client: &http.Client{Timeout: 30 * time.Second},
		stopCh: make(chan struct{}),
	}
}

func (t *trafficLoad) start() {
	for _, addr := range t.addrs {
		t.wg.Add(1)
		go func(addr string) {
			defer t.wg.Done()
			t.loop(addr)
		}(addr)
	}
}

func (t *trafficLoad) loop(addr string) {
	mix := []map[string]any{
		{"n": 60, "avgDegree": 8, "algorithm": "II"},
		{"n": 60, "avgDegree": 8, "algorithm": "I"},
		{"n": 60, "avgDegree": 8, "algorithm": "II", "mode": "sync"},
	}
	for i := 0; ; i++ {
		select {
		case <-t.stopCh:
			return
		default:
		}
		body := mix[i%len(mix)]
		body["seed"] = 1 + i%4
		raw, _ := json.Marshal(body)
		begin := time.Now()
		resp, err := t.client.Post(addr+"/v1/backbone", "application/json", bytes.NewReader(raw))
		dur := time.Since(begin)

		t.mu.Lock()
		switch {
		case err != nil:
			t.errors++
			t.lastErr = err.Error()
		case resp.StatusCode == http.StatusTooManyRequests:
			t.throttled++
		case resp.StatusCode != http.StatusOK:
			t.errors++
			t.lastErr = fmt.Sprintf("%s answered %d", addr, resp.StatusCode)
		default:
			t.latencies = append(t.latencies, dur)
		}
		t.mu.Unlock()
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		select {
		case <-t.stopCh:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (t *trafficLoad) stop() {
	close(t.stopCh)
	t.wg.Wait()
}

func (t *trafficLoad) report(sloMS float64) trafficReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := trafficReport{
		Requests:  len(t.latencies) + t.errors + t.throttled,
		Errors:    t.errors,
		Throttled: t.throttled,
		SLOMS:     sloMS,
		LastError: t.lastErr,
	}
	if len(t.latencies) == 0 {
		rep.WithinSLO = false
		return rep
	}
	ms := make([]float64, len(t.latencies))
	for i, d := range t.latencies {
		ms[i] = float64(d) / 1e6
	}
	rep.P50MS, rep.P99MS = stats.NearestRank(ms, 0.50), stats.NearestRank(ms, 0.99)
	rep.WithinSLO = rep.P99MS <= sloMS
	return rep
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
