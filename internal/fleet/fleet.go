// Package fleet is the cluster-mode coordinator: it fans one batch.Spec
// out across N cmd/serve workers over the versioned wire schema
// (POST /v1/shard, schema v7) and merges the index-addressed rows back
// into a report whose Digest is byte-identical to a local batch.Run — at
// any fleet size and any shard width.
//
// The sweep is sliced into contiguous, cell-aligned [lo, hi) index ranges
// and each shard's content address (api.ShardRequest.CacheKey) is placed on
// a consistent-hash ring over the worker addresses with bounded loads (see
// Plan), so the work splits evenly and repeated sweeps land each shard on
// the worker whose result cache already holds it. Rows
// stream back over the NDJSON plumbing and merge first-write-wins into a
// results array addressed by global scenario index — at-most-once
// accounting, so a shard replayed after a worker loss never double-counts
// the rows its first execution already delivered.
//
// Worker loss is handled by health-checking and re-dispatch: when a shard
// request fails, the coordinator probes the worker's /healthz; a healthy
// worker gets the shard once more (transient failure), a dead one is
// removed from the ring and its orphaned shards — queued and in-flight —
// are re-dispatched onto the survivors. The run fails only when every
// worker is gone or a worker rejects the spec outright (4xx).
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/stats"
)

// Options configures a fleet run. Workers is the only required field.
type Options struct {
	// Workers lists the worker base URLs (e.g. "http://127.0.0.1:8080").
	Workers []string
	// ShardWidth is the number of scenarios per shard (default 8), rounded
	// up to whole network cells (see Plan); Report.ShardWidth is the width
	// used. The merged report is byte-identical for every value; width
	// trades scheduling granularity (small shards rebalance better after a
	// worker loss) against per-request overhead and cache-hit coarseness.
	ShardWidth int
	// WorkerParallel is the in-worker shard parallelism forwarded as the
	// shard request's workers field (0 = the worker's GOMAXPROCS).
	WorkerParallel int
	// MeasureWorkers is forwarded per shard (0 = engine default of 1).
	MeasureWorkers int
	// OnRow, when non-nil, streams each merged row as it arrives
	// (completion order, serialized; duplicates from re-dispatched shards
	// are filtered before the callback).
	OnRow func(batch.Result)
}

func (o Options) withDefaults() Options {
	if o.ShardWidth <= 0 {
		o.ShardWidth = 8
	}
	return o
}

// shardTimeout bounds one shard request end to end, healthTimeout one
// /healthz probe. Requests go through http.DefaultClient; these per-request
// contexts carry the timeouts.
const (
	shardTimeout  = 5 * time.Minute
	healthTimeout = 2 * time.Second
)

// WorkerStats is one worker's share of a fleet run.
type WorkerStats struct {
	Addr string `json:"addr"`
	// Shards and Rows count completed shard requests and merged rows
	// (duplicate rows from re-dispatched shards excluded).
	Shards int `json:"shards"`
	Rows   int `json:"rows"`
	// CacheHits counts shards the worker served from its result cache.
	CacheHits int `json:"cacheHits,omitempty"`
	// Failed marks a worker removed from the ring mid-run.
	Failed bool `json:"failed,omitempty"`
	// BusyNS is the summed wall time of the worker's shard requests;
	// Utilization is BusyNS over the fleet's wall time (1.0 = the worker
	// never idled).
	BusyNS      int64   `json:"busyNS"`
	Utilization float64 `json:"utilization"`
	// P50MS and P99MS are nearest-rank per-shard latency percentiles (tail
	// latency; with two shards the P99 is the slower one).
	P50MS float64 `json:"p50MS,omitempty"`
	P99MS float64 `json:"p99MS,omitempty"`

	latencies []time.Duration
}

// Report is the merged outcome of a fleet run. The embedded batch.Report
// is assembled from the workers' rows in index order, so Canonical and
// Digest are byte-identical to a local run of the same spec.
type Report struct {
	batch.Report
	// Digest is the merged report's SHA-256 digest (== Report.Digest(),
	// precomputed for JSON consumers).
	Digest string `json:"digest"`
	// Shards and ShardWidth describe the slicing (ShardWidth is the
	// effective, cell-aligned width); Redispatched counts
	// shard executions re-placed after a worker loss, Duplicates the rows
	// dropped by at-most-once accounting when a re-dispatched shard
	// replayed work its first execution already delivered.
	Shards       int `json:"shards"`
	ShardWidth   int `json:"shardWidth"`
	Redispatched int `json:"redispatched,omitempty"`
	Duplicates   int `json:"duplicates,omitempty"`
	// CacheHits counts shards served from worker result caches.
	CacheHits int           `json:"cacheHits,omitempty"`
	Fleet     []WorkerStats `json:"fleet"`
}

// permanentError marks a worker response that re-dispatching cannot fix
// (the worker rejected the spec): the whole run aborts.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// shardState is one [lo, hi) slice of the sweep and its dispatch history.
type shardState struct {
	lo, hi   int
	key      string // content address (api.ShardRequest.CacheKey)
	attempts int    // executions started, across workers
	workers  int    // distinct workers tried (re-dispatch counter)
}

type coordinator struct {
	spec *batch.Spec
	opts Options

	mu          sync.Mutex
	queues      map[string][]*shardState
	live        map[string]bool
	ring        *Ring
	outstanding int
	fatal       error
	wake        *sync.Cond

	merged       []batch.Result
	done         []bool
	duplicates   int
	redispatched int

	stats map[string]*WorkerStats
}

// Run fans spec out across opts.Workers and returns the merged report.
// The spec is validated (and its workloads normalized) in place first, so
// the coordinator's shard cache keys match the ones the workers compute.
func Run(ctx context.Context, spec *batch.Spec, opts Options) (*Report, error) {
	plan, err := Plan(spec, opts)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := spec.NumScenarios()

	c := &coordinator{
		spec:   spec,
		opts:   opts,
		queues: map[string][]*shardState{},
		live:   map[string]bool{},
		ring:   NewRing(opts.Workers),
		merged: make([]batch.Result, n),
		done:   make([]bool, n),
		stats:  map[string]*WorkerStats{},
	}
	c.wake = sync.NewCond(&c.mu)

	for _, addr := range opts.Workers {
		c.live[addr] = true
		c.stats[addr] = &WorkerStats{Addr: addr}
	}
	for _, ps := range plan.Shards {
		c.queues[ps.Worker] = append(c.queues[ps.Worker], &shardState{lo: ps.Lo, hi: ps.Hi, key: ps.Key})
	}
	c.outstanding = len(plan.Shards)

	// Wake every worker loop when the caller's context dies.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	start := time.Now()
	var wg sync.WaitGroup
	for _, addr := range opts.Workers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c.workerLoop(ctx, addr)
		}(addr)
	}
	wg.Wait()
	wall := time.Since(start)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return nil, c.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.outstanding != 0 {
		return nil, fmt.Errorf("fleet: %d shards unfinished with no live workers", c.outstanding)
	}
	for i, ok := range c.done {
		if !ok {
			return nil, fmt.Errorf("fleet: scenario %d missing after merge", i)
		}
	}

	rep := &Report{
		Report: batch.Report{
			Scenarios: n,
			Networks:  spec.NumNetworks(),
			Workers:   len(opts.Workers),
			WallNS:    wall.Nanoseconds(),
			Results:   c.merged,
		},
		Shards:       len(plan.Shards),
		ShardWidth:   plan.Width,
		Redispatched: c.redispatched,
		Duplicates:   c.duplicates,
	}
	rep.Finalize()
	rep.Digest = rep.Report.Digest()
	for _, addr := range opts.Workers {
		ws := c.stats[addr]
		ws.finalize(wall)
		rep.CacheHits += ws.CacheHits
		rep.Fleet = append(rep.Fleet, *ws)
	}
	return rep, nil
}

// finalize derives the utilization and latency percentiles.
func (ws *WorkerStats) finalize(wall time.Duration) {
	if wall > 0 {
		ws.Utilization = float64(ws.BusyNS) / float64(wall.Nanoseconds())
	}
	if len(ws.latencies) == 0 {
		return
	}
	ms := make([]float64, len(ws.latencies))
	for i, d := range ws.latencies {
		ms[i] = float64(d) / 1e6
	}
	ws.P50MS, ws.P99MS = stats.NearestRank(ms, 0.50), stats.NearestRank(ms, 0.99)
}

// workerLoop drains addr's shard queue until the run completes, the worker
// dies, or the run aborts. A live worker with an empty queue blocks: a
// peer's death may still re-dispatch shards onto it.
func (c *coordinator) workerLoop(ctx context.Context, addr string) {
	for {
		c.mu.Lock()
		for len(c.queues[addr]) == 0 && c.live[addr] && c.outstanding > 0 && c.fatal == nil && ctx.Err() == nil {
			c.wake.Wait()
		}
		if !c.live[addr] || c.outstanding == 0 || c.fatal != nil || ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		sh := c.queues[addr][0]
		c.queues[addr] = c.queues[addr][1:]
		sh.attempts++
		c.mu.Unlock()

		begin := time.Now()
		cached, err := c.runShard(ctx, addr, sh)
		dur := time.Since(begin)

		c.mu.Lock()
		if err == nil {
			ws := c.stats[addr]
			ws.Shards++
			ws.BusyNS += dur.Nanoseconds()
			ws.latencies = append(ws.latencies, dur)
			if cached {
				ws.CacheHits++
			}
			c.outstanding--
			if c.outstanding == 0 {
				c.wake.Broadcast()
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()

		var perm *permanentError
		if errors.As(err, &perm) {
			c.abort(err)
			return
		}
		if ctx.Err() != nil {
			return
		}
		// Transient failure: a healthy worker gets the shard once more; an
		// unhealthy (or twice-failed) one is dead — re-dispatch everything
		// it still owns, this shard included.
		if sh.attempts < 2 && c.healthy(ctx, addr) {
			c.mu.Lock()
			c.queues[addr] = append([]*shardState{sh}, c.queues[addr]...)
			c.mu.Unlock()
			continue
		}
		c.failWorker(addr, sh, err)
		return
	}
}

// abort stops the run with a permanent error.
func (c *coordinator) abort(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.wake.Broadcast()
	c.mu.Unlock()
}

// failWorker removes addr from the ring and re-dispatches its orphaned
// shards (queued plus the in-flight failure) onto the survivors.
func (c *coordinator) failWorker(addr string, inflight *shardState, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live[addr] {
		return
	}
	c.live[addr] = false
	c.stats[addr].Failed = true
	c.ring = c.ring.Remove(addr)
	orphans := append([]*shardState{inflight}, c.queues[addr]...)
	c.queues[addr] = nil
	if c.ring.Len() == 0 {
		c.fatal = fmt.Errorf("fleet: last worker %s failed: %w", addr, cause)
		c.wake.Broadcast()
		return
	}
	for _, sh := range orphans {
		target := c.ring.Lookup(sh.key)
		sh.workers++
		c.redispatched++
		c.queues[target] = append(c.queues[target], sh)
	}
	c.wake.Broadcast()
}

// healthy probes addr's /healthz.
func (c *coordinator) healthy(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// runShard executes one shard on addr over the NDJSON stream, merging rows
// as they arrive. It returns whether the worker served the shard from its
// result cache.
func (c *coordinator) runShard(ctx context.Context, addr string, sh *shardState) (cached bool, err error) {
	reqBody := api.ShardRequest{
		BatchSpec:      *c.spec,
		Lo:             sh.lo,
		Hi:             sh.hi,
		Workers:        c.opts.WorkerParallel,
		MeasureWorkers: c.opts.MeasureWorkers,
	}
	buf, err := json.Marshal(&reqBody)
	if err != nil {
		return false, &permanentError{fmt.Errorf("fleet: encoding shard request: %w", err)}
	}
	ctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/shard?stream=ndjson", bytes.NewReader(buf))
	if err != nil {
		return false, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("fleet: worker %s answered %d for shard [%d, %d): %s",
			addr, resp.StatusCode, sh.lo, sh.hi, bytes.TrimSpace(raw))
		// 4xx means the worker rejected the spec — every worker would; only
		// 429 backpressure is worth re-trying elsewhere.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return false, &permanentError{err}
		}
		return false, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	rows, summary := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Digest *string `json:"digest"`
			Error  *string `json:"error"`
			Cached bool    `json:"cached"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return false, fmt.Errorf("fleet: worker %s: undecodable stream line: %w", addr, err)
		}
		switch {
		case probe.Error != nil:
			return false, fmt.Errorf("fleet: worker %s shard [%d, %d) failed mid-stream: %s", addr, sh.lo, sh.hi, *probe.Error)
		case probe.Digest != nil:
			summary, cached = true, probe.Cached
		default:
			var res batch.Result
			if err := json.Unmarshal(line, &res); err != nil {
				return false, fmt.Errorf("fleet: worker %s: undecodable row: %w", addr, err)
			}
			if res.Index < sh.lo || res.Index >= sh.hi {
				return false, fmt.Errorf("fleet: worker %s returned row %d outside shard [%d, %d)", addr, res.Index, sh.lo, sh.hi)
			}
			c.mergeRow(addr, res)
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		return cached, err
	}
	if !summary {
		return cached, fmt.Errorf("fleet: worker %s shard [%d, %d) stream ended without a summary", addr, sh.lo, sh.hi)
	}
	if rows != sh.hi-sh.lo {
		return cached, fmt.Errorf("fleet: worker %s shard [%d, %d) delivered %d of %d rows", addr, sh.lo, sh.hi, rows, sh.hi-sh.lo)
	}
	return cached, nil
}

// mergeRow is the at-most-once accounting point: first write per scenario
// index wins, replays from re-dispatched shards are counted and dropped.
func (c *coordinator) mergeRow(addr string, res batch.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[res.Index] {
		c.duplicates++
		return
	}
	c.done[res.Index] = true
	c.merged[res.Index] = res
	c.stats[addr].Rows++
	if c.opts.OnRow != nil {
		c.opts.OnRow(res)
	}
}
