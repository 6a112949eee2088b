package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/route"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/wcds"
)

// Endpoint names (also the latency-histogram keys).
const (
	endpointBackbone  = "backbone"
	endpointDilation  = "dilation"
	endpointBroadcast = "broadcast"
	endpointBatch     = "batch"
	endpointShard     = "shard"
	endpointSession   = "session"
)

// maxBodyBytes bounds request bodies; an explicit 20k-node topology with
// full float precision fits comfortably.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP handler:
//
//	POST   /v1/backbone            compute a WCDS backbone (Algorithm I or II)
//	POST   /v1/dilation            measure spanner dilation over sampled pairs
//	POST   /v1/broadcast           backbone broadcast vs. blind flood
//	POST   /v1/batch               run a declarative sweep on the batch engine
//	                               (?stream=ndjson streams rows as they finish)
//	POST   /v1/shard               run one [lo, hi) index range of a sweep
//	                               (fleet workers; ?stream=ndjson as above)
//	POST   /v1/session             create a streaming topology session
//	POST   /v1/session/{id}/stream NDJSON: deltas in, repair events out
//	DELETE /v1/session/{id}        close a session
//	GET    /healthz                liveness + pool snapshot
//	GET    /metrics                Prometheus text exposition
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/backbone", s.handleBackbone)
	mux.HandleFunc("POST /v1/dilation", s.handleDilation)
	mux.HandleFunc("POST /v1/broadcast", s.handleBroadcast)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/session/{id}/stream", s.handleSessionStream)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panic anywhere in request
// handling answers 500 and bumps wcds_service_panics_total instead of
// tearing down the connection (pool jobs have their own recovery; this
// catches everything outside them).
func (s *Service) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.errors.Inc()
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// --- backbone --------------------------------------------------------------

func (s *Service) handleBackbone(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req BackboneRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, endpointBackbone, time.Now(), err)
		return
	}
	start := time.Now()
	if err := req.Normalize(); err != nil {
		s.replyError(w, endpointBackbone, start, err)
		return
	}
	if err := req.NetworkSpec.Validate(s.opts.MaxNodes); err != nil {
		s.replyError(w, endpointBackbone, start, err)
		return
	}
	s.serve(w, r, endpointBackbone, start, req.CacheKey(),
		func(ctx context.Context) (any, error) { return s.computeBackbone(ctx, &req) },
		func(v any) any { resp := *(v.(*BackboneResponse)); return &resp })
}

func (s *Service) computeBackbone(ctx context.Context, req *BackboneRequest) (*BackboneResponse, error) {
	nw, err := req.NetworkSpec.Build()
	if err != nil {
		return nil, err
	}
	construction, ok := algo.Lookup(req.Algorithm)
	if !ok {
		// Normalize already vetted the name; this guards direct callers.
		return nil, api.Errorf("unknown algorithm %q (want %s)", req.Algorithm, algo.NamesString())
	}
	var (
		res wcds.Result
		st  simnet.Stats
	)
	runner, rec := runnerFor(ctx, req)
	if runner == nil {
		in := algo.Input{G: nw.G, IDs: nw.ID}
		if construction.Caps.Weighted {
			in.Weights = algo.Weights(req.WeightSeed, nw.N())
		}
		res, err = construction.Run(in)
		if err != nil {
			// The comparator constructions fail only on inputs outside their
			// contract (a disconnected explicit scene): the client's fault.
			return nil, api.Errorf("construction failed: %v", err)
		}
	} else {
		res, st, err = algo.DistributedRun(construction, nw.G, nw.ID, selectionFor(req.Selection), false, runner)
	}
	resp := &BackboneResponse{
		N:              nw.N(),
		Edges:          nw.G.M(),
		AvgDegree:      nw.G.AvgDegree(),
		Algorithm:      req.Algorithm,
		Mode:           req.Mode,
		Engine:         req.Engine,
		Messages:       st.Messages,
		Rounds:         st.Rounds,
		Ticks:          st.Ticks,
		Dropped:        st.Dropped,
		Duplicated:     st.Duplicated,
		Retransmits:    st.Retransmits,
		DupsSuppressed: st.DupsSuppressed,
		Acks:           st.Acks,
		Abandoned:      st.Abandoned,
		Converged:      err == nil,
		Schema:         api.SchemaVersion,
	}
	if rec != nil {
		resp.Phases = rec.Snapshot()
		s.recordPhases(resp.Phases)
	}
	if err != nil {
		// The request deadline propagates into the run itself; its expiry is
		// a transport condition (504 via the pool's error mapping), never
		// response data — checked before the faults-as-data branch below.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// Under injected faults a stalled or budget-exhausted protocol is an
		// expected, DETECTABLE outcome: report it as data, not as a server
		// error. Without faults the same failure is a bug and stays a 500.
		if req.Faults == nil {
			return nil, fmt.Errorf("service: distributed run failed: %w", err)
		}
		resp.FailureReason = err.Error()
		return resp, nil
	}
	resp.Dominators = res.Dominators
	resp.MISDominators = res.MISDominators
	resp.AdditionalDominators = res.AdditionalDominators
	resp.SpannerEdges = spannerEdges(res.Spanner)
	resp.IsWCDS = wcds.IsWCDS(nw.G, res.Dominators)
	resp.Kind = string(construction.Kind)
	resp.Valid = construction.Valid(nw.G, res.Dominators)
	return resp, nil
}

// runnerFor maps a request to a protocol runner; nil means centralized.
// Distributed runners carry the request context (so the per-request
// deadline interrupts the run mid-flight) and a phase recorder (so the
// response reports the per-phase breakdown).
func runnerFor(ctx context.Context, req *BackboneRequest) (wcds.Runner, *obs.Spans) {
	if req.Mode == "centralized" {
		return nil, nil
	}
	eng, _ := simnet.ParseEngine(req.Engine)
	rec := obs.NewSpans()
	return wcds.RunSpec{
		Engine:          eng,
		ScheduleSeed:    req.ScheduleSeed,
		Faults:          req.Faults,
		MaxRounds:       req.MaxRounds,
		Ctx:             ctx,
		Reliable:        req.Reliable,
		ReliableOptions: reliable.Options{MaxRetries: req.MaxRetries},
		Phases:          rec,
	}.Runner(), rec
}

func selectionFor(sel string) wcds.SelectionMode {
	if sel == "eager" {
		return wcds.Eager
	}
	return wcds.Deferred
}

// --- dilation --------------------------------------------------------------

func (s *Service) handleDilation(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req DilationRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, endpointDilation, time.Now(), err)
		return
	}
	start := time.Now()
	if err := req.Normalize(); err != nil {
		s.replyError(w, endpointDilation, start, err)
		return
	}
	if err := req.NetworkSpec.Validate(s.opts.MaxNodes); err != nil {
		s.replyError(w, endpointDilation, start, err)
		return
	}
	s.serve(w, r, endpointDilation, start, req.CacheKey(),
		func(context.Context) (any, error) { return computeDilation(&req) },
		func(v any) any { resp := *(v.(*DilationResponse)); return &resp })
}

func computeDilation(req *DilationRequest) (*DilationResponse, error) {
	nw, err := req.NetworkSpec.Build()
	if err != nil {
		return nil, err
	}
	construction, ok := algo.Lookup(req.Algorithm)
	if !ok {
		return nil, api.Errorf("unknown algorithm %q (want %s)", req.Algorithm, algo.NamesString())
	}
	in := algo.Input{G: nw.G, IDs: nw.ID}
	if construction.Caps.Weighted {
		in.Weights = algo.Weights(0, nw.N())
	}
	res, err := construction.Run(in)
	if err != nil {
		return nil, api.Errorf("construction failed: %v", err)
	}
	var pairs [][2]int
	if req.Pairs <= 0 {
		pairs = spanner.AllPairs(nw.G)
	} else {
		pairs = spanner.SamplePairs(rand.New(rand.NewSource(req.SampleSeed)), nw.N(), req.Pairs)
	}
	report, err := spanner.DilationN(nw.G, res.Spanner, nw.Weight(), pairs, req.MeasureWorkers)
	if err != nil {
		return nil, fmt.Errorf("service: dilation failed: %w", err)
	}
	worstTopo, worstGeo := 0.0, 0.0
	if report.WorstTopo.HopsG > 0 {
		worstTopo = float64(report.WorstTopo.HopsSpanner) / float64(report.WorstTopo.HopsG)
	}
	if report.WorstGeo.LenG > 0 {
		worstGeo = report.WorstGeo.LenSpanner / report.WorstGeo.LenG
	}
	return &DilationResponse{
		N:              nw.N(),
		Edges:          nw.G.M(),
		SpannerEdges:   spannerEdges(res.Spanner),
		Algorithm:      req.Algorithm,
		Pairs:          report.Pairs,
		WorstTopoRatio: worstTopo,
		WorstGeoRatio:  worstGeo,
		AvgTopoRatio:   report.AvgTopoRatio,
		AvgGeoRatio:    report.AvgGeoRatio,
		TopoBoundHolds: report.TopoBoundHolds,
		GeoBoundHolds:  report.GeoBoundHolds,
	}, nil
}

// --- broadcast -------------------------------------------------------------

func (s *Service) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req BroadcastRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, endpointBroadcast, time.Now(), err)
		return
	}
	start := time.Now()
	if err := req.NetworkSpec.Validate(s.opts.MaxNodes); err != nil {
		s.replyError(w, endpointBroadcast, start, err)
		return
	}
	if req.Source < 0 {
		s.replyError(w, endpointBroadcast, start, api.Errorf("source %d must be non-negative", req.Source))
		return
	}
	s.serve(w, r, endpointBroadcast, start, req.CacheKey(),
		func(ctx context.Context) (any, error) { return computeBroadcast(ctx, &req) },
		func(v any) any { resp := *(v.(*BroadcastResponse)); return &resp })
}

func computeBroadcast(ctx context.Context, req *BroadcastRequest) (*BroadcastResponse, error) {
	nw, err := req.NetworkSpec.Build()
	if err != nil {
		return nil, err
	}
	if req.Source >= nw.N() {
		return nil, api.Errorf("source %d out of range for %d nodes", req.Source, nw.N())
	}
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred,
		wcds.EngineRunner(simnet.EngineSync, simnet.WithContext(ctx)))
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("service: backbone construction failed: %w", err)
	}
	relay := route.RelaySet(nw.G, nw.ID, res, tables)
	backbone := route.Broadcast(nw.G, relay, req.Source)
	flood := route.BlindFlood(nw.G, req.Source)
	saving := 0.0
	if flood.Transmissions > 0 {
		saving = 1 - float64(backbone.Transmissions)/float64(flood.Transmissions)
	}
	return &BroadcastResponse{
		N:                     nw.N(),
		Edges:                 nw.G.M(),
		Source:                req.Source,
		RelaySetSize:          backbone.RelaySetSize,
		BackboneTransmissions: backbone.Transmissions,
		BackboneReceptions:    backbone.Receptions,
		BackboneCovered:       backbone.Covered,
		FloodTransmissions:    flood.Transmissions,
		FloodReceptions:       flood.Receptions,
		TransmissionSaving:    saving,
		Cached:                false,
	}, nil
}

// --- batch -----------------------------------------------------------------

// handleBatch runs a declarative sweep on the sharded batch engine. The
// request is bounded by MaxNodes and MaxBatchScenarios before any work is
// admitted, executes under the pool's per-request deadline (cancelling the
// engine cancels cleanly mid-sweep), and full-sweep reports are cached by
// the canonical spec just like single-scenario endpoints.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, endpointBatch, time.Now(), err)
		return
	}
	start := time.Now()
	if err := req.Normalize(s.opts.MaxNodes, s.opts.MaxBatchScenarios); err != nil {
		s.replyError(w, endpointBatch, start, err)
		return
	}
	if r.URL.Query().Get("stream") == "ndjson" || r.Header.Get("Accept") == "application/x-ndjson" {
		s.streamBatch(w, r, &req, start)
		return
	}
	s.serve(w, r, endpointBatch, start, req.CacheKey(),
		func(ctx context.Context) (any, error) { return computeBatch(ctx, &req) },
		func(v any) any { resp := *(v.(*BatchResponse)); return &resp })
}

// streamBatch runs the sweep with per-row NDJSON delivery: each scenario
// result is written and flushed as it completes (the same plumbing the
// session stream uses), followed by one summary line — the BatchResponse
// with the per-row results stripped, since they already streamed. Streamed
// sweeps bypass the result cache: the value of streaming is progress,
// which a cache hit has none of.
//
// Only this goroutine touches the ResponseWriter. Rows cross from the
// pool worker over an unbuffered channel: when the request context dies
// (deadline, client gone, fast drain), Submit returns while the worker
// may still be finishing batch.Run, and a worker that wrote directly
// would race the handler — or write after it returned. Instead the
// worker's sends fall through to ctx.Done and the rows are dropped.
func (s *Service) streamBatch(w http.ResponseWriter, r *http.Request, req *BatchRequest, start time.Time) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	streamed := false
	writeLine := func(v any) {
		if !streamed {
			streamed = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		_ = enc.Encode(v)
		_ = rc.Flush()
	}

	rows := make(chan batch.Result)
	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
			spec := req.BatchSpec
			return batch.Run(ctx, &spec, batch.Options{
				Workers:        req.Workers,
				MeasureWorkers: req.MeasureWorkers,
				OnResult: func(res batch.Result) {
					select {
					case rows <- res:
					case <-ctx.Done():
					}
				},
			})
		})
		done <- outcome{v, err}
	}()

	for {
		select {
		case res := <-rows:
			writeLine(res)
		case oc := <-done:
			// Submit returned: on success every row send already completed
			// (rows is unbuffered and OnResult is synchronous), and on a
			// context error any still-running sends drain via ctx.Done.
			if oc.err != nil {
				if !streamed {
					s.replySubmitError(w, endpointBatch, start, oc.err)
					return
				}
				_ = enc.Encode(api.SessionStreamError{Error: oc.err.Error(), Fatal: true})
				_ = rc.Flush()
				s.observe(endpointBatch, start)
				return
			}
			rep := oc.v.(*batch.Report)
			summary := &BatchResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}
			summary.Results = nil
			writeLine(summary)
			s.observe(endpointBatch, start)
			return
		}
	}
}

func computeBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	spec := req.BatchSpec
	rep, err := batch.Run(ctx, &spec, batch.Options{Workers: req.Workers, MeasureWorkers: req.MeasureWorkers})
	if err != nil {
		// Cancellation/deadline surfaces through the pool's error mapping
		// (504/503); the engine has no other failure mode after Normalize.
		return nil, err
	}
	return &BatchResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}, nil
}

// --- shard -----------------------------------------------------------------

// handleShard executes one [lo, hi) index range of a batch spec — the
// fleet worker's half of cluster mode (schema v7). Rows carry their global
// scenario indices so the coordinator can merge disjoint shards back into
// a report whose digest is byte-identical to a local run. The node and
// scenario bounds apply to the shard width, not the whole sweep, so a
// fleet can run sweeps no single request would admit.
func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req ShardRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, endpointShard, time.Now(), err)
		return
	}
	start := time.Now()
	if err := req.Normalize(s.opts.MaxNodes, s.opts.MaxBatchScenarios); err != nil {
		s.replyError(w, endpointShard, start, err)
		return
	}
	if r.URL.Query().Get("stream") == "ndjson" || r.Header.Get("Accept") == "application/x-ndjson" {
		s.streamShard(w, r, &req, start)
		return
	}
	s.serve(w, r, endpointShard, start, req.CacheKey(),
		func(ctx context.Context) (any, error) { return computeShard(ctx, &req) },
		func(v any) any { return v.(*shardEntry).response() })
}

func computeShard(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	spec := req.BatchSpec
	rep, err := batch.RunRange(ctx, &spec, req.Lo, req.Hi,
		batch.Options{Workers: req.Workers, MeasureWorkers: req.MeasureWorkers})
	if err != nil {
		return nil, err
	}
	return &ShardResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}, nil
}

// shardEntry is the cached form of an executed shard, shared by the
// streamed and the plain /v1/shard paths: the rows as the NDJSON lines the
// stream writes, plus the report's scalars. A streamed hit is then one
// write instead of a re-encode, and an entry holds a few KB of bytes
// instead of decoded rows and the partial aggregate maps.
type shardEntry struct {
	rows    []byte        // one encoded batch.Result per line
	summary ShardResponse // Results and Aggregates nil
}

// newShardEntry keeps a copy of rows (trimmed to size) and rep's scalars.
func newShardEntry(rows []byte, rep *batch.Report) *shardEntry {
	e := &shardEntry{rows: bytes.Clone(rows), summary: ShardResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}}
	e.summary.Results, e.summary.Aggregates = nil, nil
	return e
}

// summaryLine renders the streamed shard's closing NDJSON line.
func (e *shardEntry) summaryLine(cached bool) []byte {
	sum := api.ShardSummary{ShardResponse: e.summary}
	sum.Cached = cached
	line, _ := json.Marshal(&sum) // scalars only; cannot fail
	return append(line, '\n')
}

// response rebuilds the plain /v1/shard body: the rows decoded back into
// index order and the aggregates re-derived by Finalize, so the JSON is the
// one a fresh execution answers with. Cached is left for the caller.
func (e *shardEntry) response() *ShardResponse {
	resp := e.summary
	resp.Results = make([]batch.Result, 0, resp.Scenarios)
	dec := json.NewDecoder(bytes.NewReader(e.rows))
	for dec.More() {
		var res batch.Result
		if err := dec.Decode(&res); err != nil {
			// The bytes were encoded from batch.Result by this process.
			panic(fmt.Sprintf("service: cached shard row does not decode: %v", err))
		}
		resp.Results = append(resp.Results, res)
	}
	sort.Slice(resp.Results, func(i, j int) bool { return resp.Results[i].Index < resp.Results[j].Index })
	resp.Finalize()
	return &resp
}

// cacheForm returns the value the result cache stores for a response:
// shards compactly as a shardEntry, everything else as is.
func cacheForm(v any) any {
	resp, ok := v.(*ShardResponse)
	if !ok {
		return v
	}
	var rows bytes.Buffer
	enc := json.NewEncoder(&rows)
	for i := range resp.Results {
		_ = enc.Encode(&resp.Results[i]) // writes to a bytes.Buffer
	}
	return newShardEntry(rows.Bytes(), &resp.Report)
}

// streamShard is streamBatch's shard twin with one deliberate difference:
// streamed shards DO read and fill the result cache. The coordinator
// places shards on workers by consistent hash precisely so a repeated
// sweep lands each shard on the worker that already holds it; a cache hit
// replays the stored row lines in one write and answers a summary with
// Cached set. Summary lines are ShardSummary: no partial aggregates.
func (s *Service) streamShard(w http.ResponseWriter, r *http.Request, req *ShardRequest, start time.Time) {
	rc := http.NewResponseController(w)
	streamed := false
	write := func(lines ...[]byte) {
		if !streamed {
			streamed = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		for _, l := range lines {
			_, _ = w.Write(l)
		}
		_ = rc.Flush()
	}

	key := req.CacheKey()
	if v, ok := s.cache.Get(key); ok {
		s.cacheHit.Inc()
		e := v.(*shardEntry)
		write(e.rows, e.summaryLine(true))
		s.observe(endpointShard, start)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	rows := make(chan batch.Result)
	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
			spec := req.BatchSpec
			return batch.RunRange(ctx, &spec, req.Lo, req.Hi, batch.Options{
				Workers:        req.Workers,
				MeasureWorkers: req.MeasureWorkers,
				OnResult: func(res batch.Result) {
					select {
					case rows <- res:
					case <-ctx.Done():
					}
				},
			})
		})
		done <- outcome{v, err}
	}()

	// Each row is encoded once: the line goes out on the wire and stays in
	// the buffer the cache entry keeps.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for {
		select {
		case res := <-rows:
			n := buf.Len()
			_ = enc.Encode(&res) // writes to a bytes.Buffer
			write(buf.Bytes()[n:])
		case oc := <-done:
			if oc.err != nil {
				if !streamed {
					s.replySubmitError(w, endpointShard, start, oc.err)
					return
				}
				_ = json.NewEncoder(w).Encode(api.SessionStreamError{Error: oc.err.Error(), Fatal: true})
				_ = rc.Flush()
				s.observe(endpointShard, start)
				return
			}
			e := newShardEntry(buf.Bytes(), oc.v.(*batch.Report))
			s.cache.Put(key, e)
			write(e.summaryLine(false))
			s.observe(endpointShard, start)
			return
		}
	}
}

// --- health and metrics ----------------------------------------------------

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hits, misses, _ := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"workers":       s.opts.Workers,
		"queueDepth":    s.pool.QueueDepth(),
		"inFlight":      s.pool.InFlight(),
		"cacheEntries":  s.cache.Len(),
		"cacheHits":     hits,
		"cacheMisses":   misses,
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// --- shared plumbing -------------------------------------------------------

// serve is the common compute path: cache lookup, pool submission with the
// per-request deadline, backpressure and error mapping, metrics. copyResp
// must return a shallow copy of a cached value so the Cached flag can be
// set per response without mutating the cache.
func (s *Service) serve(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time,
	key string, fn func(context.Context) (any, error), copyResp func(any) any) {
	if v, ok := s.cache.Get(key); ok {
		s.cacheHit.Inc()
		resp := copyResp(v)
		setCached(resp)
		s.observe(endpoint, start)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Fast drain: CancelInFlight cancels s.baseCtx, which cancels every
	// request context mid-compute instead of waiting jobs out.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	v, err := s.pool.Submit(ctx, fn)
	if err != nil {
		s.replySubmitError(w, endpoint, start, err)
		return
	}
	s.cache.Put(key, cacheForm(v))
	s.observe(endpoint, start)
	writeJSON(w, http.StatusOK, v)
}

// setCached flips the Cached field of any response type.
func setCached(resp any) {
	switch t := resp.(type) {
	case *BackboneResponse:
		t.Cached = true
	case *DilationResponse:
		t.Cached = true
	case *BroadcastResponse:
		t.Cached = true
	case *BatchResponse:
		t.Cached = true
	case *ShardResponse:
		t.Cached = true
	}
}

func (s *Service) observe(endpoint string, start time.Time) {
	if h, ok := s.latency[endpoint]; ok {
		h.Observe(time.Since(start).Seconds())
	}
}

// replySubmitError maps pool/compute errors onto HTTP statuses:
// queue full → 429 + Retry-After, deadline → 504, client gone → 499-ish
// (handled as 503), bad input discovered during compute → 400, rest → 500.
func (s *Service) replySubmitError(w http.ResponseWriter, endpoint string, start time.Time, err error) {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		s.panics.Inc()
		s.errors.Inc()
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": pe.Error()})
	case errors.Is(err, ErrQueueFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "job queue full, retry later"})
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		s.errors.Inc()
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "request deadline exceeded"})
	case errors.Is(err, context.Canceled), errors.Is(err, ErrPoolClosed):
		s.errors.Inc()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		s.replyError(w, endpoint, start, err)
		return
	}
	s.observe(endpoint, start)
}

// replyError answers compute and validation failures. The status comes
// from api.HTTPStatus — the single place the error taxonomy maps to the
// wire (400 for ErrInvalidInput, 422 for ErrUnreachable/ErrBudgetExceeded,
// 500 otherwise).
func (s *Service) replyError(w http.ResponseWriter, endpoint string, start time.Time, err error) {
	s.errors.Inc()
	writeJSON(w, api.HTTPStatus(err), map[string]string{"error": err.Error()})
	s.observe(endpoint, start)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return api.Errorf("invalid request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
