package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/udg"
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

// --- single-scenario jobs ---------------------------------------------------

// jobRequest is a /v1/backbone, /v1/dilation or /v1/broadcast request: a
// network spec plus the one batch workload it runs there.
type jobRequest interface {
	Normalize() error
	Validate(maxNodes int) error
	CacheKey() string
	Build() (*udg.Network, error)
	Workload() batch.Workload
}

// serveJob decodes and validates a single-scenario request, then serves it
// through the cache and the pool: the job builds the request's network and
// runs its workload through the batch executor, and project turns the
// outcome into the endpoint's response. *measureWorkers, read once req is
// decoded, is the dilation measurement's parallelism.
func (s *Service) serveJob(w http.ResponseWriter, r *http.Request, endpoint string, req jobRequest,
	measureWorkers *int, project func(*batch.Outcome) (any, error)) {
	start, ok := s.admit(w, r, endpoint, req, func() error {
		if err := req.Normalize(); err != nil {
			return err
		}
		return req.Validate(s.opts.MaxNodes)
	})
	if !ok {
		return
	}
	s.serve(w, r, endpoint, start, req.CacheKey(), func(ctx context.Context) (any, error) {
		nw, err := req.Build()
		if err != nil {
			return nil, err
		}
		job := req.Workload()
		out := batch.Exec(ctx, &job, nw, batch.ExecOptions{MeasureWorkers: *measureWorkers, Phases: true})
		return project(&out)
	})
}

// unexpected wraps an error no valid request should meet: a 500, unless
// it is a deadline the run observed, which the pool maps to 504.
func unexpected(what string, out *batch.Outcome) error {
	if out.Class == batch.Cancelled {
		return out.Err
	}
	return fmt.Errorf("service: %s failed: %w", what, out.Err)
}

func (s *Service) handleBackbone(w http.ResponseWriter, r *http.Request) {
	var req BackboneRequest
	s.serveJob(w, r, endpointBackbone, &req, new(int), func(out *batch.Outcome) (any, error) {
		s.recordPhases(out.Phases)
		return backboneResponse(&req, out)
	})
}

func backboneResponse(req *BackboneRequest, out *batch.Outcome) (*BackboneResponse, error) {
	nw, st := out.Net, out.Stats
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
		Converged:      out.Err == nil,
		Schema:         api.SchemaVersion,
		Phases:         out.Phases,
	}
	switch {
	case out.Class == batch.FaultFailure:
		// Under injected faults a stalled or budget-exhausted protocol is
		// an expected, detectable outcome: data, not a server error.
		resp.FailureReason = out.Err.Error()
		return resp, nil
	case out.Err != nil && req.Mode == "centralized":
		// The comparator constructions fail only on inputs outside their
		// contract (a disconnected explicit scene): the client's fault.
		return nil, api.Errorf("construction failed: %v", out.Err)
	case out.Err != nil:
		return nil, unexpected("distributed run", out)
	}
	resp.Dominators = out.Result.Dominators
	resp.MISDominators = out.Result.MISDominators
	resp.AdditionalDominators = out.Result.AdditionalDominators
	resp.SpannerEdges = out.SpannerEdges()
	resp.Kind = string(out.Construction.Kind)
	resp.Valid = out.Valid()
	// A WCDS construction's own predicate is IsWCDS; only the CDS and DS
	// kinds need the second check.
	resp.IsWCDS = resp.Valid
	if out.Construction.Kind != algo.KindWCDS {
		resp.IsWCDS = wcds.IsWCDS(nw.G, out.Result.Dominators)
	}
	return resp, nil
}

func (s *Service) handleDilation(w http.ResponseWriter, r *http.Request) {
	var req DilationRequest
	s.serveJob(w, r, endpointDilation, &req, &req.MeasureWorkers, func(out *batch.Outcome) (any, error) {
		switch {
		case !out.Built:
			return nil, api.Errorf("construction failed: %v", out.Err)
		case out.Err != nil:
			return nil, unexpected("dilation", out)
		}
		return &DilationResponse{
			N:              out.Net.N(),
			Edges:          out.Net.G.M(),
			SpannerEdges:   out.SpannerEdges(),
			Algorithm:      req.Algorithm,
			Pairs:          out.Dilation.Pairs,
			WorstTopoRatio: out.Dilation.WorstTopo.TopoRatio(),
			WorstGeoRatio:  out.Dilation.WorstGeo.GeoRatio(),
			AvgTopoRatio:   out.Dilation.AvgTopoRatio,
			AvgGeoRatio:    out.Dilation.AvgGeoRatio,
			TopoBoundHolds: out.Dilation.TopoBoundHolds,
			GeoBoundHolds:  out.Dilation.GeoBoundHolds,
		}, nil
	})
}

func (s *Service) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	var req BroadcastRequest
	s.serveJob(w, r, endpointBroadcast, &req, new(int), func(out *batch.Outcome) (any, error) {
		if out.Err != nil {
			return nil, unexpected("backbone construction", out)
		}
		return &BroadcastResponse{
			N:                     out.Net.N(),
			Edges:                 out.Net.G.M(),
			Source:                req.Source,
			RelaySetSize:          out.Backbone.RelaySetSize,
			BackboneTransmissions: out.Backbone.Transmissions,
			BackboneReceptions:    out.Backbone.Receptions,
			BackboneCovered:       out.Backbone.Covered,
			FloodTransmissions:    out.Flood.Transmissions,
			FloodReceptions:       out.Flood.Receptions,
			TransmissionSaving:    out.Saving(),
		}, nil
	})
}

// --- batch and shard -------------------------------------------------------

// streamRequested reports whether the client asked for NDJSON rows.
func streamRequested(r *http.Request) bool {
	return r.URL.Query().Get("stream") == "ndjson" || r.Header.Get("Accept") == "application/x-ndjson"
}

// handleBatch runs a declarative sweep on the sharded batch engine. The
// request is bounded by MaxNodes and MaxBatchScenarios before any work is
// admitted, executes under the pool's per-request deadline (cancelling the
// engine cancels cleanly mid-sweep), and full-sweep reports are cached by
// the canonical spec just like single-scenario endpoints.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	start, ok := s.admit(w, r, endpointBatch, &req, func() error { return req.Normalize(s.opts.MaxNodes, s.opts.MaxBatchScenarios) })
	if !ok {
		return
	}
	run := func(ctx context.Context, onResult func(batch.Result)) (*batch.Report, error) {
		spec := req.BatchSpec
		return batch.Run(ctx, &spec, batch.Options{Workers: req.Workers, MeasureWorkers: req.MeasureWorkers, OnResult: onResult})
	}
	if streamRequested(r) {
		// Streamed sweeps bypass the result cache: the value of streaming
		// is progress, which a cache hit has none of. The summary line is
		// the BatchResponse without the rows, which already streamed.
		s.streamRows(w, r, endpointBatch, start, "", run, func(_ []byte, rep *batch.Report) []byte {
			sum := &BatchResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}
			sum.Results = nil
			line, _ := json.Marshal(sum) // a report always encodes
			return append(line, '\n')
		})
		return
	}
	s.serve(w, r, endpointBatch, start, req.CacheKey(), func(ctx context.Context) (any, error) {
		// Cancellation/deadline surfaces through the pool's error mapping
		// (504/503); the engine has no other failure mode after Normalize.
		rep, err := run(ctx, nil)
		if err != nil {
			return nil, err
		}
		return &BatchResponse{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}, nil
	})
}

// handleShard executes one [lo, hi) index range of a batch spec — the
// fleet worker's half of cluster mode (schema v7) — and streams its rows
// as NDJSON, then a summary line. Rows carry their global scenario indices
// so the coordinator can merge disjoint shards back into a report whose
// digest is byte-identical to a local run. The node and scenario bounds
// apply to the shard width, not the whole sweep, so a fleet can run sweeps
// no single request would admit.
//
// Shards read and fill the result cache: the coordinator places shards by
// consistent hash precisely so a repeated sweep lands each shard on the
// worker that holds it.
func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	start, ok := s.admit(w, r, endpointShard, &req, func() error { return req.Normalize(s.opts.MaxNodes, s.opts.MaxBatchScenarios) })
	if !ok {
		return
	}
	run := func(ctx context.Context, onResult func(batch.Result)) (*batch.Report, error) {
		spec := req.BatchSpec
		return batch.RunRange(ctx, &spec, req.Lo, req.Hi,
			batch.Options{Workers: req.Workers, MeasureWorkers: req.MeasureWorkers, OnResult: onResult})
	}
	key := req.CacheKey()
	s.streamRows(w, r, endpointShard, start, key, run, func(rows []byte, rep *batch.Report) []byte {
		e := newShardEntry(rows, rep)
		s.cache.Put(key, e)
		return e.summaryLine(false)
	})
}

// streamRows runs a sweep with per-row NDJSON delivery: each scenario
// result is written and flushed as it completes (the same plumbing the
// session stream uses), followed by the one line summary renders from the
// streamed row bytes and the report. A non-empty key names a cached shard:
// a hit replays its stored row lines in one write, with a summary that has
// Cached set.
//
// Only this goroutine touches the ResponseWriter. Rows cross from the
// pool worker over an unbuffered channel: when the request context dies
// (deadline, client gone, fast drain), Submit returns while the worker
// may still be finishing the sweep, and a worker that wrote directly
// would race the handler — or write after it returned. Instead the
// worker's sends fall through to ctx.Done and the rows are dropped.
func (s *Service) streamRows(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time, key string,
	run func(context.Context, func(batch.Result)) (*batch.Report, error), summary func(rows []byte, rep *batch.Report) []byte) {
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

	if key != "" {
		if v, ok := s.cache.Get(key); ok {
			s.cacheHit.Inc()
			e := v.(*shardEntry)
			write(e.rows, e.summaryLine(true))
			s.observe(endpoint, start)
			return
		}
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
			return run(ctx, func(res batch.Result) {
				select {
				case rows <- res:
				case <-ctx.Done():
				}
			})
		})
		done <- outcome{v, err}
	}()

	// Each row is encoded once: the line goes out on the wire and, for a
	// shard to cache, stays in the buffer summary receives.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for {
		select {
		case res := <-rows:
			n := buf.Len()
			_ = enc.Encode(&res) // writes to a bytes.Buffer
			write(buf.Bytes()[n:])
			if key == "" {
				buf.Reset()
			}
		case oc := <-done:
			// Submit returned: on success every row send already completed
			// (rows is unbuffered and OnResult is synchronous), and on a
			// context error any still-running sends drain via ctx.Done.
			if oc.err != nil {
				if !streamed {
					s.replySubmitError(w, endpoint, start, oc.err)
					return
				}
				_ = json.NewEncoder(w).Encode(api.SessionStreamError{Error: oc.err.Error(), Fatal: true})
				_ = rc.Flush()
				s.observe(endpoint, start)
				return
			}
			write(summary(buf.Bytes(), oc.v.(*batch.Report)))
			s.observe(endpoint, start)
			return
		}
	}
}

// shardEntry is the cached form of an executed shard: the rows as the
// NDJSON lines the stream writes, plus the report's scalars. A hit is then
// one write instead of a re-encode, and an entry holds a few KB of bytes
// instead of decoded rows and the partial aggregate maps.
type shardEntry struct {
	rows    []byte           // one encoded batch.Result per line
	summary api.ShardSummary // Results and Aggregates nil
}

// newShardEntry keeps a copy of rows (trimmed to size) and rep's scalars.
func newShardEntry(rows []byte, rep *batch.Report) *shardEntry {
	e := &shardEntry{rows: bytes.Clone(rows), summary: api.ShardSummary{Report: *rep, Digest: rep.Digest(), Schema: api.SchemaVersion}}
	e.summary.Report.Results, e.summary.Report.Aggregates = nil, nil
	return e
}

// summaryLine renders the streamed shard's closing NDJSON line.
func (e *shardEntry) summaryLine(cached bool) []byte {
	sum := e.summary
	sum.Cached = cached
	line, _ := json.Marshal(&sum) // scalars only; cannot fail
	return append(line, '\n')
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
// per-request deadline, backpressure and error mapping, metrics.
func (s *Service) serve(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time,
	key string, fn func(context.Context) (any, error)) {
	if v, ok := s.cache.Get(key); ok {
		s.cacheHit.Inc()
		s.observe(endpoint, start)
		writeJSON(w, http.StatusOK, cachedCopy(v))
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
	s.cache.Put(key, v)
	s.observe(endpoint, start)
	writeJSON(w, http.StatusOK, v)
}

// cachedCopy returns the response a cache hit answers with: a shallow copy
// of the cached value with Cached set, leaving the cached value untouched.
func cachedCopy(v any) any {
	switch t := v.(type) {
	case *BackboneResponse:
		c := *t
		c.Cached = true
		return &c
	case *DilationResponse:
		c := *t
		c.Cached = true
		return &c
	case *BroadcastResponse:
		c := *t
		c.Cached = true
		return &c
	case *BatchResponse:
		c := *t
		c.Cached = true
		return &c
	}
	return v
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

// admit counts a request, decodes its JSON body into req (unknown fields
// rejected) and runs check. It answers a failure itself and reports false;
// otherwise it returns the time validation started.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, endpoint string, req any, check func() error) (time.Time, bool) {
	s.requests.Inc()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.replyError(w, endpoint, time.Now(), api.Errorf("invalid request body: %v", err))
		return time.Time{}, false
	}
	start := time.Now()
	if err := check(); err != nil {
		s.replyError(w, endpoint, start, err)
		return start, false
	}
	return start, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
