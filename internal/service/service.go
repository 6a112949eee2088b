// Package service is the backbone-as-a-service layer: a long-running HTTP
// daemon that computes WCDS backbones, spanner dilation reports and
// backbone broadcasts on demand.
//
// Topology-control backbones are exactly the kind of computation a fleet
// of clients asks for repeatedly over near-identical scenarios, so the
// service is built as four cooperating layers:
//
//   - handlers (handlers.go): JSON endpoints POST /v1/backbone,
//     /v1/dilation, /v1/broadcast plus GET /healthz and /metrics;
//   - a bounded worker pool (pool.go) with a bounded queue, per-request
//     context timeouts and explicit backpressure — overload answers 429 +
//     Retry-After instead of admitting unbounded work;
//   - a content-addressed LRU result cache (cache.go) keyed by a canonical
//     hash of (scenario or explicit topology, algorithm, mode), so repeated
//     scenarios are served in microseconds;
//   - a metrics registry (internal/service/metrics) of atomic counters and
//     latency histograms rendered in Prometheus text format.
//
// The package depends only on internal packages (never on the wcdsnet
// facade — the facade re-exports this package) and on the standard library.
package service

import (
	"context"
	"errors"
	"runtime"
	"time"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/service/metrics"
	"wcdsnet/internal/session"
)

// Options configures a Service. The zero value is usable: every field has
// a sensible default applied by New.
type Options struct {
	// Workers is the number of pool goroutines (default: GOMAXPROCS).
	Workers int
	// QueueSize bounds the pending-job queue (default: 4 × Workers).
	// Submits beyond Workers+QueueSize in flight are answered 429.
	QueueSize int
	// CacheSize bounds the LRU result cache in entries (default: 1024).
	// Zero means default; negative disables caching.
	CacheSize int
	// RequestTimeout bounds queue wait + compute per request (default: 30s).
	RequestTimeout time.Duration
	// MaxNodes rejects generate/submit requests above this node count with
	// 400 before any allocation (default: 20000).
	MaxNodes int
	// MaxBatchScenarios bounds the expansion size a POST /v1/batch sweep
	// may request (default: 5000). Negative disables the batch endpoint's
	// bound entirely.
	MaxBatchScenarios int
}

// Topology-session limits. maxSessions caps concurrently open sessions;
// sessionTTL and sessionIdle are the lifetime and idle-eviction timeout of
// a session whose create request sets none; sessionQueue bounds the
// per-stream delta and event queues — the backpressure depth between the
// NDJSON reader, the repair loop and the NDJSON writer, in epochs.
const (
	maxSessions  = 64
	sessionTTL   = 10 * time.Minute
	sessionIdle  = 2 * time.Minute
	sessionQueue = 16
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize == 0 {
		o.QueueSize = 4 * o.Workers
	}
	if o.QueueSize < 0 {
		o.QueueSize = 0
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.MaxBatchScenarios == 0 {
		o.MaxBatchScenarios = 5000
	}
	if o.MaxBatchScenarios < 0 {
		o.MaxBatchScenarios = 0 // unbounded
	}
	return o
}

// Service owns the pool, cache and metrics of one backbone daemon. Create
// with New, expose via Handler, stop with Close.
type Service struct {
	opts     Options
	pool     *Pool
	cache    *Cache
	reg      *metrics.Registry
	sessions *session.Manager
	start    time.Time

	// baseCtx is the service's lifetime context: CancelInFlight cancels it
	// to abort every in-flight request and open session at once (the
	// fast-drain path past cmd/serve's grace period).
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	requests *metrics.Counter
	errors   *metrics.Counter
	rejected *metrics.Counter
	timeouts *metrics.Counter
	cacheHit *metrics.Counter
	panics   *metrics.Counter
	latency  map[string]*metrics.Histogram

	phaseMessages    *metrics.CounterVec
	phaseRetransmits *metrics.CounterVec
	sessionDeltas    *metrics.CounterVec
	sessionCloses    *metrics.CounterVec
	sessionsOpened   *metrics.Counter
	epochLatency     *metrics.Histogram
}

// New builds a Service with opts (zero value = defaults) and starts its
// worker pool.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:  opts,
		pool:  NewPool(opts.Workers, opts.QueueSize),
		cache: NewCache(opts.CacheSize),
		reg:   metrics.NewRegistry(),
		start: time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.sessions = session.NewManager(session.ManagerOptions{
		MaxSessions: maxSessions,
		OnClose: func(_ string, cause error) {
			s.sessionCloses.With(closeReason(cause)).Inc()
		},
	})
	s.requests = s.reg.Counter("wcds_service_requests_total", "Compute requests received across all endpoints.")
	s.errors = s.reg.Counter("wcds_service_errors_total", "Requests answered with a 4xx/5xx status (excluding 429).")
	s.rejected = s.reg.Counter("wcds_service_rejected_total", "Requests shed with 429 because the job queue was full.")
	s.timeouts = s.reg.Counter("wcds_service_timeouts_total", "Requests that hit the per-request deadline.")
	s.cacheHit = s.reg.Counter("wcds_service_cache_hits_total", "Requests served from the result cache.")
	s.panics = s.reg.Counter("wcds_service_panics_total", "Panics recovered in pool jobs or HTTP handlers.")
	s.latency = map[string]*metrics.Histogram{
		endpointBackbone:  s.reg.Histogram("wcds_service_backbone_latency_seconds", "End-to-end latency of POST /v1/backbone."),
		endpointDilation:  s.reg.Histogram("wcds_service_dilation_latency_seconds", "End-to-end latency of POST /v1/dilation."),
		endpointBroadcast: s.reg.Histogram("wcds_service_broadcast_latency_seconds", "End-to-end latency of POST /v1/broadcast."),
		endpointBatch:     s.reg.Histogram("wcds_service_batch_latency_seconds", "End-to-end latency of POST /v1/batch."),
		endpointShard:     s.reg.Histogram("wcds_service_shard_latency_seconds", "End-to-end latency of POST /v1/shard."),
		endpointSession:   s.reg.Histogram("wcds_service_session_latency_seconds", "End-to-end latency of POST /v1/session (create)."),
	}
	s.phaseMessages = s.reg.CounterVec("wcds_service_phase_messages_total",
		"Protocol messages sent, by protocol phase, across all runs.", "phase")
	s.phaseRetransmits = s.reg.CounterVec("wcds_service_phase_retransmits_total",
		"Reliable-layer retransmissions, by protocol phase, across all runs.", "phase")
	s.sessionDeltas = s.reg.CounterVec("wcds_service_session_deltas_total",
		"Topology deltas received on streaming sessions, by delta kind.", "kind")
	s.sessionCloses = s.reg.CounterVec("wcds_service_session_closes_total",
		"Streaming sessions closed, by reason.", "reason")
	s.sessionsOpened = s.reg.Counter("wcds_service_sessions_opened_total",
		"Streaming sessions created over the service lifetime.")
	s.epochLatency = s.reg.Histogram("wcds_service_session_epoch_latency_seconds",
		"Apply latency of one session epoch (mutations + incremental repair).")
	s.reg.GaugeFunc("wcds_service_sessions_active", "Streaming sessions currently open.",
		func() float64 { return float64(s.sessions.Active()) })
	s.reg.GaugeFunc("wcds_service_queue_depth", "Jobs waiting in the pool queue.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	s.reg.GaugeFunc("wcds_service_in_flight", "Jobs executing right now.",
		func() float64 { return float64(s.pool.InFlight()) })
	s.reg.GaugeFunc("wcds_service_cache_entries", "Entries currently resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc("wcds_service_cache_misses_total", "Result cache misses.",
		func() float64 { _, m, _ := s.cache.Stats(); return float64(m) })
	s.reg.GaugeFunc("wcds_service_cache_evictions_total", "Result cache evictions.",
		func() float64 { _, _, e := s.cache.Stats(); return float64(e) })
	s.reg.GaugeFunc("wcds_service_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	return s
}

// recordPhases folds one run's per-phase breakdown into the labeled
// counter families: one wcds_service_phase_messages_total family with a
// {phase="..."} child per phase (wcds.PhaseOf names a small closed set).
func (s *Service) recordPhases(spans []obs.Span) {
	for _, sp := range spans {
		if sp.Messages > 0 {
			s.phaseMessages.With(sp.Name).Add(int64(sp.Messages))
		}
		if sp.Retransmits > 0 {
			s.phaseRetransmits.With(sp.Name).Add(int64(sp.Retransmits))
		}
	}
}

// Close drains the service: open sessions close with a drain cause, then
// the worker pool finishes accepted jobs; new Submits fail.
func (s *Service) Close() {
	s.sessions.Shutdown(nil)
	s.pool.Close()
}

// CancelInFlight aborts every in-flight request and open session by
// cancelling the service's lifetime context. This is the fast-drain path:
// cmd/serve calls it when graceful shutdown outlives the grace period, so
// still-running jobs and long-lived session streams unwind through their
// run contexts instead of being waited out.
func (s *Service) CancelInFlight() {
	s.baseCancel(session.ErrDrained)
	s.sessions.Shutdown(session.ErrDrained)
}

// closeReason maps a session close cause onto its metrics label.
func closeReason(cause error) string {
	switch {
	case errors.Is(cause, session.ErrExpired):
		return "expired"
	case errors.Is(cause, session.ErrDrained):
		return "drained"
	default:
		return "client"
	}
}

// CacheStats exposes the result cache counters.
func (s *Service) CacheStats() (hits, misses, evictions int64) { return s.cache.Stats() }

// --- request model ---------------------------------------------------------

// The wire types live in internal/service/api (the versioned contract
// shared with the chaos harness, cmd/bench and external clients); these
// aliases keep the service's historical names importable.
type (
	NetworkSpec       = api.NetworkSpec
	BackboneRequest   = api.BackboneRequest
	BackboneResponse  = api.BackboneResponse
	DilationRequest   = api.DilationRequest
	DilationResponse  = api.DilationResponse
	BroadcastRequest  = api.BroadcastRequest
	BroadcastResponse = api.BroadcastResponse
	BatchRequest      = api.BatchRequest
	BatchResponse     = api.BatchResponse
	ShardRequest      = api.ShardRequest
)
