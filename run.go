package wcdsnet

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/fleet"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/simnet"
)

// Algorithm names a backbone construction from the registered competitor
// suite (internal/algo). The paper's Algorithms I and II remain the
// distributed protocols; the rest are centralized baselines the paper
// compares against. Use ParseAlgorithm for string names and Algorithms for
// the full list.
type Algorithm int

const (
	// AlgoI is Algorithm I: leader election + spanning tree + level-ranked
	// MIS, |WCDS| ≤ 5·opt.
	AlgoI Algorithm = iota + 1
	// AlgoII is Algorithm II: ID-ranked MIS + additional dominators, fully
	// localized, dilation-3 spanner.
	AlgoII
	// AlgoMISCDS is the MIS-tree connected dominating set baseline.
	AlgoMISCDS
	// AlgoGreedyWCDS is Chen & Liestman's greedy WCDS baseline.
	AlgoGreedyWCDS
	// AlgoGreedyCDS is Guha & Khuller's greedy CDS baseline.
	AlgoGreedyCDS
	// AlgoWeightedDS is the greedy minimum-weight dominating set over
	// per-node weights (see WithWeightSeed).
	AlgoWeightedDS
	// AlgoPruneCDS is the Butenko-style prune-from-whole-graph CDS
	// heuristic.
	AlgoPruneCDS
)

// algoName maps the facade constants onto registry names; kept in lockstep
// with internal/algo's registration order.
var algoName = map[Algorithm]string{
	AlgoI:          "I",
	AlgoII:         "II",
	AlgoMISCDS:     "mis-cds",
	AlgoGreedyWCDS: "greedy-wcds",
	AlgoGreedyCDS:  "greedy-cds",
	AlgoWeightedDS: "weighted-ds",
	AlgoPruneCDS:   "prune-cds",
}

func (a Algorithm) String() string {
	if name, ok := algoName[a]; ok {
		return name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a registry name or alias ("II", "algo2",
// "greedy-cds", "butenko", ...) case-insensitively onto its Algorithm
// constant. Errors wrap ErrInvalidInput and enumerate the registered names.
func ParseAlgorithm(name string) (Algorithm, error) {
	c, ok := algo.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("wcdsnet: unknown algorithm %q (want %s): %w", name, algo.NamesString(), ErrInvalidInput)
	}
	for a, n := range algoName {
		if n == c.Name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("wcdsnet: algorithm %q has no facade constant: %w", c.Name, ErrInvalidInput)
}

// Algorithms lists the registered construction names in registration order —
// the values -algo flags and service requests accept.
func Algorithms() []string {
	return algo.Names()
}

// Sentinel errors of the unified Run API, shared with the HTTP service
// (internal/service/api owns them; the service maps them onto statuses in
// exactly one place). Test with errors.Is.
var (
	// ErrInvalidInput marks arguments rejected by validation.
	ErrInvalidInput = api.ErrInvalidInput
	// ErrUnreachable marks computations handed a disconnected network.
	ErrUnreachable = api.ErrUnreachable
	// ErrBudgetExceeded marks distributed runs that blew their quiescence
	// or delivery budget before terminating.
	ErrBudgetExceeded = api.ErrBudgetExceeded
)

// PhaseSpan is one protocol phase's cost breakdown: messages, per-link
// deliveries, synchronous-round extent, reliable-layer retransmits and wall
// time. Produced by Run under WithPhases; also carried by the service's
// wire schema and the batch engine's reports.
type PhaseSpan = obs.Span

// FormatPhaseTable renders a per-phase cost table, one indented line per
// phase, in the span order given (first-seen protocol order under
// WithPhases). It is the shared formatter behind the README walkthrough
// and cmd/wcds -phases, so the two can never drift.
func FormatPhaseTable(spans []PhaseSpan) string {
	var b strings.Builder
	for _, sp := range spans {
		fmt.Fprintf(&b, "  %-8s msgs=%-6d deliveries=%-6d rounds=%d", sp.Name, sp.Messages, sp.Deliveries, sp.Rounds)
		if sp.Retransmits > 0 {
			fmt.Fprintf(&b, " retransmits=%d", sp.Retransmits)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunStats reports a distributed run's cost: the kernel counters plus,
// when WithPhases was given, the per-phase breakdown in first-seen order
// (election → levels → mis for Algorithm I; mis → recruit for Algorithm
// II; discovery first under ZeroKnowledge; reliable for ack overhead).
type RunStats struct {
	simnet.Stats
	// Phases is the per-phase breakdown; nil unless WithPhases was given.
	Phases []PhaseSpan
}

// Engine selects the simulation engine of a distributed run; re-exported
// from internal/simnet so callers need only this package.
type Engine = simnet.Engine

const (
	// EngineSync is the deterministic synchronous-round engine.
	EngineSync = simnet.EngineSync
	// EngineAsync is the asynchronous engine: the event engine under a
	// per-link seeded scramble, so each seed replays exactly.
	EngineAsync = simnet.EngineAsync
	// EngineEvent is the event-driven single-scheduler engine: the
	// asynchronous model without a goroutine or channel per node, built for
	// million-node networks.
	EngineEvent = simnet.EngineEvent
)

// runOptions is assembled by the Option list: the batch workload Run
// executes, the executor's in-process arguments and the per-call context.
// The zero workload is the centralized reference construction.
type runOptions struct {
	w   batch.Workload
	x   batch.ExecOptions
	ctx context.Context
}

// distribute selects a distributed run: the sync engine unless an engine
// is already set.
func (o *runOptions) distribute() {
	if o.w.Engine == "" {
		o.w.Engine = EngineSync.String()
	}
}

// Option configures Run. Options compose; each documents whether it
// implies a distributed execution.
type Option func(*runOptions)

// Distributed runs the protocol on the deterministic synchronous-round
// engine instead of the centralized reference. Equivalent to
// WithEngine(EngineSync).
func Distributed() Option {
	return func(o *runOptions) { o.distribute() }
}

// WithEngine runs the protocol on the named simulation engine — the one
// engine selector of the API. Implies Distributed.
//
// EngineSync is the deterministic synchronous-round reference; EngineEvent
// implements the asynchronous model on a single-scheduler event-driven
// core in deterministic FIFO order and is the choice for very large
// networks (see the README's million-node walkthrough); EngineAsync is the
// event engine under a per-link seeded scramble, where every link's copy
// of a broadcast lands at its own random point of the schedule. Which runs
// scramble is set by WithScheduleSeed. All three construct the same WCDS
// in Deferred mode.
func WithEngine(eng Engine) Option {
	return func(o *runOptions) { o.w.Engine = eng.String() }
}

// WithScheduleSeed seeds the delivery scramble, for exploring
// schedule-dependence: a scrambled run places every per-link copy at its
// own seeded-random queue position, so the same seed replays the same
// schedule. The rule is the one the service and batch wire fields follow:
// EngineAsync always scrambles, with seed 0 unless this option gives
// another; EngineEvent scrambles only for a non-zero seed and otherwise
// keeps its FIFO order; EngineSync ignores the seed (its round schedule is
// fixed). Implies Distributed.
func WithScheduleSeed(seed int64) Option {
	return func(o *runOptions) { o.distribute(); o.w.ScheduleSeed = seed }
}

// WithSelection picks Algorithm II's connector-selection mode (Deferred by
// default). Eager needs a distributed Algorithm II run.
func WithSelection(mode SelectionMode) Option {
	return func(o *runOptions) {
		o.w.Selection = "deferred"
		if mode == Eager {
			o.w.Selection = "eager"
		}
	}
}

// WithFaults injects the fault plan into the run. Implies Distributed —
// faults only exist on the simulation engines.
func WithFaults(plan FaultPlan) Option {
	return func(o *runOptions) { o.distribute(); o.w.Faults = &plan }
}

// WithReliable wraps the protocol in the ack/retransmit layer so it
// converges under loss (zero value opts = defaults). Implies Distributed.
func WithReliable(opts ReliableOptions) Option {
	return func(o *runOptions) {
		o.distribute()
		o.w.Reliable, o.w.MaxRetries, o.x.Backoff = true, opts.MaxRetries, opts.Backoff
	}
}

// WithMaxRounds overrides the engine's quiescence budget: synchronous
// rounds or asynchronous tick passes (0 = engine default). Implies
// Distributed.
func WithMaxRounds(n int) Option {
	return func(o *runOptions) { o.distribute(); o.w.MaxRounds = n }
}

// WithMaxDeliveries bounds the run's total per-link deliveries (0 = engine
// default of 50M) — the budget that catches non-quiescent protocols on the
// asynchronous engine, where plain runs have no round clock. Implies
// Distributed.
func WithMaxDeliveries(n int) Option {
	return func(o *runOptions) { o.distribute(); o.x.MaxDeliveries = n }
}

// ZeroKnowledge prepends in-protocol HELLO neighbour discovery: every node
// starts knowing only its own ID. Implies Distributed.
func ZeroKnowledge() Option {
	return func(o *runOptions) { o.distribute(); o.x.ZeroKnowledge = true }
}

// WithContext makes the run cancellable: a distributed run observes ctx
// per synchronous round / per quiescence tick and returns promptly with an
// error wrapping context.Canceled or context.DeadlineExceeded (test with
// errors.Is). Implies Distributed — the centralized references complete in
// microseconds and have nothing to interrupt.
func WithContext(ctx context.Context) Option {
	return func(o *runOptions) { o.distribute(); o.ctx = ctx }
}

// WithPhases collects the per-phase cost breakdown (RunStats.Phases):
// every transmission, delivery and retransmission is attributed to its
// paper phase, with round extents and wall time. Implies Distributed.
func WithPhases() Option {
	return func(o *runOptions) { o.distribute(); o.x.Phases = true }
}

// WithWeightSeed draws per-node weights uniformly from [1, 2) with a
// dedicated seeded RNG — the reproducible form the batch engine and the
// service's weightSeed field use. Seed 0 means unit weights; only accepted
// by weighted algorithms.
func WithWeightSeed(seed int64) Option {
	return func(o *runOptions) { o.w.WeightSeed = seed }
}

// Run is the single entry point for backbone construction: pick the
// algorithm from the registered suite, then opt into distribution,
// asynchrony, fault injection, reliability and discovery with options. No
// options runs the centralized construction (zero RunStats); see the Option
// constructors for what each adds. Distributed options are only accepted by
// the paper's protocols (AlgoI, AlgoII); the baselines are centralized-only.
//
//	res, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII)                  // centralized
//	res, st, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineEvent))
//	res, st, err := wcdsnet.Run(nw, wcdsnet.AlgoI,
//	    wcdsnet.WithFaults(plan), wcdsnet.WithReliable(wcdsnet.ReliableOptions{}))
//	res, _, err := wcdsnet.Run(nw, wcdsnet.AlgoWeightedDS, wcdsnet.WithWeightSeed(7))
//
// The options fill one batch workload, checked by the rule every sweep
// scenario and service request passes and run by the same executor; the
// knobs with no wire form (ZeroKnowledge, WithMaxDeliveries, the reliable
// Backoff, WithPhases) go to that executor as batch.ExecOptions.
// Errors wrap the package sentinels: ErrInvalidInput for bad arguments and
// ErrBudgetExceeded when a distributed run exhausts its round or delivery
// budget (test with errors.Is).
func Run(nw *Network, a Algorithm, opts ...Option) (Result, RunStats, error) {
	if nw == nil {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: nil network: %w", ErrInvalidInput)
	}
	name, ok := algoName[a]
	if !ok {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: unknown algorithm %d (want %s): %w", int(a), algo.NamesString(), ErrInvalidInput)
	}
	o := runOptions{w: batch.Workload{Algorithm: name}, ctx: context.Background()}
	for _, opt := range opts {
		opt(&o)
	}
	err := o.w.Normalize()
	if err == nil {
		err = o.x.Check(&o.w)
	}
	if err == nil {
		err = o.w.Faults.Validate(nw.N())
	}
	if err != nil {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: %v: %w", err, ErrInvalidInput)
	}
	out := batch.Exec(o.ctx, &o.w, nw, o.x)
	st := RunStats{Stats: out.Stats, Phases: out.Phases}
	// One error taxonomy across every engine and layer: a centralized
	// construction fails only on input outside its contract; budget
	// blow-outs wrap ErrBudgetExceeded; cancellations keep their context
	// cause (context.Canceled / context.DeadlineExceeded) visible to
	// errors.Is.
	switch {
	case out.Err == nil:
		return out.Result, st, nil
	case o.w.Mode == "centralized":
		return out.Result, st, fmt.Errorf("wcdsnet: %v: %w", out.Err, ErrInvalidInput)
	case errors.Is(out.Err, simnet.ErrMaxRounds) || errors.Is(out.Err, simnet.ErrMaxDeliveries):
		return out.Result, st, fmt.Errorf("wcdsnet: %w (%w)", out.Err, ErrBudgetExceeded)
	}
	return out.Result, st, fmt.Errorf("wcdsnet: %w", out.Err)
}

// --- batch engine ------------------------------------------------------------

// Batch engine types, re-exported from internal/batch. A BatchSpec is the
// declarative cartesian sweep (sizes × degrees × seeds × workloads) the
// sharded engine executes; POST /v1/batch accepts the same schema.
type (
	// BatchSpec declares a sweep for RunBatch.
	BatchSpec = batch.Spec
	// BatchWorkload is one measurement applied to every network cell.
	BatchWorkload = batch.Workload
	// BatchOptions tunes RunBatch (worker count, measurement parallelism,
	// streaming callback).
	BatchOptions = batch.Options
	// BatchResult is one finished scenario row.
	BatchResult = batch.Result
	// BatchReport is the full sweep outcome with aggregate statistics.
	BatchReport = batch.Report
)

// RunBatch executes the sweep on the sharded batch engine: deterministic
// scenario sharding across workers, shared per-network subcomputations and
// pooled hot paths. Results are identical for every worker count; see
// (*BatchReport).Digest.
func RunBatch(ctx context.Context, spec *BatchSpec, opts BatchOptions) (*BatchReport, error) {
	rep, err := batch.Run(ctx, spec, opts)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("wcdsnet: %w: %w", ErrInvalidInput, err)
	}
	return rep, err
}

// Fleet (cluster mode) types, re-exported from internal/fleet. A fleet fans
// one BatchSpec out across N cmd/serve workers over POST /v1/shard and
// merges the index-addressed rows into a report whose Digest is
// byte-identical to RunBatch at any fleet size and shard width.
type (
	// FleetOptions configures RunBatchFleet; Workers (base URLs) is the
	// only required field.
	FleetOptions = fleet.Options
	// FleetReport is the merged fleet outcome: the embedded BatchReport
	// plus shard accounting and per-worker statistics.
	FleetReport = fleet.Report
	// FleetWorkerStats is one worker's share of a fleet run (shards, rows,
	// cache hits, utilization, tail latency).
	FleetWorkerStats = fleet.WorkerStats
	// FleetWorker is an in-process worker (full Service behind a loopback
	// listener) for tests and single-binary clusters; see SpawnFleetWorkers.
	FleetWorker = fleet.LocalWorker
)

// RunBatchFleet executes the sweep in cluster mode: the spec is sliced into
// shard ranges aligned to whole network cells, placed with bounded loads on
// a consistent-hash ring over the workers' result caches, streamed back row
// by row and merged with at-most-once accounting.
// A worker lost mid-sweep is health-checked, removed and its orphaned
// shards re-dispatched onto the survivors; the merged Digest stays
// byte-identical to a local run throughout. See cmd/fleet for the CLI.
func RunBatchFleet(ctx context.Context, spec *BatchSpec, opts FleetOptions) (*FleetReport, error) {
	rep, err := fleet.Run(ctx, spec, opts)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("wcdsnet: %w: %w", ErrInvalidInput, err)
	}
	return rep, err
}

// SpawnFleetWorkers boots n in-process workers on ephemeral loopback ports,
// each a full Service behind a real TCP listener — the complete wire path
// without managing OS processes. Close each worker when done.
func SpawnFleetWorkers(n int, opts ServiceOptions) ([]*FleetWorker, error) {
	workers, err := fleet.SpawnLocal(n, opts)
	if err != nil {
		return nil, fmt.Errorf("wcdsnet: %w: %w", ErrInvalidInput, err)
	}
	return workers, nil
}

// FleetWorkerAddrs collects the base URLs of in-process workers, in the
// form FleetOptions.Workers expects.
func FleetWorkerAddrs(workers []*FleetWorker) []string { return fleet.Addrs(workers) }
