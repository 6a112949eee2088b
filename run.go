package wcdsnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/fleet"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/wcds"
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
	// per-node weights (see WithWeights / WithWeightSeed).
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
	// EngineAsync is the goroutine-per-node asynchronous engine.
	EngineAsync = simnet.EngineAsync
	// EngineEvent is the event-driven single-scheduler engine: the
	// asynchronous model without a goroutine or channel per node, built for
	// million-node networks.
	EngineEvent = simnet.EngineEvent
)

// runOptions is assembled by the Option list; the zero value is the
// centralized reference construction.
type runOptions struct {
	distributed   bool
	engine        Engine
	scrambled     bool
	scheduleSeed  int64
	selection     SelectionMode
	faults        *FaultPlan
	reliable      bool
	relOpts       ReliableOptions
	maxRounds     int
	maxDeliveries int
	zeroKnowledge bool
	phases        bool
	ctx           context.Context
	weights       []float64
	weightSeed    int64
}

// Option configures Run. Options compose; each documents whether it
// implies a distributed execution.
type Option func(*runOptions)

// Distributed runs the protocol on the deterministic synchronous-round
// engine instead of the centralized reference. Equivalent to
// WithEngine(EngineSync).
func Distributed() Option {
	return func(o *runOptions) { o.distributed = true }
}

// WithEngine runs the protocol on the named simulation engine — the one
// engine selector of the API. Implies Distributed.
//
// EngineSync is the deterministic synchronous-round reference; EngineAsync
// is the goroutine-per-node asynchronous engine; EngineEvent implements
// the same asynchronous model on a single-scheduler event-driven core and
// is the choice for very large networks (see the README's million-node
// walkthrough). All three construct the same WCDS in Deferred mode.
func WithEngine(eng Engine) Option {
	return func(o *runOptions) { o.distributed, o.engine = true, eng }
}

// WithScheduleSeed scrambles the delivery schedule with a seeded RNG, for
// exploring schedule-dependence: the async engine interleaves node
// goroutines through a scrambled inbox, the event engine inserts
// transmissions at seeded-random queue positions. The synchronous engine
// ignores it (its round schedule is fixed), as do plain
// WithEngine(EngineAsync)/WithEngine(EngineEvent) runs without this
// option, which use the engine's native deterministic order. Implies
// Distributed.
func WithScheduleSeed(seed int64) Option {
	return func(o *runOptions) { o.distributed, o.scrambled, o.scheduleSeed = true, true, seed }
}

// WithSelection picks Algorithm II's connector-selection mode (Deferred by
// default; ignored by Algorithm I).
func WithSelection(mode SelectionMode) Option {
	return func(o *runOptions) { o.selection = mode }
}

// WithFaults injects the fault plan into the run. Implies Distributed —
// faults only exist on the simulation engines.
func WithFaults(plan FaultPlan) Option {
	return func(o *runOptions) { o.distributed, o.faults = true, &plan }
}

// WithReliable wraps the protocol in the ack/retransmit layer so it
// converges under loss (zero value opts = defaults). Implies Distributed.
func WithReliable(opts ReliableOptions) Option {
	return func(o *runOptions) { o.distributed, o.reliable, o.relOpts = true, true, opts }
}

// WithMaxRounds overrides the engine's quiescence budget: synchronous
// rounds or asynchronous tick passes (0 = engine default). Implies
// Distributed.
func WithMaxRounds(n int) Option {
	return func(o *runOptions) { o.distributed, o.maxRounds = true, n }
}

// WithMaxDeliveries bounds the run's total per-link deliveries (0 = engine
// default of 50M) — the budget that catches non-quiescent protocols on the
// asynchronous engine, where plain runs have no round clock. Implies
// Distributed.
func WithMaxDeliveries(n int) Option {
	return func(o *runOptions) { o.distributed, o.maxDeliveries = true, n }
}

// ZeroKnowledge prepends in-protocol HELLO neighbour discovery: every node
// starts knowing only its own ID. Implies Distributed.
func ZeroKnowledge() Option {
	return func(o *runOptions) { o.distributed, o.zeroKnowledge = true, true }
}

// WithContext makes the run cancellable: a distributed run observes ctx
// per synchronous round / per quiescence tick and returns promptly with an
// error wrapping context.Canceled or context.DeadlineExceeded (test with
// errors.Is). Implies Distributed — the centralized references complete in
// microseconds and have nothing to interrupt.
func WithContext(ctx context.Context) Option {
	return func(o *runOptions) { o.distributed, o.ctx = true, ctx }
}

// WithPhases collects the per-phase cost breakdown (RunStats.Phases):
// every transmission, delivery and retransmission is attributed to its
// paper phase, with round extents and wall time. Implies Distributed.
func WithPhases() Option {
	return func(o *runOptions) { o.distributed, o.phases = true, true }
}

// WithWeights supplies explicit per-node weights for weighted constructions
// (AlgoWeightedDS). Only accepted by algorithms with the weighted
// capability; the slice must have one non-negative entry per node.
func WithWeights(w []float64) Option {
	return func(o *runOptions) { o.weights = w }
}

// WithWeightSeed draws per-node weights uniformly from [1, 2) with a
// dedicated seeded RNG — the reproducible form the batch engine and the
// service's weightSeed field use. Seed 0 means unit weights. Ignored when
// WithWeights supplies an explicit slice; only accepted by weighted
// algorithms.
func WithWeightSeed(seed int64) Option {
	return func(o *runOptions) { o.weightSeed = seed }
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
	construction, ok := algo.Lookup(name)
	if !ok {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: algorithm %q not registered: %w", name, ErrInvalidInput)
	}
	var o runOptions
	o.selection = Deferred
	for _, opt := range opts {
		opt(&o)
	}
	if !o.engine.Valid() {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: unknown engine %v: %w", o.engine, ErrInvalidInput)
	}
	if o.maxRounds < 0 {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: maxRounds %d must be non-negative: %w", o.maxRounds, ErrInvalidInput)
	}
	if o.maxDeliveries < 0 {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: maxDeliveries %d must be non-negative: %w", o.maxDeliveries, ErrInvalidInput)
	}
	if o.faults != nil {
		if err := o.faults.Validate(nw.N()); err != nil {
			return Result{}, RunStats{}, fmt.Errorf("wcdsnet: %v: %w", err, ErrInvalidInput)
		}
	}
	if (o.weights != nil || o.weightSeed != 0) && !construction.Caps.Weighted {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: algorithm %s does not take node weights: %w", name, ErrInvalidInput)
	}

	if !o.distributed {
		// Algorithm I's centralized reference has always ignored the
		// (Algorithm II specific) selection mode; every other construction
		// rejects a non-default mode as a distributed-only request.
		if o.selection != Deferred && name != "I" {
			return Result{}, RunStats{}, fmt.Errorf("wcdsnet: selection mode %v requires a distributed run: %w", o.selection, ErrInvalidInput)
		}
		in := algo.Input{G: nw.G, IDs: nw.ID}
		if construction.Caps.Weighted {
			in.Weights = o.weights
			if in.Weights == nil {
				in.Weights = algo.Weights(o.weightSeed, nw.N())
			}
		}
		res, err := construction.Run(in)
		if err != nil {
			return Result{}, RunStats{}, fmt.Errorf("wcdsnet: %v: %w", err, ErrInvalidInput)
		}
		return res, RunStats{}, nil
	}

	if !construction.Caps.Distributed {
		return Result{}, RunStats{}, fmt.Errorf("wcdsnet: algorithm %s has no distributed protocol (distributed: %s): %w",
			name, strings.Join(algo.DistributedNames(), ", "), ErrInvalidInput)
	}
	var rec *obs.Spans
	if o.phases {
		rec = obs.NewSpans()
	}
	run := o.compileRunner(rec)
	var (
		res Result
		st  RunStats
		err error
	)
	res, st.Stats, err = algo.DistributedRun(construction, nw.G, nw.ID, o.selection, o.zeroKnowledge, run)
	if rec != nil {
		st.Phases = rec.Snapshot()
	}
	if err != nil {
		// One error taxonomy across every engine and layer: budget blow-outs
		// wrap ErrBudgetExceeded; cancellations keep their context cause
		// (context.Canceled / context.DeadlineExceeded) visible to errors.Is.
		if errors.Is(err, simnet.ErrMaxRounds) || errors.Is(err, simnet.ErrMaxDeliveries) {
			err = fmt.Errorf("wcdsnet: %w (%w)", err, ErrBudgetExceeded)
		} else {
			err = fmt.Errorf("wcdsnet: %w", err)
		}
	}
	return res, st, err
}

func (o *runOptions) compileRunner(rec *obs.Spans) wcds.Runner {
	var opts []simnet.Option
	if o.scrambled && o.engine != EngineSync {
		opts = append(opts, simnet.WithScramble(rand.New(rand.NewSource(o.scheduleSeed))))
	}
	if o.faults != nil {
		opts = append(opts, simnet.WithFaults(*o.faults))
	}
	if o.maxRounds > 0 {
		opts = append(opts, simnet.WithMaxRounds(o.maxRounds))
	}
	if o.maxDeliveries > 0 {
		opts = append(opts, simnet.WithMaxDeliveries(o.maxDeliveries))
	}
	if o.ctx != nil {
		opts = append(opts, simnet.WithContext(o.ctx))
	}
	if rec != nil {
		opts = append(opts, wcds.ObserveOption(rec))
	}
	if o.reliable {
		ropt := o.relOpts
		if rec != nil {
			ropt.Observer, ropt.Phase = rec, wcds.PhaseOf
		}
		return wcds.ReliableRunner(o.engine, ropt, opts...)
	}
	return wcds.EngineRunner(o.engine, opts...)
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

// WithMeasureWorkers returns BatchOptions with the per-scenario dilation
// measurement parallelism set (spanner.DilationN workers; 0 = engine
// default of 1). Like the shard count it cannot change results, only wall
// time. Convenience for callers that otherwise pass a zero BatchOptions.
func WithMeasureWorkers(opts BatchOptions, workers int) BatchOptions {
	opts.MeasureWorkers = workers
	return opts
}

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

// RunBatchSerial executes the sweep one scenario at a time with nothing
// shared or pooled — the pre-engine baseline cmd/bench measures speedup
// against.
func RunBatchSerial(ctx context.Context, spec *BatchSpec) (*BatchReport, error) {
	rep, err := batch.RunSerial(ctx, spec)
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
