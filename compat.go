package wcdsnet

// compat.go is the deprecation museum: every legacy entry point superseded
// by the unified Run API lives here, implemented as a thin shim over Run so
// it can never drift from the modern path. TestCompatShimsEquivalent pins
// each shim to its documented replacement. New code should not import
// anything from this file.

// Async runs the protocol on the asynchronous engine (the event engine
// under a per-link seeded scramble) with the given schedule seed. Implies
// Distributed.
//
// Deprecated: use WithEngine(EngineAsync) together with
// WithScheduleSeed(seed); a plain WithEngine(EngineAsync) run scrambles
// with seed 0.
func Async(scheduleSeed int64) Option {
	return func(o *runOptions) {
		o.distributed = true
		o.engine = EngineAsync
		o.scrambled, o.scheduleSeed = true, scheduleSeed
	}
}

// AlgorithmI runs the centralized reference of the paper's Algorithm I
// (leader + spanning tree + level-ranked MIS): a WCDS of size ≤ 5·opt whose
// black edges form a sparse spanner. The network must be connected.
//
// Deprecated: use Run(nw, AlgoI).
func AlgorithmI(nw *Network) Result {
	res, _, _ := Run(nw, AlgoI)
	return res
}

// AlgorithmII runs the centralized reference of the paper's Algorithm II
// (ID-ranked MIS + additional dominators): a fully localized WCDS whose
// spanner has topological dilation 3 and geometric dilation 6.
//
// Deprecated: use Run(nw, AlgoII).
func AlgorithmII(nw *Network) Result {
	res, _, _ := Run(nw, AlgoII)
	return res
}

// AlgorithmIDistributed executes the full three-phase Algorithm I protocol
// on the simulation kernel and reports its message cost.
//
// Deprecated: use Run(nw, AlgoI, WithEngine(...)).
func AlgorithmIDistributed(nw *Network, async bool, seed int64) (Result, RunStats, error) {
	return Run(nw, AlgoI, engineOpt(async, seed))
}

// AlgorithmIIDistributed executes the Algorithm II protocol on the
// simulation kernel. In Deferred mode the result equals AlgorithmII exactly
// under every engine and schedule.
//
// Deprecated: use Run(nw, AlgoII, WithEngine(...), WithSelection(mode)).
func AlgorithmIIDistributed(nw *Network, mode SelectionMode, async bool, seed int64) (Result, RunStats, error) {
	return Run(nw, AlgoII, engineOpt(async, seed), WithSelection(mode))
}

// AlgorithmIIZeroKnowledge runs Algorithm II with in-protocol HELLO
// neighbour discovery: every node starts knowing only its own ID. The
// Deferred result still equals AlgorithmII exactly, at one extra beacon per
// node.
//
// Deprecated: use Run(nw, AlgoII, ZeroKnowledge(), ...).
func AlgorithmIIZeroKnowledge(nw *Network, mode SelectionMode, async bool, seed int64) (Result, RunStats, error) {
	return Run(nw, AlgoII, engineOpt(async, seed), WithSelection(mode), ZeroKnowledge())
}

// AlgorithmIZeroKnowledge is the Algorithm I counterpart: HELLO discovery,
// then election, levels and colour marking, from own-ID-only knowledge.
//
// Deprecated: use Run(nw, AlgoI, ZeroKnowledge(), ...).
func AlgorithmIZeroKnowledge(nw *Network, async bool, seed int64) (Result, RunStats, error) {
	return Run(nw, AlgoI, engineOpt(async, seed), ZeroKnowledge())
}

// engineOpt translates the legacy (async, seed) pair onto the Option form.
func engineOpt(async bool, seed int64) Option {
	if async {
		return Async(seed)
	}
	return Distributed()
}

// RunConfig configures a distributed run beyond the engine choice: fault
// injection, the reliable ack/retransmit layer and the quiescence budget.
// The zero value is a lossless run on the synchronous engine.
//
// Deprecated: pass Options to Run instead (WithEngine, WithScheduleSeed,
// WithFaults, WithReliable, WithMaxRounds).
type RunConfig struct {
	// Async selects the asynchronous engine (the event engine under a
	// per-link seeded scramble).
	Async bool
	// ScheduleSeed scrambles the async delivery schedule (Async only).
	ScheduleSeed int64
	// Faults injects the given fault plan into the run.
	Faults *FaultPlan
	// Reliable wraps the protocol in the ack/retransmit layer, restoring
	// the paper's reliable-broadcast assumption over the faulty network.
	Reliable bool
	// ReliableOptions tunes retries/backoff when Reliable is set.
	ReliableOptions ReliableOptions
	// MaxRounds overrides the engine's quiescence budget: synchronous
	// rounds or asynchronous tick passes (0 = engine default).
	MaxRounds int
}

// options translates the legacy config onto the Option form.
func (cfg RunConfig) options() []Option {
	opts := []Option{Distributed()}
	if cfg.Async {
		opts = append(opts, Async(cfg.ScheduleSeed))
	}
	if cfg.Faults != nil {
		opts = append(opts, WithFaults(*cfg.Faults))
	}
	if cfg.Reliable {
		opts = append(opts, WithReliable(cfg.ReliableOptions))
	}
	if cfg.MaxRounds > 0 {
		opts = append(opts, WithMaxRounds(cfg.MaxRounds))
	}
	return opts
}

// AlgorithmIWithConfig runs the distributed Algorithm I under an explicit
// RunConfig — fault injection, the reliable layer and budget control.
//
// Deprecated: use Run(nw, AlgoI, WithFaults(...), WithReliable(...), ...).
func AlgorithmIWithConfig(nw *Network, cfg RunConfig) (Result, RunStats, error) {
	return Run(nw, AlgoI, cfg.options()...)
}

// AlgorithmIIWithConfig runs the distributed Algorithm II under an explicit
// RunConfig. With cfg.Reliable set and Deferred mode, the result equals
// AlgorithmII exactly whenever the run converges, even at heavy loss.
//
// Deprecated: use Run(nw, AlgoII, WithSelection(mode), WithFaults(...), ...).
func AlgorithmIIWithConfig(nw *Network, mode SelectionMode, cfg RunConfig) (Result, RunStats, error) {
	return Run(nw, AlgoII, append(cfg.options(), WithSelection(mode))...)
}
