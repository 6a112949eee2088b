package wcds

import (
	"context"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
)

// Runner abstracts the simulation engine choice for the distributed
// constructions.
type Runner func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error)

// EngineRunner runs protocols on the named engine with the given options.
func EngineRunner(eng simnet.Engine, opts ...simnet.Option) Runner {
	return func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		return eng.Run(g, procs, opts...)
	}
}

// ReliableRunner wraps a distributed construction's procs in the
// ack/retransmit reliability layer before handing them to the chosen
// engine, and merges the layer's counters (retransmits, suppressed
// duplicates, acks, abandoned frames) into the returned Stats.
//
// Under the reliability layer every protocol message is delivered exactly
// once with overwhelming probability at loss rates well past 30%, so a
// Deferred-mode Algorithm II run over a faulty network converges to the
// same WCDS as a lossless run instead of failing with undecided nodes. A
// lossless run through this runner performs zero retransmissions.
func ReliableRunner(eng simnet.Engine, ropt reliable.Options, opts ...simnet.Option) Runner {
	return func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		wrapped, col := reliable.Wrap(procs, ropt)
		st, err := eng.Run(g, wrapped, opts...)
		col.MergeInto(&st)
		return st, err
	}
}

// RunSpec describes one distributed run: the engine and its schedule
// seed, the fault plan and budgets, the reliable layer and the phase
// recorder. It is the one place where a run description becomes a
// Runner, so every surface follows the same scramble rule. Algorithms I
// and II reach it through the batch executor, which builds it from a
// batch.Workload — the form the facade's Option list, every service
// request and every chaos cell take.
type RunSpec struct {
	Engine simnet.Engine
	// ScheduleSeed seeds the delivery scramble under
	// simnet.ScheduleScramble's rule: async runs always scramble, event
	// runs only for a non-zero seed, sync runs never.
	ScheduleSeed int64
	Faults       *simnet.FaultPlan
	// MaxRounds and MaxDeliveries override the engine budgets (0 keeps the
	// engine default).
	MaxRounds     int
	MaxDeliveries int
	// Ctx, when set, makes the run cancellable mid-flight.
	Ctx context.Context
	// Reliable wraps the procs in the ack/retransmit layer, tuned by
	// ReliableOptions.
	Reliable        bool
	ReliableOptions reliable.Options
	// Phases, when set, records every send, delivery and retransmission
	// under its paper phase.
	Phases obs.Recorder
}

// Runner compiles the spec into engine options and picks ReliableRunner
// or EngineRunner.
func (s RunSpec) Runner() Runner {
	opts := []simnet.Option{simnet.ScheduleScramble(s.Engine, s.ScheduleSeed)}
	if s.Faults != nil {
		opts = append(opts, simnet.WithFaults(*s.Faults))
	}
	if s.MaxRounds > 0 {
		opts = append(opts, simnet.WithMaxRounds(s.MaxRounds))
	}
	if s.MaxDeliveries > 0 {
		opts = append(opts, simnet.WithMaxDeliveries(s.MaxDeliveries))
	}
	if s.Ctx != nil {
		opts = append(opts, simnet.WithContext(s.Ctx))
	}
	if s.Phases != nil {
		opts = append(opts, ObserveOption(s.Phases))
	}
	if !s.Reliable {
		return EngineRunner(s.Engine, opts...)
	}
	return ReliableRunner(s.Engine, s.ReliableOptions, opts...)
}
