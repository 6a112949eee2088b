package maintain

import (
	"context"
	"errors"
	"fmt"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
)

// Fault-tolerant epoch repair: the distributed repair protocol runs over
// the simnet kernel under a FaultPlan, optionally wrapped in the reliable
// ack/retransmit layer, with a three-rung escalation ladder so a session
// never serves a broken backbone:
//
//  1. Distributed repair over the lossy network, bounded retries (the
//     reliable layer's capped exponential backoff) and a round budget.
//     Each protocol attempt reseeds the fault plan — replaying the exact
//     same deterministic fault fates would make a retry pointless.
//  2. On budget exhaustion or Abandoned delivery (the reliable layer gave
//     up on a frame, so the result is untrustworthy), fall back to the
//     local-rule incremental repair seeded at the event sites.
//  3. On any invariant violation in the installed result, a full Fixpoint
//     rebuild replaces it; if even that fails to validate, the epoch
//     errors and the caller's snapshot rollback restores the pre-epoch
//     state.
//
// The outcome taxonomy mirrors internal/chaos: Converged means the served
// backbone equals the lossless Fixpoint reference for this epoch, Degraded
// means a valid backbone was served through a fallback (or a valid but
// tie-divergent protocol result), Violated means rung 3 had to rebuild.

// RepairPolicy selects and configures the per-epoch repair strategy.
// The zero value is the plain local worklist repair.
type RepairPolicy struct {
	// Distributed switches the MIS repair step from the local worklist
	// rules to the message-passing protocol of RepairMISDistributed.
	Distributed bool
	// Faults, when non-nil, is the fault plan the protocol runs under.
	// The plan's Seed is remixed per (epoch, attempt) so retries and
	// successive epochs see independent fault streams.
	Faults *simnet.FaultPlan
	// Reliable wraps the protocol in the ack/retransmit layer; without it
	// a lossy run can quiesce with nodes still waiting on lost beacons,
	// which rung 3 then detects as an invariant violation.
	Reliable bool
	// MaxRetries bounds the reliable layer's retransmissions per frame
	// (0 = the layer's default of 25).
	MaxRetries int
	// MaxRounds is the engine quiescence budget per protocol attempt
	// (0 = a fault-tolerant default far above the lossless bound).
	MaxRounds int
	// Engine selects the simulation engine the protocol runs on
	// (EngineSync, EngineAsync or EngineEvent; the zero value is
	// EngineSync).
	Engine simnet.Engine
}

// repairAttempts bounds full protocol runs per epoch before the ladder
// escalates to the local rules (rung 1's retry budget).
const repairAttempts = 2

// Repair modes reported in RepairInfo.Mode: which strategy produced the
// installed backbone.
const (
	RepairModeLocal       = "local"
	RepairModeDistributed = "distributed"
	RepairModeFixpoint    = "fixpoint"
)

// Outcome classifies how an epoch's repair concluded, mirroring the
// Converged/Degraded/Violated taxonomy of internal/chaos.
type Outcome uint8

const (
	// Converged: the served backbone equals the lossless Fixpoint
	// reference computed from the same pre-repair state.
	Converged Outcome = iota + 1
	// Degraded: a valid backbone is served, but through a fallback — the
	// protocol exhausted its fault budget and the local rules took over,
	// or it completed with a valid MIS that differs from the reference on
	// ties. Degraded epochs are honest: the event stream labels them.
	Degraded
	// Violated: the installed result broke an invariant and the full
	// Fixpoint rebuild (rung 3) replaced it before serving.
	Violated
)

func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case Degraded:
		return "degraded"
	case Violated:
		return "violated"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RepairInfo reports how one epoch's repair ran: the strategy that produced
// the served backbone, the outcome taxonomy, and the fault-tolerance cost.
type RepairInfo struct {
	// Mode is the strategy whose result was installed: "local",
	// "distributed" or "fixpoint".
	Mode string
	// Outcome classifies the epoch per the chaos taxonomy.
	Outcome Outcome
	// Attempts counts distributed protocol runs (0 under the plain local
	// policy).
	Attempts int
	// Escalations counts ladder rungs climbed beyond the first (1 = local
	// fallback, 2 = local fallback plus fixpoint rebuild).
	Escalations int
	// Messages, Retransmits and Abandoned aggregate the protocol cost
	// across all attempts.
	Messages    int
	Retransmits int
	Abandoned   int
	// RoundEstimate is the largest logical round extent any attempt
	// reached (sync rounds, or the async Lamport estimate).
	RoundEstimate int
}

// SetRepairPolicy installs the repair policy for subsequent epochs.
func (m *Maintainer) SetRepairPolicy(p RepairPolicy) { m.policy = p }

// RepairPolicy returns the currently installed policy.
func (m *Maintainer) RepairPolicy() RepairPolicy { return m.policy }

// repairLadder is the distributed path of the escalation ladder described
// at the top of this file. It mutates m.inMIS to the repaired (validated)
// MIS and returns the promotion/demotion diff against the post-mutation,
// pre-repair mask. Any returned error leaves state for the caller
// (ApplyEpoch) to roll back.
func (m *Maintainer) repairLadder(ctx context.Context, seeds []int) (promoted, demoted []int, info RepairInfo, err error) {
	g := m.nw.G
	m.repairEpochs++
	info.Mode = RepairModeDistributed

	// The post-mutation, pre-repair membership: every attempt starts from
	// it, and the lossless Fixpoint reference is computed from it.
	pre := append([]bool(nil), m.inMIS...)
	var set []int
	ok := false
	for a := 1; a <= repairAttempts; a++ {
		info.Attempts = a
		res, st, rerr := m.runRepairProtocol(ctx, g, pre, a)
		info.Messages += st.Messages
		info.Retransmits += st.Retransmits
		info.Abandoned += st.Abandoned
		if st.RoundEstimate > info.RoundEstimate {
			info.RoundEstimate = st.RoundEstimate
		}
		m.RepairMessages += st.Messages
		if rerr != nil {
			if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
				return nil, nil, info, fmt.Errorf("maintain: distributed repair interrupted: %w", rerr)
			}
			// Budget exhausted under faults (rung 1 retry): the reseeded
			// plan gives the next attempt fresh fault fates.
			continue
		}
		if st.Abandoned > 0 {
			// The reliable layer gave up on frames; some node acted on a
			// permanently incomplete neighbourhood view.
			continue
		}
		set = res
		ok = true
		break
	}

	if ok {
		for i := range m.inMIS {
			m.inMIS[i] = false
		}
		for _, v := range set {
			if m.active[v] {
				m.inMIS[v] = true
			}
		}
	} else {
		// Rung 2: the protocol could not complete trustworthily within
		// its budget; the deterministic local rules repair from the same
		// pre-repair state, seeded at the event sites.
		info.Escalations++
		info.Mode = RepairModeLocal
		if _, _, werr := repairWorklist(ctx, g, m.nw.ID, m.inMIS, m.active, seeds, &m.sc.wl); werr != nil {
			return nil, nil, info, werr
		}
	}

	// Rung 3 gate: validate the installed MIS. A lossy run without the
	// reliable layer can quiesce "successfully" while nodes still wait on
	// beacons that were dropped — the only honest signal is the invariant
	// check. A violation triggers the full rebuild; a broken backbone is
	// never served.
	if verr := misInvariants(g, m.inMIS, m.active); verr != nil {
		info.Escalations++
		info.Mode = RepairModeFixpoint
		info.Outcome = Violated
		fixed, ferr := Fixpoint(ctx, g, m.nw.ID, pre, m.active)
		if ferr != nil {
			return nil, nil, info, ferr
		}
		copy(m.inMIS, fixed)
		if verr := misInvariants(g, m.inMIS, m.active); verr != nil {
			return nil, nil, info, fmt.Errorf("maintain: fixpoint rebuild still invalid: %w", verr)
		}
	} else if info.Outcome == 0 {
		// Classify against the lossless reference: identical means the
		// fault-bearing run converged exactly; a valid but tie-divergent
		// result (or the rung-2 fallback) is served as Degraded. The
		// reference is the local worklist seeded at the event sites, which
		// reaches Fixpoint's result (the plain path relies on the same
		// equality) without sweeping every slot.
		if info.Escalations > 0 {
			info.Outcome = Degraded
		} else {
			want := append(m.sc.want[:0], pre...)
			m.sc.want = want
			if _, _, werr := repairWorklist(ctx, g, m.nw.ID, want, m.active, seeds, &m.sc.wl); werr != nil {
				return nil, nil, info, werr
			}
			info.Outcome = Converged
			for v := range m.inMIS {
				if m.inMIS[v] != want[v] {
					info.Outcome = Degraded
					break
				}
			}
		}
	}

	for v := range m.inMIS {
		switch {
		case m.inMIS[v] && !pre[v]:
			promoted = append(promoted, v)
		case !m.inMIS[v] && pre[v]:
			demoted = append(demoted, v)
		}
	}
	return promoted, demoted, info, nil
}

// runRepairProtocol executes one rung-1 protocol attempt: the repair procs,
// optionally wrapped in the reliable layer, on the configured engine under
// the (reseeded) fault plan. The session recorder observes the run so
// repair-phase spans carry message counts and round extents.
func (m *Maintainer) runRepairProtocol(ctx context.Context, g *graph.Graph, pre []bool, attempt int) ([]int, simnet.Stats, error) {
	maxRounds := m.policy.MaxRounds
	if maxRounds <= 0 {
		// Far above the lossless bound: retransmission under heavy loss
		// legitimately burns quiescence ticks on backoff.
		maxRounds = 200*g.N() + 4000
	}
	opts := []simnet.Option{
		simnet.WithContext(ctx),
		simnet.WithMaxRounds(maxRounds),
		simnet.WithObserver(m.rec, func(any) string { return "repair" }),
	}
	if m.policy.Faults != nil {
		plan := *m.policy.Faults
		plan.Seed = remixSeed(plan.Seed, int64(m.repairEpochs), int64(attempt))
		opts = append(opts, simnet.WithFaults(plan))
	}
	set, _, st, err := RepairMISDistributed(g, m.nw.ID, pre,
		func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
			var col *reliable.Collector
			if m.policy.Reliable {
				procs, col = reliable.Wrap(procs, reliable.Options{MaxRetries: m.policy.MaxRetries})
			}
			st, rerr := m.policy.Engine.Run(g, procs, opts...)
			if col != nil {
				col.MergeInto(&st)
			}
			return st, rerr
		})
	return set, st, err
}

// misInvariants checks the two MIS invariants cheaply (no connectivity
// BFS): independence among active dominators and domination of every
// active node. This is the rung-3 gate; the full Validate (including the
// weakly-induced connectivity of the WCDS) stays available to callers.
func misInvariants(g *graph.Graph, inMIS, active []bool) error {
	for v := 0; v < g.N(); v++ {
		if !active[v] {
			continue
		}
		if inMIS[v] {
			for _, w := range g.Neighbors(v) {
				if inMIS[w] && active[w] && w > v {
					return fmt.Errorf("maintain: adjacent dominators %d and %d", v, w)
				}
			}
		} else if !hasMISNeighbor(g, inMIS, v) {
			return fmt.Errorf("maintain: active node %d undominated", v)
		}
	}
	return nil
}

// remixSeed derives an independent fault-stream seed for one (epoch,
// attempt) pair from the plan's base seed (splitmix64-style finalizer).
func remixSeed(seed, epoch, attempt int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(epoch+1) + 0xbf58476d1ce4e5b9*uint64(attempt)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
