package chaos

import (
	"context"
	"fmt"
	"math/rand"

	"wcdsnet/internal/maintain"
	"wcdsnet/internal/session"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// Churn-under-faults sweep: seeded delta streams replayed through streaming
// topology sessions whose per-epoch repair runs the distributed protocol
// over a lossy simnet. Each cell of the (drop rate × seed) grid replays the
// same kind of churn trace cmd/churn generates — moves, leaves, rejoins,
// brand-new joins — and audits every epoch independently of the session's
// own labels:
//
//   - the maintained invariants must hold after every epoch;
//   - an epoch the session labels "converged" must have produced exactly
//     the lossless Fixpoint backbone (the sweep recomputes it);
//   - an epoch labelled "violated" means rung 3 had to rebuild — counted
//     as a violation, because under the reliable layer the ladder should
//     never get there.
//
// Degraded epochs are expected and healthy: they are the ladder saying,
// honestly, that it fell back. Only violations fail the sweep.

// ChurnConfig parameterizes a churn-under-faults sweep.
type ChurnConfig struct {
	// Seeds is the number of replays per drop rate.
	Seeds int
	// BaseSeed offsets the trace RNG so sweeps are reproducible.
	BaseSeed int64
	// N and AvgDegree shape the generated networks.
	N         int
	AvgDegree float64
	// Epochs is the length of each replayed delta stream.
	Epochs int
	// DropRates is the fault grid; each rate becomes a FaultPlan with that
	// drop probability plus mild reordering and duplication.
	DropRates []float64
	// Reliable wraps the repair protocol in the ack/retransmit layer.
	Reliable bool
	// MaxRetries and MaxRounds tune the reliable layer and the per-attempt
	// engine budget (0 = defaults).
	MaxRetries int
	MaxRounds  int
	// Engine is the simulation engine the repair protocol runs on (the
	// zero value is EngineSync).
	Engine simnet.Engine
}

func (cfg ChurnConfig) withDefaults() ChurnConfig {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	if cfg.N <= 0 {
		cfg.N = 60
	}
	if cfg.AvgDegree <= 0 {
		cfg.AvgDegree = 8
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 12
	}
	if len(cfg.DropRates) == 0 {
		cfg.DropRates = []float64{0.1, 0.3}
	}
	return cfg
}

// ChurnCell is the verdict of one (drop rate, seed) replay.
type ChurnCell struct {
	DropRate float64
	Seed     int64
	// Epochs counts applied epochs; Converged/Degraded/Violated partition
	// them by audited outcome.
	Epochs    int
	Converged int
	Degraded  int
	Violated  int
	// Retries, Escalations and Messages aggregate the repair cost the
	// event stream reported across the replay.
	Retries     int
	Escalations int
	Messages    int
	// Detail describes the first violation ("" when the cell is clean).
	Detail string
}

// ChurnReport aggregates a sweep.
type ChurnReport struct {
	Cells      []ChurnCell
	Epochs     int
	Converged  int
	Degraded   int
	Violations int
}

// Failed reports whether any epoch anywhere violated the audit.
func (r *ChurnReport) Failed() bool { return r.Violations > 0 }

// Summary renders a one-line sweep verdict.
func (r *ChurnReport) Summary() string {
	return fmt.Sprintf("%d cells, %d epochs: %d converged, %d degraded (served via fallback), %d VIOLATIONS",
		len(r.Cells), r.Epochs, r.Converged, r.Degraded, r.Violations)
}

// RunChurn executes the sweep described by cfg.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	cfg = cfg.withDefaults()
	rep := &ChurnReport{}
	for _, rate := range cfg.DropRates {
		for i := 0; i < cfg.Seeds; i++ {
			seed := cfg.BaseSeed + int64(i)
			cell, err := runChurnCell(seed, rate, cfg)
			if err != nil {
				return rep, fmt.Errorf("chaos: churn drop=%g seed=%d: %w", rate, seed, err)
			}
			rep.Cells = append(rep.Cells, cell)
			rep.Epochs += cell.Epochs
			rep.Converged += cell.Converged
			rep.Degraded += cell.Degraded
			rep.Violations += cell.Violated
		}
	}
	return rep, nil
}

// runChurnCell replays one seeded delta stream through a fault-bearing
// session and audits every epoch.
func runChurnCell(seed int64, rate float64, cfg ChurnConfig) (ChurnCell, error) {
	rng := rand.New(rand.NewSource(seed))
	nw, err := udg.GenConnectedAvgDegree(rng, cfg.N, cfg.AvgDegree, 300)
	if err != nil {
		return ChurnCell{}, fmt.Errorf("network generation: %w", err)
	}
	plan := simnet.FaultPlan{
		Seed:        seed,
		DropRate:    rate,
		ReorderRate: 0.2,
		DupRate:     0.05,
	}
	sess, err := session.New(fmt.Sprintf("churn-%d-%g", seed, rate), nw, session.Config{
		Repair: maintain.RepairPolicy{
			Distributed: true,
			Faults:      &plan,
			Reliable:    cfg.Reliable,
			MaxRetries:  cfg.MaxRetries,
			MaxRounds:   cfg.MaxRounds,
			Engine:      cfg.Engine,
		},
	})
	if err != nil {
		return ChurnCell{}, err
	}
	defer sess.Close(nil)

	cell := ChurnCell{DropRate: rate, Seed: seed}
	m := sess.Maintainer()
	ctx := context.Background()
	churnRNG := rand.New(rand.NewSource(seed * 7919))
	for e := 0; e < cfg.Epochs; e++ {
		pre := m.InMIS() // pre-epoch mask: the audit's reference start
		deltas := churnEpoch(churnRNG, sess)
		ev, err := sess.Apply(ctx, deltas)
		if err != nil {
			return cell, fmt.Errorf("epoch %d: %w", e, err)
		}
		cell.Epochs++
		if ev.Repair != nil {
			cell.Retries += ev.Repair.Retries
			cell.Escalations += ev.Repair.Escalations
			cell.Messages += ev.Repair.Messages
		}
		violation := auditEpoch(ctx, m, pre, ev)
		switch {
		case violation != "":
			cell.Violated++
			if cell.Detail == "" {
				cell.Detail = fmt.Sprintf("epoch %d: %s", e, violation)
			}
		case ev.Repair != nil && ev.Repair.Outcome == "converged":
			cell.Converged++
		default:
			cell.Degraded++
		}
	}
	return cell, nil
}

// auditEpoch re-checks one applied epoch independently of the session's
// labels: invariants must hold, a "violated" label is itself a violation,
// and a "converged" label must match the recomputed lossless Fixpoint.
func auditEpoch(ctx context.Context, m *maintain.Maintainer, pre []bool, ev session.Event) string {
	if err := m.Validate(); err != nil {
		return fmt.Sprintf("served backbone invalid: %v", err)
	}
	if ev.Repair == nil {
		return "event carries no repair field"
	}
	if ev.Repair.Outcome == "violated" {
		return "repair reported an invariant violation (rung 3 rebuild)"
	}
	if ev.Repair.Outcome != "converged" {
		return ""
	}
	// Joins appended nodes since the pre-epoch mask was captured; pad with
	// non-members. Off nodes keep a stale true bit in pre, which Fixpoint
	// clears against the active mask, so the padded pre-epoch mask reaches
	// the same fixpoint the post-mutation pre-repair mask does.
	nw := m.Network()
	for len(pre) < nw.N() {
		pre = append(pre, false)
	}
	want, err := maintain.Fixpoint(ctx, nw.G, nw.ID, pre, m.ActiveMask())
	if err != nil {
		return fmt.Sprintf("fixpoint reference: %v", err)
	}
	got := m.InMIS()
	for v := range got {
		if got[v] != want[v] {
			return fmt.Sprintf("converged epoch differs from lossless fixpoint at node %d", v)
		}
	}
	return ""
}

// churnEpoch builds one epoch of 1..4 valid deltas against the session's
// current state (the same mix cmd/churn replays): mostly moves, some
// leaves, rejoins and brand-new joins near existing nodes.
func churnEpoch(rng *rand.Rand, sess *session.Session) []session.Delta {
	m := sess.Maintainer()
	nw := m.Network()
	var on, off []int
	for v, a := range m.ActiveMask() {
		if a {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	count := 1 + rng.Intn(4)
	used := map[int]bool{}
	var out []session.Delta
	for len(out) < count {
		switch k := rng.Intn(10); {
		case k < 6 && len(on) > 0: // move
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			p := nw.Pos[v]
			out = append(out, session.Delta{Op: session.OpMove, Node: &v,
				X: p.X + rng.NormFloat64()*0.4, Y: p.Y + rng.NormFloat64()*0.4})
		case k < 8 && len(on) > 1: // leave
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, session.Delta{Op: session.OpLeave, Node: &v})
		case k < 9 && len(off) > 0: // rejoin
			v := off[rng.Intn(len(off))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, session.Delta{Op: session.OpJoin, Node: &v})
		default: // brand-new node near an existing one
			anchor := nw.Pos[rng.Intn(nw.N())]
			out = append(out, session.Delta{Op: session.OpJoin,
				X: anchor.X + rng.NormFloat64()*0.3, Y: anchor.Y + rng.NormFloat64()*0.3})
		}
	}
	return out
}
