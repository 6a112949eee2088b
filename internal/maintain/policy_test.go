package maintain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// churnMutations builds one epoch of 1..3 move mutations (moves only, so the
// pre-epoch InMIS mask is directly comparable to the post-epoch fixpoint
// reference without join padding).
func churnMutations(rng *rand.Rand, m *Maintainer, side float64) []Mutation {
	count := 1 + rng.Intn(3)
	muts := make([]Mutation, 0, count)
	used := map[int]bool{}
	for len(muts) < count {
		v := rng.Intn(m.Network().N())
		if used[v] {
			continue
		}
		used[v] = true
		old := m.Network().Pos[v]
		muts = append(muts, Mutation{Op: OpMove, Node: v, Pos: geom.Square(side).Clamp(
			geom.Point{X: old.X + rng.NormFloat64()*0.4, Y: old.Y + rng.NormFloat64()*0.4})})
	}
	return muts
}

// TestRepairLadderConvergedMatchesFixpoint is the core ladder property: under
// a lossy plan with the reliable layer, every epoch labelled Converged must
// have installed exactly the lossless Fixpoint of its pre-repair state, and
// no epoch may be Violated.
func TestRepairLadderConvergedMatchesFixpoint(t *testing.T) {
	// check runs 8 epochs of moves, each kept inside [0,side]².
	check := func(scene string, rng *rand.Rand, nw *udg.Network, side float64, plan simnet.FaultPlan) {
		m, err := New(nw)
		if err != nil {
			t.Fatal(err)
		}
		m.SetRepairPolicy(RepairPolicy{Distributed: true, Faults: &plan, Reliable: true})
		for e := 0; e < 8; e++ {
			pre := m.InMIS()
			rep, err := m.ApplyEpoch(context.Background(), churnMutations(rng, m, side))
			if err != nil {
				t.Fatalf("%s epoch %d: %v", scene, e, err)
			}
			if rep.Repair.Outcome == Violated {
				t.Fatalf("%s epoch %d: violated under the reliable layer", scene, e)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s epoch %d: served invalid backbone: %v", scene, e, err)
			}
			if rep.Repair.Outcome != Converged {
				continue
			}
			want, err := Fixpoint(context.Background(), nw.G, nw.ID, pre, m.ActiveMask())
			if err != nil {
				t.Fatal(err)
			}
			got := m.InMIS()
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s epoch %d: converged but differs from lossless fixpoint at node %d", scene, e, v)
				}
			}
		}
	}
	for _, drop := range []float64{0.1, 0.3} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nw := newNetwork(t, rng, 50, 8)
			check(fmt.Sprintf("drop=%g seed=%d", drop, seed), rng, nw, udg.SideForAvgDegree(50, 8),
				simnet.FaultPlan{Seed: seed, DropRate: drop, ReorderRate: 0.2, DupRate: 0.05})
		}
	}
	for _, kind := range []string{"clusters", "corridor", "annulus"} {
		rng := rand.New(rand.NewSource(7))
		nw, err := udg.Topology{Kind: kind}.GenConnected(rng, 50, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		side := 0.0
		for _, p := range nw.Pos {
			side = max(side, p.X, p.Y)
		}
		check(kind, rng, nw, side, simnet.FaultPlan{Seed: 7, DropRate: 0.1, ReorderRate: 0.2, DupRate: 0.05})
	}
}

// TestRepairLadderEscalatesToLocal starves the protocol budget so rung 1
// cannot complete: the ladder must fall back to the local rules and label the
// epoch Degraded, never serve an invalid backbone, and never error.
func TestRepairLadderEscalatesToLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := newNetwork(t, rng, 60, 8)
	side := udg.SideForAvgDegree(60, 8)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRepairPolicy(RepairPolicy{
		Distributed: true,
		Faults:      &simnet.FaultPlan{Seed: 11, DropRate: 0.3},
		Reliable:    true,
		MaxRounds:   1, // impossible budget: force rung-1 exhaustion
	})
	sawFallback := false
	for e := 0; e < 6; e++ {
		rep, err := m.ApplyEpoch(context.Background(), churnMutations(rng, m, side))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("epoch %d: invalid backbone after fallback: %v", e, err)
		}
		ri := rep.Repair
		if ri.Mode == RepairModeLocal && ri.Outcome == Degraded && ri.Escalations >= 1 {
			sawFallback = true
			if ri.Attempts != 2 {
				t.Errorf("epoch %d: expected 2 exhausted attempts, got %d", e, ri.Attempts)
			}
		}
		if ri.Outcome == Violated {
			t.Fatalf("epoch %d: local fallback must not violate", e)
		}
	}
	if !sawFallback {
		t.Fatal("no epoch escalated to the local fallback despite a 1-round budget")
	}
}

// TestRepairLadderUnreliableViolationsDetected runs heavy loss WITHOUT the
// reliable layer: the protocol can quiesce incomplete, and the only
// correctness claim is rung 3's — a violation is detected, rebuilt, labelled,
// and the served backbone is still always valid.
func TestRepairLadderUnreliableViolationsDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := newNetwork(t, rng, 60, 8)
	side := udg.SideForAvgDegree(60, 8)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRepairPolicy(RepairPolicy{
		Distributed: true,
		Faults:      &simnet.FaultPlan{Seed: 7, DropRate: 0.5},
	})
	for e := 0; e < 10; e++ {
		rep, err := m.ApplyEpoch(context.Background(), churnMutations(rng, m, side))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("epoch %d: rung 3 let an invalid backbone through: %v", e, err)
		}
		if rep.Repair.Outcome == Violated && rep.Repair.Mode != RepairModeFixpoint {
			t.Fatalf("epoch %d: violated outcome but mode %q", e, rep.Repair.Mode)
		}
	}
}

// TestRepairLadderCancellationRollsBack cancels mid-epoch: ApplyEpoch must
// return a context error and leave the pre-epoch state intact and valid.
func TestRepairLadderCancellationRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nw := newNetwork(t, rng, 60, 8)
	side := udg.SideForAvgDegree(60, 8)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRepairPolicy(RepairPolicy{
		Distributed: true,
		Faults:      &simnet.FaultPlan{Seed: 21, DropRate: 0.3},
		Reliable:    true,
	})
	before := m.InMIS()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.ApplyEpoch(ctx, churnMutations(rng, m, side))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled epoch returned %v, want context.Canceled", err)
	}
	after := m.InMIS()
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("rollback left node %d's role changed", v)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("state invalid after rollback: %v", err)
	}
	// The maintainer must remain usable: a fresh epoch applies cleanly.
	if _, err := m.ApplyEpoch(context.Background(), churnMutations(rng, m, side)); err != nil {
		t.Fatalf("epoch after cancellation: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRemixSeedIndependence: distinct (epoch, attempt) pairs must draw
// distinct fault streams, or retries replay the exact failure they are
// retrying against.
func TestRemixSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for epoch := int64(0); epoch < 50; epoch++ {
		for attempt := int64(1); attempt <= 3; attempt++ {
			s := remixSeed(42, epoch, attempt)
			if seen[s] {
				t.Fatalf("seed collision at epoch=%d attempt=%d", epoch, attempt)
			}
			seen[s] = true
		}
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{Converged: "converged", Degraded: "degraded", Violated: "violated"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}
