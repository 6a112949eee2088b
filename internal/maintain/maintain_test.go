package maintain

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/udg"
)

func newNetwork(t *testing.T, rng *rand.Rand, n int, deg float64) *udg.Network {
	t.Helper()
	nw, err := udg.GenConnectedAvgDegree(rng, n, deg, 300)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := New(newNetwork(t, rng, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh state invalid: %v", err)
	}
	if len(m.MISDominators()) == 0 || len(m.Dominators()) < len(m.MISDominators()) {
		t.Error("implausible dominator sets")
	}
}

func TestNewRequiresConnected(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}
	nw, err := udg.New(pos, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nw); err == nil {
		t.Error("expected error for disconnected network")
	}
}

func TestSmallMoveNoRoleChange(t *testing.T) {
	// A tiny jiggle that changes no edges must not change any roles.
	rng := rand.New(rand.NewSource(2))
	m, err := New(newNetwork(t, rng, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Dominators()
	v := 7
	p := m.Network().Pos[v]
	rep, err := m.MoveNode(context.Background(), v, geom.Point{X: p.X + 1e-9, Y: p.Y})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RoleChanged) != 0 || rep.AffectedRadius != 0 {
		t.Errorf("no-op move changed roles: %+v", rep)
	}
	after := m.Dominators()
	if len(before) != len(after) {
		t.Errorf("dominator count changed on no-op move: %d -> %d", len(before), len(after))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWaypointChurnKeepsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := newNetwork(t, rng, 80, 10)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	side := udg.SideForAvgDegree(80, 10)
	moves, applied := 0, 0
	for moves < 200 {
		moves++
		v := rng.Intn(nw.N())
		old := nw.Pos[v]
		target := geom.Point{
			X: old.X + rng.NormFloat64()*0.4,
			Y: old.Y + rng.NormFloat64()*0.4,
		}
		target = geom.Square(side).Clamp(target)
		rep, err := m.MoveNode(context.Background(), v, target)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Connected {
			// Roll back disconnecting moves; the WCDS guarantee needs a
			// connected graph.
			if _, err := m.MoveNode(context.Background(), v, old); err != nil {
				t.Fatal(err)
			}
			continue
		}
		applied++
		if err := m.Validate(); err != nil {
			t.Fatalf("after move %d: %v", moves, err)
		}
	}
	if applied < 50 {
		t.Fatalf("only %d of %d moves kept connectivity; test too weak", applied, moves)
	}
	t.Logf("applied %d/%d moves, final WCDS size %d", applied, moves, len(m.Dominators()))
}

func TestToggleOffOn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := newNetwork(t, rng, 70, 12)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	toggled := 0
	for trial := 0; trial < 40 && toggled < 15; trial++ {
		v := rng.Intn(nw.N())
		rep, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOff, Node: v}})
		if err != nil {
			continue
		}
		if !rep.Connected {
			// Switching this node off disconnects the graph: turn it back
			// on and move on.
			if _, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOn, Node: v}}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		toggled++
		if err := m.Validate(); err != nil {
			t.Fatalf("after switching off %d: %v", v, err)
		}
		if _, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOn, Node: v}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("after switching %d back on: %v", v, err)
		}
	}
	if toggled == 0 {
		t.Fatal("no node could be toggled without disconnecting; network too sparse for the test")
	}
}

// Switching off a MIS dominator demotes it: the report compares roles with
// the pre-epoch state, not with the mask the mutations left behind.
func TestSwitchedOffDominatorIsReported(t *testing.T) {
	m, err := New(newNetwork(t, rand.New(rand.NewSource(1)), 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	v := m.MISDominators()[1]
	rep, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOff, Node: v}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Demoted, v) || !slices.Contains(rep.RoleChanged, v) {
		t.Errorf("switched off MIS node %d: Demoted %v, RoleChanged %v; want it in both", v, rep.Demoted, rep.RoleChanged)
	}
}

// Switching a node off or on rejects a node out of range or already in
// the requested state.
func TestSetActiveErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := New(newNetwork(t, rng, 30, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOff, Node: 99}}); err == nil {
		t.Error("expected range error")
	}
	if _, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpOn, Node: 0}}); err == nil {
		t.Error("expected already-active error")
	}
	if _, err := m.MoveNode(context.Background(), -1, geom.Point{}); err == nil {
		t.Error("expected range error on move")
	}
}

func TestLocalityStatistics(t *testing.T) {
	// The paper claims repairs stay local (≈ within three hops). Our
	// measured radius covers MIS role flips AND connector reassignments;
	// record the distribution and assert the bulk is small.
	rng := rand.New(rand.NewSource(6))
	nw := newNetwork(t, rng, 100, 10)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	side := udg.SideForAvgDegree(100, 10)
	within3, total := 0, 0
	maxRadius := 0
	for ev := 0; ev < 150; ev++ {
		v := rng.Intn(nw.N())
		old := nw.Pos[v]
		target := geom.Square(side).Clamp(geom.Point{
			X: old.X + rng.NormFloat64()*0.5,
			Y: old.Y + rng.NormFloat64()*0.5,
		})
		rep, err := m.MoveNode(context.Background(), v, target)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Connected {
			if _, err := m.MoveNode(context.Background(), v, old); err != nil {
				t.Fatal(err)
			}
			continue
		}
		total++
		if rep.AffectedRadius >= 0 && rep.AffectedRadius <= 3 {
			within3++
		}
		if rep.AffectedRadius > maxRadius {
			maxRadius = rep.AffectedRadius
		}
	}
	if total == 0 {
		t.Fatal("no applicable moves")
	}
	frac := float64(within3) / float64(total)
	t.Logf("moves=%d within-3-hops=%.0f%% max radius=%d", total, 100*frac, maxRadius)
	if frac < 0.5 {
		t.Errorf("only %.0f%% of repairs stayed within 3 hops; locality claim badly violated", 100*frac)
	}
}
