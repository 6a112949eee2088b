package wcdsnet

import (
	"context"
	"math/rand"
	"testing"
)

// TestFullStack drives the complete system the way a deployment would:
// discover neighbours over the air, build the backbone with zero prior
// knowledge, route unicast traffic over the spanner, broadcast over the
// backbone, cluster the network, then keep everything valid while nodes
// move. Every stage is cross-checked against the centralized references.
func TestFullStack(t *testing.T) {
	nw, err := GenerateNetwork(77, 150, 11)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: neighbour discovery matches ground truth.
	tables1, _, err := DiscoverNeighbors(nw, 1, EngineSync)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nw.N(); v++ {
		if len(tables1[v].OneHop) != nw.G.Degree(v) {
			t.Fatalf("node %d discovered %d of %d neighbours", v, len(tables1[v].OneHop), nw.G.Degree(v))
		}
	}

	// Stage 2: zero-knowledge backbone equals the centralized reference.
	want, _ := mustRun(t, nw, AlgoII)
	res, _, err := Run(nw, AlgoII, ZeroKnowledge())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dominators) != len(want.Dominators) {
		t.Fatalf("zero-knowledge backbone %d != centralized %d", len(res.Dominators), len(want.Dominators))
	}
	if !IsWCDS(nw, res.Dominators) {
		t.Fatal("backbone is not a WCDS")
	}

	// Stage 3: routing over the spanner, bound-checked.
	resT, tabs, _, err := AlgorithmIIWithTables(nw)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(nw, resT, tabs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 300; q++ {
		src, dst := rng.Intn(nw.N()), rng.Intn(nw.N())
		path, err := router.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if h := nw.G.HopDist(src, dst); h > 0 && len(path)-1 > 3*h+2 {
			t.Fatalf("route %d→%d: %d hops > 3·%d+2", src, dst, len(path)-1, h)
		}
	}

	// Stage 4: backbone broadcast covers everyone and beats flooding.
	bb := BackboneBroadcast(nw, resT, tabs, 0)
	bf := BlindFlood(nw, 0)
	if !bb.Covered {
		t.Fatal("backbone broadcast did not cover the network")
	}
	if bb.Transmissions >= bf.Transmissions {
		t.Fatalf("backbone broadcast %d tx not cheaper than flooding %d tx",
			bb.Transmissions, bf.Transmissions)
	}

	// Stage 5: clustering around the MIS heads partitions the network with
	// radius 1.
	part, err := ClusterBy(nw, resT)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range part.Sizes() {
		total += s
	}
	if total != nw.N() || part.Radius(nw.G) > 1 {
		t.Fatalf("clustering invalid: covered %d, radius %d", total, part.Radius(nw.G))
	}

	// Stage 6: mobility maintenance keeps the invariants through churn.
	m, err := NewMaintainer(nw)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for ev := 0; ev < 60; ev++ {
		v := rng.Intn(nw.N())
		old := m.Network().Pos[v]
		rep, err := m.MoveNode(context.Background(), v, Point{X: old.X + rng.NormFloat64()*0.3, Y: old.Y + rng.NormFloat64()*0.3})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Connected {
			if _, err := m.MoveNode(context.Background(), v, old); err != nil {
				t.Fatal(err)
			}
			continue
		}
		applied++
		if err := m.Validate(); err != nil {
			t.Fatalf("event %d broke invariants: %v", ev, err)
		}
	}
	if applied == 0 {
		t.Fatal("no mobility events applied")
	}
}
