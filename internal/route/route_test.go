package route

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// buildBackbone runs Algorithm II (deferred, sync) on a random connected
// UDG and returns everything the router needs.
func buildBackbone(t *testing.T, rng *rand.Rand, n int, deg float64) (*udg.Network, wcds.Result, []wcds.Tables) {
	t.Helper()
	nw, err := udg.GenConnectedAvgDegree(rng, n, deg, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	return nw, res, tables
}

func TestRouterRoutesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		nw, res, tables := buildBackbone(t, rng, 40+rng.Intn(60), 7)
		r, err := NewRouter(nw.G, nw.ID, res, tables)
		if err != nil {
			t.Fatal(err)
		}
		inSpanner := res.Spanner
		for src := 0; src < nw.N(); src++ {
			hops, _ := nw.G.BFS(src)
			for dst := 0; dst < nw.N(); dst++ {
				path, err := r.Route(src, dst)
				if err != nil {
					t.Fatalf("trial %d: Route(%d,%d): %v", trial, src, dst, err)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("path %v does not join %d and %d", path, src, dst)
				}
				// Every step must be a real radio link; non-direct routes
				// must stay on black (spanner) edges.
				for i := 1; i < len(path); i++ {
					if !nw.G.HasEdge(path[i-1], path[i]) {
						t.Fatalf("path %v uses non-edge %d-%d", path, path[i-1], path[i])
					}
					if len(path) > 2 && !inSpanner.HasEdge(path[i-1], path[i]) {
						t.Fatalf("path %v leaves the spanner at %d-%d", path, path[i-1], path[i])
					}
				}
				// Theorem 11 operational form: at most 3·h + 2 hops.
				if h := hops[dst]; h > 0 && len(path)-1 > 3*h+2 {
					t.Fatalf("route %d→%d uses %d hops, G needs %d (bound %d)",
						src, dst, len(path)-1, h, 3*h+2)
				}
			}
		}
	}
}

func TestRouterTrivialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nw, res, tables := buildBackbone(t, rng, 30, 8)
	r, err := NewRouter(nw.G, nw.ID, res, tables)
	if err != nil {
		t.Fatal(err)
	}
	if path, err := r.Route(3, 3); err != nil || len(path) != 1 || path[0] != 3 {
		t.Errorf("self route = %v, %v", path, err)
	}
	// Adjacent pair: direct hop.
	u := 0
	v := nw.G.Neighbors(0)[0]
	if path, err := r.Route(u, v); err != nil || len(path) != 2 {
		t.Errorf("adjacent route = %v, %v", path, err)
	}
	if _, err := r.Route(-1, 2); err == nil {
		t.Error("expected range error")
	}
}

func TestClusterheadAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, res, tables := buildBackbone(t, rng, 50, 8)
	r, err := NewRouter(nw.G, nw.ID, res, tables)
	if err != nil {
		t.Fatal(err)
	}
	isMIS := make(map[int]bool)
	for _, d := range res.MISDominators {
		isMIS[d] = true
	}
	for v := 0; v < nw.N(); v++ {
		ch := r.Clusterhead(v)
		if !isMIS[ch] {
			t.Fatalf("clusterhead of %d is %d, not an MIS dominator", v, ch)
		}
		if v != ch && !nw.G.HasEdge(v, ch) {
			t.Fatalf("clusterhead %d of %d is not adjacent", ch, v)
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	if _, err := NewRouter(g, []int{0, 1, 2}, wcds.Result{}, nil); err == nil {
		t.Error("expected error for missing tables")
	}
}

func TestBroadcastCoversAndSaves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		nw, res, tables := buildBackbone(t, rng, 80+rng.Intn(120), 12)
		relay := RelaySet(nw.G, nw.ID, res, tables)
		src := rng.Intn(nw.N())
		backbone := Broadcast(nw.G, relay, src)
		if !backbone.Covered {
			t.Fatalf("trial %d: backbone broadcast failed to cover the network", trial)
		}
		blind := BlindFlood(nw.G, src)
		if !blind.Covered {
			t.Fatalf("trial %d: blind flood failed (graph disconnected?)", trial)
		}
		if blind.Transmissions != nw.N() {
			t.Fatalf("trial %d: blind flood transmissions = %d, want n = %d",
				trial, blind.Transmissions, nw.N())
		}
		if backbone.Transmissions >= blind.Transmissions {
			t.Errorf("trial %d: backbone broadcast (%d tx) no cheaper than flooding (%d tx)",
				trial, backbone.Transmissions, blind.Transmissions)
		}
		t.Logf("trial %d: n=%d relays=%d backboneTx=%d blindTx=%d",
			trial, nw.N(), backbone.RelaySetSize, backbone.Transmissions, blind.Transmissions)
	}
}

func TestBroadcastFromEverySource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw, res, tables := buildBackbone(t, rng, 60, 8)
	relay := RelaySet(nw.G, nw.ID, res, tables)
	for src := 0; src < nw.N(); src++ {
		if rep := Broadcast(nw.G, relay, src); !rep.Covered {
			t.Fatalf("broadcast from %d did not cover the network", src)
		}
	}
}
