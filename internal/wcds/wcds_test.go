package wcds

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/udg"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// familyScenes draws, from seed, one connected 80-node scene of average
// degree 8 from each non-uniform unit-disk family, keyed by kind: the
// inputs that carry a property test over uniform scenes to clustered,
// corridor and annulus deployments.
func familyScenes(t *testing.T, seed int64) map[string]*udg.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scenes := map[string]*udg.Network{}
	for _, kind := range []string{"clusters", "corridor", "annulus"} {
		nw, err := udg.Topology{Kind: kind}.GenConnected(rng, 80, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		scenes[kind] = nw
	}
	return scenes
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWeaklyInduced(t *testing.T) {
	// Figure 2 style: path 0-1-2-3 with set {1}: black edges are {0,1} and
	// {1,2}; edge {2,3} is white.
	g := pathGraph(t, 4)
	h := WeaklyInduced(g, []int{1})
	if h.N() != 4 {
		t.Fatalf("weakly induced subgraph must keep all nodes, got %d", h.N())
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Error("black edges missing")
	}
	if h.HasEdge(2, 3) {
		t.Error("white edge {2,3} must not be included")
	}
	if h.Connected() {
		t.Error("node 3 is isolated in the weakly induced subgraph")
	}
}

func TestWeaklyInducedFullSet(t *testing.T) {
	g := pathGraph(t, 5)
	h := WeaklyInduced(g, []int{0, 1, 2, 3, 4})
	if h.M() != g.M() {
		t.Errorf("full set should induce all edges: %d vs %d", h.M(), g.M())
	}
}

func TestWeaklyInducedEmptySet(t *testing.T) {
	g := pathGraph(t, 3)
	h := WeaklyInduced(g, nil)
	if h.M() != 0 {
		t.Errorf("empty set should induce no edges, got %d", h.M())
	}
}

func TestIsWCDS(t *testing.T) {
	// Path 0-1-2-3-4-5-6: {1, 4} dominates? 0,2 by 1; 3,5 by 4; 6 by...
	// 6's neighbour is 5, not in set — not dominating. Use {1,3,5}:
	// dominating, and black edges 0-1,1-2,2-3,3-4,4-5,5-6 connect all.
	g := pathGraph(t, 7)
	tests := []struct {
		name string
		set  []int
		want bool
	}{
		{name: "odd nodes WCDS", set: []int{1, 3, 5}, want: true},
		{name: "non-dominating", set: []int{1, 4}, want: false},
		// {0,3,6} dominates, but edges 1-2 and 4-5 have no endpoint in the
		// set, splitting the weakly induced subgraph into three pieces.
		{name: "dominating but weakly disconnected", set: []int{0, 3, 6}, want: false},
		{name: "empty set", set: nil, want: false},
		{name: "full set", set: []int{0, 1, 2, 3, 4, 5, 6}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsWCDS(g, tt.set); got != tt.want {
				t.Errorf("IsWCDS(%v) = %v, want %v", tt.set, got, tt.want)
			}
		})
	}
}

func TestIsWCDSWeaklyDisconnected(t *testing.T) {
	// Path 0..7 with set {0, 4}: dominates 1, 3, 5 but not 2, 6, 7 — and
	// even set {0, 3, 7} dominates 1,2,4,6 but leaves node 5 undominated.
	// For a genuine "dominating yet weakly disconnected" witness use two
	// stars joined by a 2-path through non-dominators:
	// 0-1, 1-2, 2-3, 3-4 with set {0, 4}? 2 is undominated.
	// A dominating set whose weakly induced graph is disconnected cannot
	// exist on a path with gaps < 3; use gap exactly 3 on a 4-path:
	// 0-1-2-3, set {0,3}: dominates 1,2; black edges 0-1 and 2-3 — the
	// weakly induced subgraph is disconnected (no 1-2 black edge? 1-2 has
	// neither endpoint in the set). Exactly the counterexample.
	g := pathGraph(t, 4)
	if IsWCDS(g, []int{0, 3}) {
		t.Error("{0,3} on the 4-path dominates but is not weakly connected")
	}
}

func TestIsWCDSDegenerate(t *testing.T) {
	if !IsWCDS(graph.New(0), nil) {
		t.Error("empty graph: empty set is a WCDS")
	}
	if !IsWCDS(graph.New(1), []int{0}) {
		t.Error("single node with itself as dominator is a WCDS")
	}
}
