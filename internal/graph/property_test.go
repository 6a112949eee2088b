package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Cross-metric invariants that every shortest-path implementation must
// satisfy against the others.

func TestPathMetricsConsistencyQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%30
		g := New(n)
		for i := 1; i < n; i++ {
			_ = g.AddEdge(i, rng.Intn(i))
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		w := func(u, v int) float64 {
			// Deterministic pseudo-weights from the endpoints.
			return 1 + float64((u*31+v*17)%97)/97 + float64((v*31+u*17)%97)/97
		}
		src := rng.Intn(n)
		bfs, _ := g.BFS(src)
		dij, _ := g.Dijkstra(src, w)
		minH, minL, _ := g.MinHopMinLength(src, w)
		maxH, maxL := g.MaxHopMinHopPath(src, w)
		for v := 0; v < n; v++ {
			// Hop counts agree across all three computations.
			if minH[v] != bfs[v] || maxH[v] != bfs[v] {
				return false
			}
			if bfs[v] == Unreachable {
				continue
			}
			// Weighted shortest ≤ min-hop-min-length ≤ min-hop-max-length.
			if dij[v] > minL[v]+1e-9 {
				return false
			}
			if minL[v] > maxL[v]+1e-9 {
				return false
			}
			// Any path length is at least hops × min edge weight (1 here).
			if minL[v]+1e-9 < float64(bfs[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEdgesRoundTripQuick(t *testing.T) {
	// FromEdges(Edges()) reproduces the graph exactly.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%30
		g := New(n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		h, err := FromEdges(n, g.Edges())
		if err != nil {
			return false
		}
		if h.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDijkstraNoNegativeSurprises(t *testing.T) {
	// Distances are monotone along parent chains.
	rng := rand.New(rand.NewSource(9))
	g := New(40)
	for i := 1; i < 40; i++ {
		_ = g.AddEdge(i, rng.Intn(i))
	}
	w := func(u, v int) float64 { return math.Abs(float64(u-v)) + 0.5 }
	dist, parent := g.Dijkstra(0, w)
	for v := 1; v < 40; v++ {
		p := parent[v]
		if p == -1 {
			t.Fatalf("tree graph must reach node %d", v)
		}
		if dist[v] <= dist[p] {
			t.Fatalf("distance not increasing along parent chain at %d", v)
		}
	}
}
