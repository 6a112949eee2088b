package graph

import (
	"math"
	"math/rand"
	"testing"
)

// dirty fills the scratch with garbage from an unrelated traversal so the
// equality checks below exercise reuse, not freshness.
func dirty(s *Scratch, rng *rand.Rand) {
	g := randomConnectedGraph(rng, 5+rng.Intn(40), 10)
	wt := g.EdgeWeights(func(u, v int) float64 { return float64(u+v) + 0.5 })
	g.BFSInto(s, rng.Intn(g.N()))
	g.DijkstraInto(s, rng.Intn(g.N()), wt)
	g.MaxHopMinHopPathInto(s, rng.Intn(g.N()), wt)
}

func eqInts(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func eqFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		// Exact equality on purpose: Into variants run the identical
		// floating-point operations in the identical order.
		if got[i] != want[i] && !(math.IsInf(got[i], 0) && got[i] == want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// refDijkstra is a brute-force shortest-path reference that calls w
// directly: Bellman-Ford relaxation over every edge until nothing improves.
// Float addition is monotone, so its fixpoint is the same minimum over
// left-to-right path sums that Dijkstra computes, bit for bit.
func refDijkstra(g *Graph, src int, w WeightFunc) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if nd := dist[u] + w(u, v); nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
	}
	return dist
}

// refMinHop is a brute-force reference for the min-hop sweeps: BFS levels,
// then each node's length is the best (smallest for min, largest for max)
// of length[u] + w(u, v) over its neighbours u one level closer.
func refMinHop(g *Graph, src int, w WeightFunc, max bool) (hops []int, length []float64) {
	hops, _ = g.BFS(src)
	length = make([]float64, g.N())
	for i := range length {
		length[i] = math.Inf(1)
		if max {
			length[i] = math.Inf(-1)
		}
	}
	length[src] = 0
	for level := 1; ; level++ {
		any := false
		for v := 0; v < g.N(); v++ {
			if hops[v] != level {
				continue
			}
			any = true
			for _, u := range g.Neighbors(v) {
				if hops[u] != level-1 {
					continue
				}
				nd := length[u] + w(u, v)
				if (max && nd > length[v]) || (!max && nd < length[v]) {
					length[v] = nd
				}
			}
		}
		if !any {
			return hops, length
		}
	}
}

// TestScratchMatchesFresh is the reuse property test: for random graphs, a
// dirty reused scratch produces exactly what the fresh allocating versions
// produce, traversal for traversal, and both equal brute-force references
// that call the weight function directly — so slot weights (EdgeWeights)
// are the owner-first w(u, v) of every relaxation. The weights are
// asymmetric and fractional on purpose: a slot keyed by the wrong endpoint,
// or a float summed in another order, shows as a mismatch.
func TestScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for trial := 0; trial < 60; trial++ {
		dirty(s, rng)
		n := 2 + rng.Intn(60)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		coords := make([][2]float64, n)
		for i := range coords {
			coords[i] = [2]float64{rng.Float64(), rng.Float64()}
		}
		euclid := euclidWeight(coords)
		w := func(u, v int) float64 { return euclid(u, v) + float64((3*u+v)%7)/3 }
		wt := g.EdgeWeights(w)
		src := rng.Intn(n)

		dist, parent := g.BFS(src)
		sd, sp := g.BFSInto(s, src)
		eqInts(t, "BFS dist", sd, dist)
		eqInts(t, "BFS parent", sp, parent)

		bdist, bvis := g.BFSBounded(src, 3)
		sbd, sbv := g.BFSBoundedInto(s, src, 3)
		eqInts(t, "BFSBounded dist", sbd, bdist)
		eqInts(t, "BFSBounded visited", sbv, bvis)

		ddist, dparent := g.Dijkstra(src, w)
		sdd, sdp := g.DijkstraInto(s, src, wt)
		eqFloats(t, "Dijkstra dist", sdd, ddist)
		eqInts(t, "Dijkstra parent", sdp, dparent)
		eqFloats(t, "Dijkstra dist vs reference", sdd, refDijkstra(g, src, w))

		mh, ml, mp := g.MinHopMinLength(src, w)
		smh, sml, smp := g.MinHopMinLengthInto(s, src, wt)
		eqInts(t, "MinHopMinLength hops", smh, mh)
		eqFloats(t, "MinHopMinLength length", sml, ml)
		eqInts(t, "MinHopMinLength parent", smp, mp)
		rh, rl := refMinHop(g, src, w, false)
		eqInts(t, "MinHopMinLength hops vs reference", smh, rh)
		eqFloats(t, "MinHopMinLength length vs reference", sml, rl)
		for v, p := range smp {
			if p >= 0 && sml[p]+w(p, v) != sml[v] {
				t.Fatalf("MinHopMinLength parent of %d: %v + w(%d,%d) != %v", v, sml[p], p, v, sml[v])
			}
		}

		xh, xl := g.MaxHopMinHopPath(src, w)
		sxh, sxl := g.MaxHopMinHopPathInto(s, src, wt)
		eqInts(t, "MaxHopMinHopPath hops", sxh, xh)
		eqFloats(t, "MaxHopMinHopPath length", sxl, xl)
		rh, rl = refMinHop(g, src, w, true)
		eqInts(t, "MaxHopMinHopPath hops vs reference", sxh, rh)
		eqFloats(t, "MaxHopMinHopPath length vs reference", sxl, rl)
	}
}

// TestEdgeWeightsSlots pins the layout: one row per node, aligned with its
// adjacency list, each entry the owner-first weight of its slot.
func TestEdgeWeightsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 40, 60)
	w := func(u, v int) float64 { return float64(100*u + v) }
	wt := g.EdgeWeights(w)
	if len(wt) != g.N() {
		t.Fatalf("rows = %d, want %d", len(wt), g.N())
	}
	for u := range wt {
		nbrs := g.Neighbors(u)
		if len(wt[u]) != len(nbrs) {
			t.Fatalf("row %d: %d weights for %d neighbours", u, len(wt[u]), len(nbrs))
		}
		for i, v := range nbrs {
			if wt[u][i] != w(u, v) {
				t.Fatalf("wt[%d][%d] = %v, want w(%d,%d) = %v", u, i, wt[u][i], u, v, w(u, v))
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { g.EdgeWeights(w) }); n != 2 {
		t.Errorf("EdgeWeights: %v allocs, want 2 (one flat slice, one row table)", n)
	}
}

// TestScratchShrinkingGraphs reuses one scratch across graphs of shrinking
// and growing node counts — stale tail data from a larger graph must never
// leak into a smaller one's results.
func TestScratchShrinkingGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	for _, n := range []int{80, 5, 33, 2, 64, 7} {
		g := randomConnectedGraph(rng, n, n)
		w := func(u, v int) float64 { return 1 }
		dist, parent := g.BFS(0)
		sd, sp := g.BFSInto(s, 0)
		eqInts(t, "dist", sd, dist)
		eqInts(t, "parent", sp, parent)
		dd, _ := g.Dijkstra(0, w)
		sdd, _ := g.DijkstraInto(s, 0, g.EdgeWeights(w))
		eqFloats(t, "dijkstra", sdd, dd)
	}
}

// TestScratchOutOfRangeSource mirrors the wrappers' out-of-range behaviour.
func TestScratchOutOfRangeSource(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(3)), 10, 5)
	s := NewScratch()
	for _, src := range []int{-1, 10, 99} {
		dist, parent := g.BFSInto(s, src)
		for i := range dist {
			if dist[i] != Unreachable || parent[i] != -1 {
				t.Fatalf("src=%d: dist[%d]=%d parent=%d, want untouched sentinel", src, i, dist[i], parent[i])
			}
		}
		if d, vis := g.BFSBoundedInto(s, src, 2); vis != nil || d[0] != Unreachable {
			t.Fatalf("src=%d: bounded visited=%v", src, vis)
		}
	}
}

// TestTraversalZeroAlloc pins the steady state of every Into variant to
// zero allocations: once a scratch has seen the graph size, repeated
// traversals must not touch the heap. This is the guard against the pool
// accidentally re-allocating (e.g. a slice reset written as make).
func TestTraversalZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnectedGraph(rng, 300, 600)
	wt := g.EdgeWeights(func(u, v int) float64 { return 1 + float64((u+v)%5) })
	s := NewScratch()
	// Warm up: grow every buffer (the Dijkstra heap in particular reaches
	// its high-water mark on the first full run).
	g.BFSInto(s, 0)
	g.BFSBoundedInto(s, 0, 4)
	g.DijkstraInto(s, 0, wt)
	g.MinHopMinLengthInto(s, 0, wt)
	g.MaxHopMinHopPathInto(s, 0, wt)

	steps := []struct {
		name string
		run  func(src int)
	}{
		{"BFSInto", func(src int) { g.BFSInto(s, src) }},
		{"BFSBoundedInto", func(src int) { g.BFSBoundedInto(s, src, 4) }},
		{"DijkstraInto", func(src int) { g.DijkstraInto(s, src, wt) }},
		{"MinHopMinLengthInto", func(src int) { g.MinHopMinLengthInto(s, src, wt) }},
		{"MaxHopMinHopPathInto", func(src int) { g.MaxHopMinHopPathInto(s, src, wt) }},
	}
	for _, step := range steps {
		src := 0
		if allocs := testing.AllocsPerRun(50, func() {
			step.run(src)
			src = (src + 17) % g.N()
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/run in steady state, want 0", step.name, allocs)
		}
	}
}

func BenchmarkBFSFresh(b *testing.B) {
	g := randomConnectedGraph(rand.New(rand.NewSource(1)), 500, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkBFSScratch(b *testing.B) {
	g := randomConnectedGraph(rand.New(rand.NewSource(1)), 500, 1500)
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFSInto(s, i%g.N())
	}
}

func BenchmarkDijkstraScratch(b *testing.B) {
	g := randomConnectedGraph(rand.New(rand.NewSource(1)), 500, 1500)
	wt := g.EdgeWeights(func(u, v int) float64 { return 1 + float64((u+v)%5) })
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.DijkstraInto(s, i%g.N(), wt)
	}
}
