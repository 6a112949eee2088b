package spanner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func unitWeight(u, v int) float64 { return 1 }

func TestSparsityOf(t *testing.T) {
	g := graph.New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(3, 0)
	sp := graph.New(4)
	_ = sp.AddEdge(0, 1)
	_ = sp.AddEdge(1, 2)
	s := SparsityOf(g, sp)
	if s.Nodes != 4 || s.GraphEdges != 4 || s.SpannerEdges != 2 {
		t.Errorf("sparsity = %+v", s)
	}
	if math.Abs(s.EdgesPerNode-0.5) > 1e-12 || math.Abs(s.Retained-0.5) > 1e-12 {
		t.Errorf("ratios = %+v", s)
	}
}

func TestDilationIdentitySpanner(t *testing.T) {
	// Spanner == G: all ratios are exactly 1.
	g := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		_ = g.AddEdge(i, i+1)
	}
	rep, err := Dilation(g, g.Clone(), unitWeight, AllPairs(g))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	if rep.WorstTopo.TopoRatio() != 1 || math.Abs(rep.AvgTopoRatio-1) > 1e-12 {
		t.Errorf("identity spanner topo ratio: worst=%v avg=%v", rep.WorstTopo.TopoRatio(), rep.AvgTopoRatio)
	}
	if !rep.TopoBoundHolds || !rep.GeoBoundHolds {
		t.Error("identity spanner must satisfy all bounds")
	}
}

func TestDilationDetour(t *testing.T) {
	// G: square 0-1-2-3-0 plus diagonal 1-3. Spanner drops the edge 2-3,
	// forcing 3→2 to detour 3-0-1-2 (3 hops vs 2 in G via 3-2? 3-2 is an
	// edge in G — adjacent pairs are skipped. Pair (0,2): 2 hops in G
	// (0-1-2), in spanner still 0-1-2 = 2 hops.
	// Make it concrete: path spanner of a cycle.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		_ = g.AddEdge(i, (i+1)%6)
	}
	sp := graph.New(6)
	for i := 0; i+1 < 6; i++ {
		_ = sp.AddEdge(i, i+1)
	}
	// Pair (0,5): adjacent in G — skipped. Pair (0,4): 2 hops in G
	// (0-5-4), 4 hops in spanner.
	rep, err := Dilation(g, sp, unitWeight, [][2]int{{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 1 {
		t.Fatalf("pairs = %d", rep.Pairs)
	}
	if rep.WorstTopo.HopsG != 2 || rep.WorstTopo.HopsSpanner != 4 {
		t.Errorf("worst pair = %+v", rep.WorstTopo)
	}
	if rep.WorstTopo.TopoRatio() != 2 {
		t.Errorf("topo ratio = %v, want 2", rep.WorstTopo.TopoRatio())
	}
	if !rep.TopoBoundHolds { // 4 ≤ 3·2+2
		t.Error("bound should hold for this detour")
	}
}

func TestDilationSkipsAdjacentAndIdentical(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	rep, err := Dilation(g, g.Clone(), unitWeight, [][2]int{{0, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 0 {
		t.Errorf("pairs = %d, want 0 (all skipped)", rep.Pairs)
	}
}

func TestDilationDisconnectedSpannerErrors(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	sp := graph.New(3)
	_ = sp.AddEdge(0, 1)
	if _, err := Dilation(g, sp, unitWeight, [][2]int{{0, 2}}); err == nil {
		t.Error("expected error for disconnected spanner")
	}
}

func TestDilationNodeMismatch(t *testing.T) {
	if _, err := Dilation(graph.New(3), graph.New(2), unitWeight, nil); err == nil {
		t.Error("expected node-count mismatch error")
	}
}

func TestAllPairsCount(t *testing.T) {
	g := graph.New(4)
	_ = g.AddEdge(0, 1)
	pairs := AllPairs(g)
	// C(4,2)=6 pairs minus 1 adjacent = 5.
	if len(pairs) != 5 {
		t.Errorf("len(AllPairs) = %d, want 5", len(pairs))
	}
}

func TestSamplePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := SamplePairs(rng, 10, 50)
	if len(pairs) != 50 {
		t.Fatalf("len = %d", len(pairs))
	}
	for _, p := range pairs {
		if p[0] == p[1] || p[0] < 0 || p[0] >= 10 || p[1] < 0 || p[1] >= 10 {
			t.Fatalf("bad pair %v", p)
		}
	}
	if SamplePairs(rng, 1, 5) != nil {
		t.Error("n<2 should yield no pairs")
	}
}

func TestTheorem11OnAlgo2Spanners(t *testing.T) {
	// The paper's headline result: Algorithm II's spanner satisfies
	// h' ≤ 3h+2 and l' ≤ 6l+5 for every non-adjacent pair. Verified
	// exhaustively on moderate instances.
	// Corridors and annuli have their own tests (stress_test.go); a
	// clustered scene joins the uniform ones here.
	check := func(scene string, nw *udg.Network) {
		res := wcds.Algo2Centralized(nw.G, nw.ID)
		rep, err := Dilation(nw.G, res.Spanner, nw.Weight(), AllPairs(nw.G))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TopoBoundHolds {
			t.Fatalf("%s: Theorem 11 topological bound violated: worst %+v (%d violations)",
				scene, rep.WorstTopo, rep.TopoViolations)
		}
		if !rep.GeoBoundHolds {
			t.Fatalf("%s: Theorem 11 geometric bound violated: worst %+v (%d violations)",
				scene, rep.WorstGeo, rep.GeoViolations)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(80)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 6+rng.Float64()*8, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw)
	}
	nw, err := udg.Topology{Kind: "clusters"}.GenConnected(rng, 150, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	check("clusters", nw)
}

func TestLemma6TransferOnAlgo2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 60, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		res := wcds.Algo2Centralized(nw.G, nw.ID)
		stats, err := CollectPairStats(nw.G, res.Spanner, nw.Weight(), AllPairs(nw.G))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckLemma6(stats, 3, 2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAlgo1SpannerSparsityAndCoverage(t *testing.T) {
	// Algorithm I's spanner is also connected and sparse (Theorem 8); its
	// dilation is measured, not bounded, by the paper — just check
	// connectivity and that measurements run.
	rng := rand.New(rand.NewSource(4))
	nw, err := udg.GenConnectedAvgDegree(rng, 80, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	res := wcds.Algo1Centralized(nw.G, nw.ID)
	rep, err := Dilation(nw.G, res.Spanner, nw.Weight(), AllPairs(nw.G))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	s := SparsityOf(nw.G, res.Spanner)
	if s.SpannerEdges >= s.GraphEdges && s.GraphEdges > 3*s.Nodes {
		t.Errorf("spanner not sparser than a dense graph: %+v", s)
	}
	t.Logf("Algo1 spanner: edges/node=%.2f, worst topo %.2f, worst geo %.2f",
		s.EdgesPerNode, rep.WorstTopo.TopoRatio(), rep.WorstGeo.GeoRatio())
}

func TestStretchIdentity(t *testing.T) {
	g := graph.New(4)
	for i := 0; i+1 < 4; i++ {
		_ = g.AddEdge(i, i+1)
	}
	if got := Stretch(g, g.Clone()); got != 1 {
		t.Errorf("identity stretch = %v", got)
	}
}
