package wcds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// The protocols must not assume IDs are a dense permutation — any unique
// integers (sparse, negative, huge) are legal ranks.

func arbitraryIDs(rng *rand.Rand, n int) []int {
	ids := make([]int, n)
	used := make(map[int]bool, n)
	for i := range ids {
		for {
			id := rng.Intn(1_000_000) - 500_000
			if !used[id] {
				used[id] = true
				ids[i] = id
				break
			}
		}
	}
	return ids
}

func TestArbitraryIDSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(50), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		ids := arbitraryIDs(rng, nw.N())

		want := Algo2Centralized(nw.G, ids)
		got, _, err := Algo2Distributed(nw.G, ids, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalInts(got.Dominators, want.Dominators) {
			t.Fatalf("trial %d: sparse-ID runs diverge", trial)
		}
		if !IsWCDS(nw.G, got.Dominators) {
			t.Fatalf("trial %d: invalid WCDS with sparse IDs", trial)
		}

		res1, _, err := Algo1Distributed(nw.G, ids, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !IsWCDS(nw.G, res1.Dominators) {
			t.Fatalf("trial %d: Algorithm I invalid with sparse IDs", trial)
		}
	}
}

// Quick property: for any dominating set, IsWCDS agrees with connectivity
// of the weakly induced subgraph.
func TestIsWCDSConsistencyQuick(t *testing.T) {
	f := func(seed int64, nRaw, mask uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		g := graph.New(n)
		for i := 1; i < n; i++ {
			_ = g.AddEdge(i, r.Intn(i))
		}
		for e := 0; e < n; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		// Random subset biased by mask.
		var set []int
		for v := 0; v < n; v++ {
			if r.Intn(4) < int(mask)%4+1 {
				set = append(set, v)
			}
		}
		got := IsWCDS(g, set)
		want := len(set) > 0 && mis.IsDominating(g, set) && WeaklyInduced(g, set).Connected()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Quick property: the weakly induced subgraph's edge set is monotone in the
// dominating set and exact on membership.
func TestWeaklyInducedQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%25
		g := graph.New(n)
		for e := 0; e < 2*n; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		inSet := make([]bool, n)
		var set []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				inSet[v] = true
				set = append(set, v)
			}
		}
		h := WeaklyInduced(g, set)
		// Every edge of h touches the set; every graph edge touching the
		// set is in h; h never inverts an absent edge.
		for _, e := range g.Edges() {
			want := inSet[e[0]] || inSet[e[1]]
			if h.HasEdge(e[0], e[1]) != want {
				return false
			}
		}
		return h.N() == g.N() && h.M() <= g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The distributed Algorithm II MIS must be schedule-independent: across
// many async scrambles the MIS dominator set is always the greedy-by-ID
// MIS.
func TestAlgo2MISScheduleIndependenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, err := udg.GenConnectedAvgDegree(rng, 60, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := mis.Greedy(nw.G, mis.ByID(nw.ID))
	for seed := int64(0); seed < 30; seed++ {
		runner := EngineRunner(simnet.EngineAsync, simnet.WithScramble(rand.New(rand.NewSource(seed))))
		res, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, runner)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !equalInts(res.MISDominators, want) {
			t.Fatalf("seed %d: MIS differs from greedy-by-ID", seed)
		}
	}
}

// Both algorithms must be correct on ARBITRARY connected graphs — their
// domination and weak-connectivity proofs never use geometry (E12 measures
// how the unit-disk constants drift; this test pins the correctness core).
func TestAlgorithmsOnNonGeometricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(80)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			_ = g.AddEdge(i, rng.Intn(i))
		}
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		g.SortAdjacency()
		ids := rng.Perm(n)

		res2 := Algo2Centralized(g, ids)
		if !IsWCDS(g, res2.Dominators) {
			t.Fatalf("trial %d: Algorithm II invalid on non-geometric graph", trial)
		}
		got, _, err := Algo2Distributed(g, ids, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got.Dominators, res2.Dominators) {
			t.Fatalf("trial %d: distributed diverged on non-geometric graph", trial)
		}
		res1, _, err := Algo1Distributed(g, ids, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatal(err)
		}
		if !IsWCDS(g, res1.Dominators) {
			t.Fatalf("trial %d: Algorithm I invalid on non-geometric graph", trial)
		}
	}
}
