package wcds

import (
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func TestAlgo2CentralizedPathNoConnectors(t *testing.T) {
	// Path 0..6 with IDs = indices: the greedy-by-ID MIS is {0,2,4,6};
	// consecutive members are two hops apart so no connectors are needed.
	g := pathGraph(t, 7)
	res := Algo2Centralized(g, seqIDs(7))
	if !equalInts(res.MISDominators, []int{0, 2, 4, 6}) {
		t.Errorf("MIS = %v, want [0 2 4 6]", res.MISDominators)
	}
	if len(res.AdditionalDominators) != 0 {
		t.Errorf("additional = %v, want none", res.AdditionalDominators)
	}
	if !IsWCDS(g, res.Dominators) {
		t.Error("result is not a WCDS")
	}
}

func TestAlgo2CentralizedPathWithConnectors(t *testing.T) {
	// Path 0..6 with IDs arranged so the MIS is {0,3,6}: nodes 0,3,6 get
	// the three lowest IDs. Pairs (0,3) and (3,6) are exactly three hops
	// apart; the lower-ID endpoint of each pair recruits the connector
	// adjacent to it: node 1 (for 0-1-2-3) and node 4 (for 3-4-5-6).
	g := pathGraph(t, 7)
	ids := []int{0, 3, 4, 1, 5, 6, 2}
	res := Algo2Centralized(g, ids)
	if !equalInts(res.MISDominators, []int{0, 3, 6}) {
		t.Fatalf("MIS = %v, want [0 3 6]", res.MISDominators)
	}
	if !equalInts(res.AdditionalDominators, []int{1, 4}) {
		t.Errorf("additional = %v, want [1 4]", res.AdditionalDominators)
	}
	if !IsWCDS(g, res.Dominators) {
		t.Error("result is not a WCDS")
	}
	// Lemma 9 property: complementary subsets of the full WCDS are at most
	// two hops apart.
	if k, ok := mis.MaxComplementaryDistance(g, res.Dominators, 4); !ok || k > 2 {
		t.Errorf("complementary distance %d (ok=%v), want ≤ 2", k, ok)
	}
}

func TestAlgo2DistributedSyncMatchesCentralized(t *testing.T) {
	check := func(scene string, nw *udg.Network) {
		want := Algo2Centralized(nw.G, nw.ID)
		got, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("%s: %v", scene, err)
		}
		if !equalInts(got.MISDominators, want.MISDominators) {
			t.Fatalf("%s: MIS %v != %v", scene, got.MISDominators, want.MISDominators)
		}
		if !equalInts(got.AdditionalDominators, want.AdditionalDominators) {
			t.Fatalf("%s: additional %v != %v", scene, got.AdditionalDominators, want.AdditionalDominators)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(120)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 5+rng.Float64()*10, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw)
	}
	for kind, nw := range familyScenes(t, 12) {
		check(kind, nw)
	}
}

func TestAlgo2DistributedAsyncScheduleIndependent(t *testing.T) {
	// Deferred selection is canonical: the asynchronous engine under
	// scrambled (non-FIFO) delivery must produce exactly the centralized
	// result too.
	check := func(scene string, nw *udg.Network, scramble int64) {
		want := Algo2Centralized(nw.G, nw.ID)
		runner := EngineRunner(simnet.EngineAsync, simnet.WithScramble(rand.New(rand.NewSource(scramble))))
		got, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, runner)
		if err != nil {
			t.Fatalf("%s: %v", scene, err)
		}
		if !equalInts(got.MISDominators, want.MISDominators) {
			t.Fatalf("%s: MIS differs under async schedule", scene)
		}
		if !equalInts(got.AdditionalDominators, want.AdditionalDominators) {
			t.Fatalf("%s: additional %v != %v", scene, got.AdditionalDominators, want.AdditionalDominators)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(80)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw, int64(trial*31))
	}
	for kind, nw := range familyScenes(t, 13) {
		check(kind, nw, 13)
	}
}

func TestAlgo2EagerStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(80)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := Algo2Distributed(nw.G, nw.ID, Eager, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !mis.IsMaximalIndependent(nw.G, res.MISDominators) {
			t.Fatalf("trial %d: eager MIS invalid", trial)
		}
		if !IsWCDS(nw.G, res.Dominators) {
			t.Fatalf("trial %d: eager result not a WCDS", trial)
		}
		if k, ok := mis.MaxComplementaryDistance(nw.G, res.Dominators, 4); !ok || k > 2 {
			t.Fatalf("trial %d: eager complementary distance %d (ok=%v)", trial, k, ok)
		}
	}
}

func TestAlgo2PropertiesOnUDGs(t *testing.T) {
	check := func(scene string, nw *udg.Network) {
		res := Algo2Centralized(nw.G, nw.ID)
		if !mis.IsMaximalIndependent(nw.G, res.MISDominators) {
			t.Fatalf("%s: MIS part invalid", scene)
		}
		if !IsWCDS(nw.G, res.Dominators) {
			t.Fatalf("%s: not a WCDS", scene)
		}
		if k, ok := mis.MaxComplementaryDistance(nw.G, res.Dominators, 4); !ok || k > 2 {
			t.Fatalf("%s: complementary distance %d (ok=%v), want ≤ 2 (Lemma 9)", scene, k, ok)
		}
		// MIS part must be the greedy-by-ID MIS regardless of anything.
		if want := mis.Greedy(nw.G, mis.ByID(nw.ID)); !equalInts(res.MISDominators, want) {
			t.Fatalf("%s: MIS part is not greedy-by-ID", scene)
		}
		// Theorem 10's sparsity accounting: at most 9·|gray| + 47·|S| edges.
		grayCount := nw.N() - len(res.Dominators)
		bound := 9*grayCount + 47*len(res.MISDominators)
		if res.Spanner.M() > bound {
			t.Fatalf("%s: spanner edges %d exceed Theorem 10 bound %d", scene, res.Spanner.M(), bound)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(200)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 5+rng.Float64()*12, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw)
	}
	for kind, nw := range familyScenes(t, 14) {
		check(kind, nw)
	}
}

func TestAlgo2ThreeHopTablesComplete(t *testing.T) {
	// After a deferred run, for every MIS-dominator pair (u, w) exactly
	// three hops apart, BOTH endpoints must hold a 3HopDomList entry for
	// the other, and the recorded connector path must exist in G.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(80)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 6, 300)
		if err != nil {
			t.Fatal(err)
		}
		res, tables, _, err := Algo2DistributedDetailed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatal(err)
		}
		nodeOfID := make(map[int]int, n)
		for v, id := range nw.ID {
			nodeOfID[id] = v
		}
		for _, u := range res.MISDominators {
			distU, _ := nw.G.BFSBounded(u, 3)
			for _, w := range res.MISDominators {
				if u == w || distU[w] != 3 {
					continue
				}
				lo, hi := u, w
				if nw.ID[lo] > nw.ID[hi] {
					lo, hi = hi, lo
				}
				loEntry, ok := tables[lo].ThreeHopDoms[nw.ID[hi]]
				if !ok {
					t.Fatalf("trial %d: dominator %d missing 3-hop entry for %d", trial, lo, hi)
				}
				hiEntry, ok := tables[hi].ThreeHopDoms[nw.ID[lo]]
				if !ok {
					t.Fatalf("trial %d: far dominator %d missing reverse 3-hop entry for %d", trial, hi, lo)
				}
				// Path validity: lo—v—x—hi with all edges in G, and the
				// reverse entry names the same connectors mirrored.
				v, x := nodeOfID[loEntry[0]], nodeOfID[loEntry[1]]
				if !nw.G.HasEdge(lo, v) || !nw.G.HasEdge(v, x) || !nw.G.HasEdge(x, hi) {
					t.Fatalf("trial %d: recorded path %d-%d-%d-%d not in G", trial, lo, v, x, hi)
				}
				if hiEntry[0] != loEntry[1] || hiEntry[1] != loEntry[0] {
					t.Fatalf("trial %d: reverse entry %v does not mirror %v", trial, hiEntry, loEntry)
				}
				// The selected connector is an additional dominator.
				isAdditional := false
				for _, a := range res.AdditionalDominators {
					if a == v {
						isAdditional = true
					}
				}
				if !isAdditional {
					t.Fatalf("trial %d: connector %d not in additional set", trial, v)
				}
			}
		}
	}
}

func TestAlgo2MessageComplexityLinear(t *testing.T) {
	// Theorem 12: O(n) messages. Each node sends one colour message, one
	// 1-HOP and one 2-HOP report, plus a bounded number of selection /
	// announcement / relay messages.
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{100, 200, 400} {
		nw, err := udg.GenConnectedAvgDegree(rng, n, 10, 300)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages > 8*n {
			t.Errorf("n=%d: %d messages exceeds linear guard %d", n, stats.Messages, 8*n)
		}
		t.Logf("n=%d messages=%d (%.2f per node) rounds=%d", n, stats.Messages,
			float64(stats.Messages)/float64(n), stats.Rounds)
	}
}

func TestAlgo2SingleNodeAndPair(t *testing.T) {
	res, _, err := Algo2Distributed(pathGraph(t, 1), []int{3}, Deferred, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.Dominators, []int{0}) {
		t.Errorf("single node: %v", res.Dominators)
	}
	g := pathGraph(t, 2)
	res, _, err = Algo2Distributed(g, []int{5, 1}, Deferred, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.Dominators, []int{1}) {
		t.Errorf("pair: dominators = %v, want the lower-ID node [1]", res.Dominators)
	}
}

func TestAlgo2StarGraph(t *testing.T) {
	// Star with hub holding the highest ID: every leaf is a local minimum
	// only if it has no lower-ID neighbour — leaves are only adjacent to
	// the hub, so the leaf with... every leaf's sole neighbour is the hub
	// (ID 10): all leaves are local minima and become dominators; the hub
	// is dominated. Leaf pairs are two hops apart (via hub): no connectors.
	g := graph.New(5)
	for i := 1; i < 5; i++ {
		_ = g.AddEdge(0, i)
	}
	ids := []int{10, 1, 2, 3, 4}
	res := Algo2Centralized(g, ids)
	if !equalInts(res.MISDominators, []int{1, 2, 3, 4}) {
		t.Errorf("MIS = %v", res.MISDominators)
	}
	if len(res.AdditionalDominators) != 0 {
		t.Errorf("additional = %v", res.AdditionalDominators)
	}
	got, _, err := Algo2Distributed(g, ids, Deferred, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got.Dominators, res.Dominators) {
		t.Errorf("distributed %v != centralized %v", got.Dominators, res.Dominators)
	}
}
