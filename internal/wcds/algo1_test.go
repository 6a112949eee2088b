package wcds

import (
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func TestAlgo1CentralizedPath(t *testing.T) {
	// Path 0-1-2-3-4 with IDs = indices: the leader is node 4 (max ID),
	// levels from it are 4,3,2,1,0. Rank order: 4, 3, 2, 1, 0 — greedy
	// takes 4 (grays 3), takes 2 (grays 1), takes 0.
	g := pathGraph(t, 5)
	res := Algo1Centralized(g, seqIDs(5))
	if !equalInts(res.Dominators, []int{0, 2, 4}) {
		t.Errorf("dominators = %v, want [0 2 4]", res.Dominators)
	}
	if len(res.AdditionalDominators) != 0 {
		t.Errorf("Algorithm I has no additional dominators, got %v", res.AdditionalDominators)
	}
	if !IsWCDS(g, res.Dominators) {
		t.Error("result is not a WCDS")
	}
}

func TestAlgo1CentralizedEmpty(t *testing.T) {
	res := Algo1Centralized(pathGraph(t, 0), nil)
	if len(res.Dominators) != 0 {
		t.Errorf("empty graph: dominators = %v", res.Dominators)
	}
}

func TestAlgo1CentralizedPropertiesOnUDGs(t *testing.T) {
	check := func(scene string, nw *udg.Network) {
		res := Algo1Centralized(nw.G, nw.ID)
		set := res.Dominators
		if !mis.IsMaximalIndependent(nw.G, set) {
			t.Fatalf("%s: not a maximal independent set", scene)
		}
		if !IsWCDS(nw.G, set) {
			t.Fatalf("%s: not a WCDS (Theorem 5 violated)", scene)
		}
		// Theorem 4: complementary subsets exactly two hops apart.
		if k, ok := mis.MaxComplementaryDistance(nw.G, set, 4); !ok || (len(set) > 1 && k != 2) {
			t.Fatalf("%s: complementary distance %d (ok=%v), want 2", scene, k, ok)
		}
		// Theorem 8 accounting: every black edge joins a gray node to a
		// black node, and each gray node has at most 5 black neighbours.
		grayCount := nw.N() - len(set)
		if res.Spanner.M() > 5*grayCount {
			t.Fatalf("%s: spanner has %d edges > 5·gray = %d", scene, res.Spanner.M(), 5*grayCount)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(150)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 6+rng.Float64()*10, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw)
	}
	for kind, nw := range familyScenes(t, 11) {
		check(kind, nw)
	}
}

func TestAlgo1DistributedSyncMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(100)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		want := Algo1Centralized(nw.G, nw.ID)
		got, stats, err := Algo1Distributed(nw.G, nw.ID, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalInts(got.Dominators, want.Dominators) {
			t.Fatalf("trial %d: distributed %v != centralized %v", trial, got.Dominators, want.Dominators)
		}
		if stats.Messages == 0 || stats.Rounds == 0 {
			t.Fatalf("trial %d: implausible stats %+v", trial, stats)
		}
	}
}

func TestAlgo1DistributedAsyncProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(80)
		nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		runner := EngineRunner(simnet.EngineAsync, simnet.WithScramble(rand.New(rand.NewSource(int64(trial)))))
		res, levels, _, err := Algo1DistributedDetailed(nw.G, nw.ID, runner)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		set := res.Dominators
		if !mis.IsMaximalIndependent(nw.G, set) {
			t.Fatalf("trial %d: async result not an MIS", trial)
		}
		if !IsWCDS(nw.G, set) {
			t.Fatalf("trial %d: async result not a WCDS", trial)
		}
		if k, ok := mis.MaxComplementaryDistance(nw.G, set, 4); !ok || (len(set) > 1 && k != 2) {
			t.Fatalf("trial %d: complementary distance %d (ok=%v)", trial, k, ok)
		}
		// The marking must equal the greedy MIS over the ranking the run's
		// own spanning tree produced — for ANY schedule.
		want := mis.Greedy(nw.G, mis.ByLevelID(levels, nw.ID))
		if !equalInts(set, want) {
			t.Fatalf("trial %d: marking %v != greedy over run levels %v", trial, set, want)
		}
	}
}

func TestAlgo1DistributedSingleNode(t *testing.T) {
	g := pathGraph(t, 1)
	res, _, err := Algo1Distributed(g, []int{7}, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.Dominators, []int{0}) {
		t.Errorf("dominators = %v", res.Dominators)
	}
}

func TestAlgo1MessageComplexity(t *testing.T) {
	// Phase 3 itself is linear: each node sends exactly one BLACK or GRAY.
	// Total messages are dominated by the election; guard the whole run.
	rng := rand.New(rand.NewSource(4))
	nw, err := udg.GenConnectedAvgDegree(rng, 300, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Algo1Distributed(nw.G, nw.ID, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages > 80*nw.N() {
		t.Errorf("Algorithm I used %d messages for n=%d", stats.Messages, nw.N())
	}
	t.Logf("Algorithm I: n=%d messages=%d rounds=%d", nw.N(), stats.Messages, stats.Rounds)
}
