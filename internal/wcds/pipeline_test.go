package wcds

import (
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func TestZeroKnowledgeMatchesCentralizedSync(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(80), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		want := Algo2Centralized(nw.G, nw.ID)
		got, stats, err := Algo2ZeroKnowledge(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalInts(got.Dominators, want.Dominators) {
			t.Fatalf("trial %d: zero-knowledge %v != centralized %v",
				trial, got.Dominators, want.Dominators)
		}
		// Exactly one extra HELLO per node over the pre-wired protocol.
		_, preStats, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != preStats.Messages+nw.N() {
			t.Errorf("trial %d: messages %d, want %d + n = %d",
				trial, stats.Messages, preStats.Messages, preStats.Messages+nw.N())
		}
	}
}

func TestZeroKnowledgeAsyncScrambled(t *testing.T) {
	// Under non-FIFO scrambled delivery, Algorithm II messages can arrive
	// before a node finished discovery; the buffering path must preserve
	// exact equality with the centralized reference.
	check := func(scene string, nw *udg.Network, scramble int64) {
		want := Algo2Centralized(nw.G, nw.ID)
		runner := EngineRunner(simnet.EngineAsync, simnet.WithScramble(rand.New(rand.NewSource(scramble))))
		got, _, err := Algo2ZeroKnowledge(nw.G, nw.ID, Deferred, runner)
		if err != nil {
			t.Fatalf("%s: %v", scene, err)
		}
		if !equalInts(got.Dominators, want.Dominators) {
			t.Fatalf("%s: async zero-knowledge diverged", scene)
		}
		if !equalInts(got.AdditionalDominators, want.AdditionalDominators) {
			t.Fatalf("%s: connector sets diverged", scene)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(60), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw, int64(trial*13))
	}
	for kind, nw := range familyScenes(t, 15) {
		check(kind, nw, 15)
	}
}

func TestZeroKnowledgeSingleNode(t *testing.T) {
	g := pathGraph(t, 1)
	res, _, err := Algo2ZeroKnowledge(g, []int{9}, Deferred, EngineRunner(simnet.EngineSync))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.Dominators, []int{0}) {
		t.Errorf("dominators = %v", res.Dominators)
	}
}

func TestAlgo1ZeroKnowledgeSyncMatchesCentralized(t *testing.T) {
	// Algorithm I behind the discovery pipeline: under the synchronous
	// engine the HELLO phase completes in lockstep, so the election still
	// produces the BFS tree of the max-ID node and the result equals the
	// centralized reference.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(70), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		want := Algo1Centralized(nw.G, nw.ID)
		got, stats, err := Algo1ZeroKnowledge(nw.G, nw.ID, EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalInts(got.Dominators, want.Dominators) {
			t.Fatalf("trial %d: zero-knowledge Algorithm I diverged from centralized", trial)
		}
		if stats.Messages <= nw.N() {
			t.Fatalf("trial %d: implausibly few messages %d", trial, stats.Messages)
		}
	}
}

func TestAlgo1ZeroKnowledgeAsyncValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(50), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		runner := EngineRunner(simnet.EngineAsync, simnet.WithScramble(rand.New(rand.NewSource(int64(trial*11)))))
		res, _, err := Algo1ZeroKnowledge(nw.G, nw.ID, runner)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !IsWCDS(nw.G, res.Dominators) {
			t.Fatalf("trial %d: async zero-knowledge Algorithm I not a WCDS", trial)
		}
	}
}

func TestZeroKnowledgeUnderLossDetectable(t *testing.T) {
	// Lost HELLOs must surface as "never completed discovery", not as a
	// silently wrong backbone.
	rng := rand.New(rand.NewSource(3))
	nw, err := udg.GenConnectedAvgDegree(rng, 50, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	runner := EngineRunner(simnet.EngineSync, simnet.WithFaults(simnet.FaultPlan{Seed: rand.New(rand.NewSource(4)).Int63(), DropRate: 0.4}))
	_, _, err = Algo2ZeroKnowledge(nw.G, nw.ID, Deferred, runner)
	if err == nil {
		t.Error("expected a detectable failure under 40% loss")
	}
}
