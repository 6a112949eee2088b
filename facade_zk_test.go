package wcdsnet

import "testing"

func TestAlgorithmIZeroKnowledgeFacade(t *testing.T) {
	nw, err := GenerateNetwork(31, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Sync zero-knowledge Algorithm I equals the centralized reference
	// (lockstep HELLO phase preserves the BFS election tree).
	want, _ := mustRun(t, nw, AlgoI)
	got, stats, err := Run(nw, AlgoI, ZeroKnowledge())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dominators) != len(want.Dominators) {
		t.Fatalf("|WCDS| %d != %d", len(got.Dominators), len(want.Dominators))
	}
	for i := range want.Dominators {
		if got.Dominators[i] != want.Dominators[i] {
			t.Fatalf("dominators differ at %d", i)
		}
	}
	if stats.Messages == 0 {
		t.Error("no messages recorded")
	}
	// Async variant must still be a valid WCDS.
	res, _, err := Run(nw, AlgoI, ZeroKnowledge(), WithEngine(EngineAsync), WithScheduleSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !IsWCDS(nw, res.Dominators) {
		t.Error("async zero-knowledge Algorithm I result invalid")
	}
}
