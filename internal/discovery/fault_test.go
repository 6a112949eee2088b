package discovery

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// TestTwoHopDiscoveryLossyWithoutReliableFails pins down why lossy runs
// need an ack/retransmit layer: without one, a drop plan leaves two-hop
// knowledge incomplete, because a lost HELLO both truncates the hearer's
// table and stops it from ever sharing its neighbour list.
func TestTwoHopDiscoveryLossyWithoutReliableFails(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw, err := udg.GenConnectedAvgDegree(rng, 50, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := Run(nw.G, nw.ID, 2, simnet.EngineSync,
		simnet.WithFaults(simnet.FaultPlan{Seed: 201, DropRate: 0.4}))
	if err != nil {
		t.Fatal(err)
	}
	if Verify(nw.G, nw.ID, tables, 2) == nil {
		t.Fatal("40% loss without the reliable layer still produced ground-truth tables")
	}
}
