package discovery

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/udg"
)

// TestTwoHopDiscoveryReliableUnderDropDup verifies the substrate claim the
// WCDS protocols build on: with the ack/retransmit layer, k=2 neighbour
// discovery produces ground-truth one- and two-hop tables even when the
// radio drops and duplicates frames, on both engines.
func TestTwoHopDiscoveryReliableUnderDropDup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plans := []simnet.FaultPlan{
		{Seed: 101, DropRate: 0.2},
		{Seed: 102, DupRate: 0.3},
		{Seed: 103, DropRate: 0.25, DupRate: 0.25},
	}
	for trial := 0; trial < 3; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(30), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		for pi, plan := range plans {
			for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineAsync} {
				tables, stats, err := RunReliable(nw.G, nw.ID, 2, eng,
					reliable.Options{}, simnet.WithFaults(plan))
				if err != nil {
					t.Fatalf("trial %d plan %d %v: %v", trial, pi, eng, err)
				}
				if err := Verify(nw.G, nw.ID, tables, 2); err != nil {
					t.Fatalf("trial %d plan %d %v: %v", trial, pi, eng, err)
				}
				if plan.DropRate > 0 && stats.Retransmits == 0 {
					t.Errorf("trial %d plan %d %v: lossy run performed no retransmissions",
						trial, pi, eng)
				}
				if stats.Abandoned != 0 {
					t.Errorf("trial %d plan %d %v: %d frames abandoned",
						trial, pi, eng, stats.Abandoned)
				}
			}
		}
	}
}

// TestTwoHopDiscoveryLossyWithoutReliableFails pins down why the layer is
// needed: the same drop plan without it leaves two-hop knowledge
// incomplete, because a lost HELLO both truncates the hearer's table and
// stops it from ever sharing its neighbour list.
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

// TestReliableLosslessNoOverhead checks the layer is free when the network
// is: a lossless reliable run retransmits nothing and abandons nothing.
func TestReliableLosslessNoOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw, err := udg.GenConnectedAvgDegree(rng, 40, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	tables, stats, err := RunReliable(nw.G, nw.ID, 2, simnet.EngineSync, reliable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(nw.G, nw.ID, tables, 2); err != nil {
		t.Fatal(err)
	}
	if stats.Retransmits != 0 || stats.Abandoned != 0 {
		t.Fatalf("lossless run: retransmits=%d abandoned=%d, want 0/0",
			stats.Retransmits, stats.Abandoned)
	}
}
