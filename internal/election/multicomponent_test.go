package election

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// On a disconnected graph each component elects its own maximum-ID leader
// and completes its own level phase — the behaviour the maintenance layer
// relies on when churn temporarily partitions the network.
func TestDisconnectedComponentsElectPerComponentRoots(t *testing.T) {
	// Components {0,1,2} (path) and {3,4} (edge), plus isolated node 5.
	g := graph.New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	ids := []int{10, 30, 20, 5, 7, 99}

	procs := make([]simnet.Proc, g.N())
	eprocs := make([]*Proc, g.N())
	for i := range procs {
		eprocs[i] = NewProc(ids[i])
		procs[i] = eprocs[i]
	}
	if _, err := simnet.RunSync(g, procs); err != nil {
		t.Fatal(err)
	}

	wantRoots := map[int]bool{1: true, 4: true, 5: true} // max IDs 30, 7, 99
	for v, p := range eprocs {
		if p.Core.IsRoot() != wantRoots[v] {
			t.Errorf("node %d: root=%v, want %v", v, p.Core.IsRoot(), wantRoots[v])
		}
		if wantRoots[v] && !p.Core.RootDone() {
			t.Errorf("component root %d did not complete", v)
		}
	}
	// Levels are per-component depths.
	wantLevels := []int{1, 0, 1, 1, 0, 0}
	for v, p := range eprocs {
		if p.Core.Level() != wantLevels[v] {
			t.Errorf("node %d level = %d, want %d", v, p.Core.Level(), wantLevels[v])
		}
	}
	// Leader IDs are component maxima, not the global maximum.
	if eprocs[0].Core.LeaderID() != 30 || eprocs[3].Core.LeaderID() != 7 {
		t.Errorf("leader IDs: %d, %d — cross-component leakage",
			eprocs[0].Core.LeaderID(), eprocs[3].Core.LeaderID())
	}
}

func TestElectionUnderMessageLossStalls(t *testing.T) {
	// With total loss the echo can never close: no node completes, but the
	// run still quiesces cleanly (detectable failure).
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	procs := make([]simnet.Proc, 3)
	eprocs := make([]*Proc, 3)
	for i := range procs {
		eprocs[i] = NewProc(i + 1)
		procs[i] = eprocs[i]
	}
	stats, err := simnet.RunSync(g, procs, simnet.WithFaults(simnet.FaultPlan{Seed: rand.New(rand.NewSource(1)).Int63(), DropRate: 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deliveries != 0 {
		t.Fatalf("deliveries = %d under total loss", stats.Deliveries)
	}
	for v, p := range eprocs {
		if p.Core.RootDone() {
			t.Errorf("node %d completed despite total message loss", v)
		}
	}
}
