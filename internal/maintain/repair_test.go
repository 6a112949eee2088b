package maintain

import (
	"context"
	"math/rand"
	"testing"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func syncRun(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
	return simnet.RunSync(g, procs)
}

func asyncScrambled(seed int64) func(*graph.Graph, []simnet.Proc) (simnet.Stats, error) {
	return func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		return simnet.EngineAsync.Run(g, procs, simnet.WithScramble(rand.New(rand.NewSource(seed))))
	}
}

func domMask(n int, set []int) []bool {
	mask := make([]bool, n)
	for _, v := range set {
		mask[v] = true
	}
	return mask
}

func TestRepairNoopOnValidMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := newNetwork(t, rng, 60, 8)
	valid := mis.Greedy(nw.G, mis.ByID(nw.ID))
	set, flips, stats, err := RepairMISDistributed(nw.G, nw.ID, domMask(nw.N(), valid), syncRun)
	if err != nil {
		t.Fatal(err)
	}
	if flips != 0 {
		t.Errorf("valid MIS caused %d role flips", flips)
	}
	if len(set) != len(valid) {
		t.Errorf("repair changed a valid MIS: %d -> %d dominators", len(valid), len(set))
	}
	// Quiescent repair costs at most a couple of beacons per node (the
	// initial one plus possible coverage updates).
	if stats.Messages > 2*nw.N() {
		t.Errorf("no-op repair sent %d messages for n=%d", stats.Messages, nw.N())
	}
}

func TestRepairFixesConflictsAndGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		nw := newNetwork(t, rng, 50+rng.Intn(60), 9)
		// Corrupt a valid MIS: promote some random extra nodes (conflicts)
		// and demote some real dominators (coverage gaps).
		valid := mis.Greedy(nw.G, mis.ByID(nw.ID))
		mask := domMask(nw.N(), valid)
		for k := 0; k < 1+nw.N()/10; k++ {
			mask[rng.Intn(nw.N())] = rng.Intn(2) == 0
		}
		set, _, _, err := RepairMISDistributed(nw.G, nw.ID, mask, syncRun)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !mis.IsMaximalIndependent(nw.G, set) {
			t.Fatalf("trial %d: repaired set is not a maximal independent set", trial)
		}
	}
}

func TestRepairFromEmptyAndFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := newNetwork(t, rng, 70, 8)
	// From nothing: repair must build a full MIS.
	set, _, _, err := RepairMISDistributed(nw.G, nw.ID, make([]bool, nw.N()), syncRun)
	if err != nil {
		t.Fatal(err)
	}
	if !mis.IsMaximalIndependent(nw.G, set) {
		t.Fatal("repair from empty did not produce an MIS")
	}
	// From everything: repair must thin to an MIS.
	all := make([]bool, nw.N())
	for i := range all {
		all[i] = true
	}
	set, _, _, err = RepairMISDistributed(nw.G, nw.ID, all, syncRun)
	if err != nil {
		t.Fatal(err)
	}
	if !mis.IsMaximalIndependent(nw.G, set) {
		t.Fatal("repair from full did not produce an MIS")
	}
}

func TestRepairAsyncScrambledInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		nw := newNetwork(t, rng, 40+rng.Intn(40), 8)
		mask := make([]bool, nw.N())
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
		}
		set, _, _, err := RepairMISDistributed(nw.G, nw.ID, mask, asyncScrambled(int64(trial*7)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !mis.IsMaximalIndependent(nw.G, set) {
			t.Fatalf("trial %d: async repair invalid", trial)
		}
	}
}

func TestRepairAfterMoveIsLocal(t *testing.T) {
	// Move one node, rebuild the graph, repair distributedly from the old
	// roles: flips should be few and messages near the beacon floor.
	rng := rand.New(rand.NewSource(5))
	nw := newNetwork(t, rng, 100, 10)
	valid := mis.Greedy(nw.G, mis.ByID(nw.ID))
	mask := domMask(nw.N(), valid)

	totalFlips, events := 0, 0
	for ev := 0; ev < 30; ev++ {
		v := rng.Intn(nw.N())
		old := nw.Pos[v]
		nw.Pos[v] = geom.Square(udg.SideForAvgDegree(100, 10)).Clamp(
			geom.Point{X: old.X + rng.NormFloat64()*0.4, Y: old.Y + rng.NormFloat64()*0.4})
		nw.G = udg.BuildGraph(nw.Pos, nw.Radius)
		set, flips, stats, err := RepairMISDistributed(nw.G, nw.ID, mask, syncRun)
		if err != nil {
			t.Fatal(err)
		}
		if !mis.IsMaximalIndependent(nw.G, set) {
			t.Fatalf("event %d: repair invalid", ev)
		}
		mask = domMask(nw.N(), set)
		totalFlips += flips
		events++
		if stats.Messages > 4*nw.N() {
			t.Errorf("event %d: repair used %d messages", ev, stats.Messages)
		}
	}
	t.Logf("%d events, %.2f role flips per event", events, float64(totalFlips)/float64(events))
}

func TestMaintainerDistributedRepairStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nw := newNetwork(t, rng, 80, 10)
	m, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	m.SetDistributedRepair(true)
	side := udg.SideForAvgDegree(80, 10)
	applied := 0
	for ev := 0; ev < 60; ev++ {
		v := rng.Intn(nw.N())
		old := m.Network().Pos[v]
		target := geom.Square(side).Clamp(geom.Point{
			X: old.X + rng.NormFloat64()*0.4,
			Y: old.Y + rng.NormFloat64()*0.4,
		})
		rep, err := m.MoveNode(context.Background(), v, target)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Connected {
			if _, err := m.MoveNode(context.Background(), v, old); err != nil {
				t.Fatal(err)
			}
			continue
		}
		applied++
		if err := m.Validate(); err != nil {
			t.Fatalf("event %d under distributed repair: %v", ev, err)
		}
	}
	if applied == 0 {
		t.Fatal("no events applied")
	}
	if m.RepairMessages == 0 {
		t.Error("distributed repair recorded no protocol messages")
	}
	t.Logf("%d events, %d repair messages (%.1f per event)",
		applied, m.RepairMessages, float64(m.RepairMessages)/float64(applied))
}

func TestRepairValidationErrors(t *testing.T) {
	g := graph.New(3)
	if _, _, _, err := RepairMISDistributed(g, []int{1}, make([]bool, 3), syncRun); err == nil {
		t.Error("expected ids length error")
	}
	if _, _, _, err := RepairMISDistributed(g, []int{1, 2, 3}, make([]bool, 2), syncRun); err == nil {
		t.Error("expected mask length error")
	}
}
