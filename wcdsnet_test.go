package wcdsnet

import (
	"context"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	nw, err := GenerateNetwork(42, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := mustRun(t, nw, AlgoII)
	if !IsWCDS(nw, res.Dominators) {
		t.Fatal("Algorithm II result is not a WCDS")
	}
	res1, _ := mustRun(t, nw, AlgoI)
	if !IsWCDS(nw, res1.Dominators) {
		t.Fatal("Algorithm I result is not a WCDS")
	}
	rep, err := MeasureDilation(nw, res, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TopoBoundHolds || !rep.GeoBoundHolds {
		t.Errorf("Theorem 11 bounds violated: %+v", rep)
	}
}

func TestNewNetworkFacade(t *testing.T) {
	nw, err := NewNetwork([]Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if nw.G.M() != 1 {
		t.Errorf("edges = %d", nw.G.M())
	}
	if _, err := NewNetwork([]Point{{X: 0, Y: 0}}, []int{1, 2}); err == nil {
		t.Error("expected validation error")
	}
}

func TestDistributedFacades(t *testing.T) {
	nw, err := GenerateNetwork(7, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mustRun(t, nw, AlgoII)

	resSync, stats, err := Run(nw, AlgoII, Distributed())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages == 0 {
		t.Error("no messages recorded")
	}
	if len(resSync.Dominators) != len(want.Dominators) {
		t.Errorf("sync distributed differs from centralized")
	}

	resAsync, _, err := Run(nw, AlgoII, WithEngine(EngineAsync), WithScheduleSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Dominators {
		if resAsync.Dominators[i] != v {
			t.Fatalf("async distributed differs from centralized at %d", i)
		}
	}

	res1, _, err := Run(nw, AlgoI, Distributed())
	if err != nil {
		t.Fatal(err)
	}
	if !IsWCDS(nw, res1.Dominators) {
		t.Error("distributed Algorithm I result invalid")
	}
}

func TestRoutingAndBroadcastFacades(t *testing.T) {
	nw, err := GenerateNetwork(11, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, tables, _, err := AlgorithmIIWithTables(nw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(nw, res, tables)
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Route(0, nw.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != nw.N()-1 {
		t.Errorf("path = %v", path)
	}

	bb := BackboneBroadcast(nw, res, tables, 0)
	bf := BlindFlood(nw, 0)
	if !bb.Covered || !bf.Covered {
		t.Error("broadcast coverage failed")
	}
	if bb.Transmissions >= bf.Transmissions {
		t.Errorf("backbone broadcast (%d tx) should beat blind flooding (%d tx)",
			bb.Transmissions, bf.Transmissions)
	}
}

func TestMaintainerFacade(t *testing.T) {
	nw, err := GenerateNetwork(13, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := nw.Pos[0]
	rep, err := m.MoveNode(context.Background(), 0, Point{X: p.X + 0.2, Y: p.Y})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Connected {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateNetworkErrors(t *testing.T) {
	// Absurd density cannot connect: the helper must error, not hang.
	if _, err := GenerateNetwork(1, 50, 0.1); err == nil {
		t.Error("expected generation failure at degree 0.1")
	}
}
