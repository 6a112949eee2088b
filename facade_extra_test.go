package wcdsnet

import (
	"errors"
	"testing"
)

func TestZeroKnowledgeFacade(t *testing.T) {
	nw, err := GenerateNetwork(21, 70, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mustRun(t, nw, AlgoII)
	got, stats, err := Run(nw, AlgoII, ZeroKnowledge())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dominators) != len(want.Dominators) {
		t.Errorf("zero-knowledge |WCDS| %d != centralized %d", len(got.Dominators), len(want.Dominators))
	}
	for i := range want.Dominators {
		if got.Dominators[i] != want.Dominators[i] {
			t.Fatalf("dominator sets differ at %d", i)
		}
	}
	if stats.Messages <= nw.N() {
		t.Errorf("messages = %d, expected more than one HELLO per node", stats.Messages)
	}
	// Async variant too.
	gotAsync, _, err := Run(nw, AlgoII, ZeroKnowledge(), WithEngine(EngineAsync), WithScheduleSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Dominators {
		if gotAsync.Dominators[i] != want.Dominators[i] {
			t.Fatalf("async zero-knowledge diverged at %d", i)
		}
	}
}

func TestClusterByFacade(t *testing.T) {
	nw, err := GenerateNetwork(22, 90, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := mustRun(t, nw, AlgoII)
	p, err := ClusterBy(nw, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != len(res.MISDominators) {
		t.Errorf("clusters = %d, heads = %d", p.Count(), len(res.MISDominators))
	}
	total := 0
	for _, s := range p.Sizes() {
		total += s
	}
	if total != nw.N() {
		t.Errorf("cluster sizes sum to %d of %d", total, nw.N())
	}
	if p.Radius(nw.G) > 1 {
		t.Errorf("cluster radius %d > 1", p.Radius(nw.G))
	}
}

func TestDiscoverNeighborsFacade(t *testing.T) {
	nw, err := GenerateNetwork(23, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineSync, EngineAsync, EngineEvent} {
		tables, stats, err := DiscoverNeighbors(nw, 2, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if len(tables) != nw.N() {
			t.Fatalf("%v: tables = %d", eng, len(tables))
		}
		if stats.Messages != 2*nw.N() {
			t.Errorf("%v: messages = %d, want %d", eng, stats.Messages, 2*nw.N())
		}
		// Every node's one-hop table matches the graph exactly.
		for v := range tables {
			if len(tables[v].OneHop) != nw.G.Degree(v) {
				t.Fatalf("%v: node %d discovered %d neighbours of %d", eng, v, len(tables[v].OneHop), nw.G.Degree(v))
			}
		}
	}
	if _, _, err := DiscoverNeighbors(nw, 2, Engine(9)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("unknown engine: err %v, want ErrInvalidInput", err)
	}
}
