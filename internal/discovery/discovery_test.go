package discovery

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func TestOneHopDiscoverySync(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(80), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		tables, stats, err := Run(nw.G, nw.ID, 1, simnet.EngineSync)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(nw.G, nw.ID, tables, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Exactly one HELLO per node — the optimum.
		if stats.Messages != nw.N() {
			t.Errorf("trial %d: %d messages, want %d", trial, stats.Messages, nw.N())
		}
	}
}

func TestTwoHopDiscoverySyncAndAsync(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 40, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineAsync} {
			var opts []simnet.Option
			if eng == simnet.EngineAsync {
				opts = append(opts, simnet.WithScramble(rand.New(rand.NewSource(int64(trial)))))
			}
			tables, stats, err := Run(nw.G, nw.ID, 2, eng, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(nw.G, nw.ID, tables, 2); err != nil {
				t.Fatalf("trial %d %v: %v", trial, eng, err)
			}
			// Two broadcasts per node.
			if stats.Messages != 2*nw.N() {
				t.Errorf("trial %d: %d messages, want %d", trial, stats.Messages, 2*nw.N())
			}
		}
	}
}

func TestDiscoveryIsolatedNode(t *testing.T) {
	g := graph.New(1)
	tables, _, err := Run(g, []int{5}, 2, simnet.EngineSync)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].OneHop) != 0 || len(tables[0].TwoHop) != 0 {
		t.Errorf("isolated node learned neighbours: %+v", tables[0])
	}
	if err := Verify(g, []int{5}, tables, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryValidation(t *testing.T) {
	g := graph.New(2)
	_ = g.AddEdge(0, 1)
	if _, _, err := Run(g, []int{0, 1}, 3, simnet.EngineSync); err == nil {
		t.Error("expected error for unsupported radius")
	}
	if _, _, err := Run(g, []int{0}, 1, simnet.EngineSync); err == nil {
		t.Error("expected error for id count mismatch")
	}
	if err := Verify(g, []int{0, 1}, nil, 1); err == nil {
		t.Error("expected error for table count mismatch")
	}
}

func TestDiscoveryUnderLossDetectable(t *testing.T) {
	// HELLO discovery under message loss yields incomplete tables that
	// Verify must flag — loss is detectable, never silent corruption.
	rng := rand.New(rand.NewSource(3))
	nw, err := udg.GenConnectedAvgDegree(rng, 50, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := Run(nw.G, nw.ID, 1, simnet.EngineSync,
		simnet.WithFaults(simnet.FaultPlan{Seed: rand.New(rand.NewSource(4)).Int63(), DropRate: 0.5}))
	if err != nil {
		// Acceptable: a k=2 run can stall; k=1 never errors though.
		t.Fatalf("k=1 discovery should always quiesce: %v", err)
	}
	if err := Verify(nw.G, nw.ID, tables, 1); err == nil {
		t.Error("50% loss produced complete tables; injection suspect")
	}
}

func TestTwoHopExcludesSelfAndOneHop(t *testing.T) {
	// Triangle plus a pendant: node 3 is 2 hops from 1 and 2, 1 hop from 0.
	g := graph.New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(0, 3)
	ids := []int{10, 11, 12, 13}
	tables, _, err := Run(g, ids, 2, simnet.EngineSync)
	if err != nil {
		t.Fatal(err)
	}
	if got := tables[3].TwoHop; len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("node 3 two-hop = %v, want [11 12]", got)
	}
	if got := tables[1].TwoHop; len(got) != 1 || got[0] != 13 {
		t.Errorf("node 1 two-hop = %v, want [13]", got)
	}
	// Node 0 sees everyone within one hop: empty 2-hop list.
	if len(tables[0].TwoHop) != 0 {
		t.Errorf("node 0 two-hop = %v, want empty", tables[0].TwoHop)
	}
}
