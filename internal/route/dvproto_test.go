package route

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

func syncRun(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
	return simnet.RunSync(g, procs)
}

func asyncRun(seed int64) func(*graph.Graph, []simnet.Proc) (simnet.Stats, error) {
	return func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		return simnet.EngineAsync.Run(g, procs, simnet.WithScramble(rand.New(rand.NewSource(seed))))
	}
}

func TestDVDistancesMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		nw, res, tables := buildBackbone(t, rng, 40+rng.Intn(60), 8)
		dv, stats, err := BuildTablesDistributed(nw.G, nw.ID, res, tables, syncRun)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages == 0 {
			t.Fatal("DV protocol sent no messages")
		}
		// The DV vectors converge to the dominator-graph shortest-path
		// distances; compare overlay hop counts with the centralized BFS
		// router by walking both next-hop chains.
		central, err := NewRouter(nw.G, nw.ID, res, tables)
		if err != nil {
			t.Fatal(err)
		}
		nodeOfID := make(map[int]int, nw.N())
		for v, id := range nw.ID {
			nodeOfID[id] = v
		}
		chainLen := func(next func(cur, dst int) (int, bool), src, dst int) int {
			steps := 0
			for cur := src; cur != dst; {
				nxt, ok := next(cur, dst)
				if !ok {
					return -1
				}
				cur = nxt
				steps++
				if steps > nw.N() {
					return -1
				}
			}
			return steps
		}
		centralNext := func(cur, dst int) (int, bool) {
			nxt, ok := central.nextDom[cur][dst]
			return nxt, ok
		}
		dvNext := func(cur, dst int) (int, bool) {
			viaID, ok := dv[cur][nw.ID[dst]]
			if !ok {
				return 0, false
			}
			v, ok := nodeOfID[viaID]
			return v, ok
		}
		for _, d := range res.MISDominators {
			if len(dv[d]) != len(res.MISDominators)-1 {
				t.Fatalf("trial %d: dominator %d has %d DV rows for %d peers",
					trial, d, len(dv[d]), len(res.MISDominators)-1)
			}
			for _, dst := range res.MISDominators {
				if d == dst {
					continue
				}
				want := chainLen(centralNext, d, dst)
				got := chainLen(dvNext, d, dst)
				if want <= 0 || got != want {
					t.Fatalf("trial %d: overlay distance %d→%d: DV %d, BFS %d",
						trial, d, dst, got, want)
				}
			}
		}
	}
}

func TestDVRouterRoutesWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		nw, res, tables := buildBackbone(t, rng, 40+rng.Intn(50), 8)
		dv, _, err := BuildTablesDistributed(nw.G, nw.ID, res, tables, syncRun)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouterFromDV(nw.G, nw.ID, res, tables, dv)
		if err != nil {
			t.Fatal(err)
		}
		spanner := res.Spanner
		for src := 0; src < nw.N(); src++ {
			hops, _ := nw.G.BFS(src)
			for dst := 0; dst < nw.N(); dst++ {
				path, err := r.Route(src, dst)
				if err != nil {
					t.Fatalf("trial %d: Route(%d,%d): %v", trial, src, dst, err)
				}
				for i := 1; i < len(path); i++ {
					if !nw.G.HasEdge(path[i-1], path[i]) {
						t.Fatalf("path %v uses a non-edge", path)
					}
					if len(path) > 2 && !spanner.HasEdge(path[i-1], path[i]) {
						t.Fatalf("path %v leaves the spanner", path)
					}
				}
				if h := hops[dst]; h > 0 && len(path)-1 > 3*h+2 {
					t.Fatalf("trial %d: DV route %d→%d takes %d hops, bound %d",
						trial, src, dst, len(path)-1, 3*h+2)
				}
			}
		}
	}
}

func TestDVAsyncConvergesToSameDistances(t *testing.T) {
	// Distance-vector convergence is schedule independent: the distances
	// are a fixpoint of the overlay, even though next-hop CHOICES may
	// differ on ties. Realized route lengths are not comparable — an
	// overlay hop expands to 2 or 3 physical hops depending on which tie
	// was taken — so compare the overlay distances themselves, recovered
	// exactly by walking each engine's next-hop chains.
	rng := rand.New(rand.NewSource(3))
	nw, res, tables := buildBackbone(t, rng, 60, 8)
	dvSync, _, err := BuildTablesDistributed(nw.G, nw.ID, res, tables, syncRun)
	if err != nil {
		t.Fatal(err)
	}
	dvAsync, _, err := BuildTablesDistributed(nw.G, nw.ID, res, tables, asyncRun(9))
	if err != nil {
		t.Fatal(err)
	}
	nodeOfID := make(map[int]int, nw.N())
	for v, id := range nw.ID {
		nodeOfID[id] = v
	}
	chainLen := func(dv map[int]map[int]int, src, dst int) int {
		steps := 0
		for cur := src; cur != dst; {
			viaID, ok := dv[cur][nw.ID[dst]]
			if !ok {
				return -1
			}
			cur, ok = nodeOfID[viaID]
			if !ok {
				return -1
			}
			steps++
			if steps > nw.N() {
				return -1 // next-hop loop: the vectors did not converge
			}
		}
		return steps
	}
	for _, d := range res.MISDominators {
		for _, dst := range res.MISDominators {
			if d == dst {
				continue
			}
			dS := chainLen(dvSync, d, dst)
			dA := chainLen(dvAsync, d, dst)
			if dS <= 0 || dS != dA {
				t.Fatalf("overlay distance %d→%d diverges: sync %d vs async %d", d, dst, dS, dA)
			}
		}
	}
}

func TestDVMessageCost(t *testing.T) {
	// DV converges with a bounded cost; log the per-clusterhead message
	// price to keep an eye on overlay efficiency.
	rng := rand.New(rand.NewSource(4))
	nw, res, tables := buildBackbone(t, rng, 120, 10)
	_, stats, err := BuildTablesDistributed(nw.G, nw.ID, res, tables, syncRun)
	if err != nil {
		t.Fatal(err)
	}
	heads := len(res.MISDominators)
	t.Logf("n=%d clusterheads=%d DV messages=%d (%.1f per head)",
		nw.N(), heads, stats.Messages, float64(stats.Messages)/float64(heads))
	if stats.Messages > 200*heads*heads {
		t.Errorf("DV cost %d grossly superquadratic in %d heads", stats.Messages, heads)
	}
}
