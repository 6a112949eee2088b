package cluster

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/udg"
)

func TestByClusterheadStar(t *testing.T) {
	g := graph.New(5)
	for i := 1; i < 5; i++ {
		_ = g.AddEdge(0, i)
	}
	ids := []int{0, 1, 2, 3, 4}
	p, err := ByClusterhead(g, ids, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 1 {
		t.Errorf("clusters = %d", p.Count())
	}
	for v, h := range p.Head {
		if h != 0 {
			t.Errorf("node %d head = %d", v, h)
		}
	}
	if sizes := p.Sizes(); len(sizes) != 1 || sizes[0] != 5 {
		t.Errorf("sizes = %v", sizes)
	}
	if q, _ := p.QuotientGraph(g); q.M() != 0 {
		t.Errorf("single cluster has %d inter-cluster edges", q.M())
	}
}

func TestByClusterheadMinIDRule(t *testing.T) {
	// Triangle 0-1-2 with heads {0, 2}: node 1 is adjacent to both and must
	// join the head with the smaller ID (node 2, ID 1).
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	ids := []int{5, 9, 1}
	p, err := ByClusterhead(g, ids, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Head[1] != 2 {
		t.Errorf("node 1 joined head %d, want 2 (lowest ID)", p.Head[1])
	}
}

func TestByClusterheadErrors(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	if _, err := ByClusterhead(g, []int{0, 1, 2}, []int{5}); err == nil {
		t.Error("expected range error")
	}
	// Heads {0} do not dominate node 2.
	if _, err := ByClusterhead(g, []int{0, 1, 2}, []int{0}); err == nil {
		t.Error("expected non-dominating error")
	}
}

func TestPartitionOnUDGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 80+rng.Intn(80), 10, 300)
		if err != nil {
			t.Fatal(err)
		}
		heads := mis.Greedy(nw.G, mis.ByID(nw.ID))
		p, err := ByClusterhead(nw.G, nw.ID, heads)
		if err != nil {
			t.Fatal(err)
		}
		if p.Count() != len(heads) {
			t.Fatalf("trial %d: %d clusters for %d heads", trial, p.Count(), len(heads))
		}
		// Every member is the head itself or adjacent to it (radius 1).
		for h, members := range p.Members {
			for _, v := range members {
				if v != h && !nw.G.HasEdge(v, h) {
					t.Fatalf("trial %d: member %d not adjacent to head %d", trial, v, h)
				}
			}
		}
		if p.Radius(nw.G) > 1 {
			t.Fatalf("trial %d: radius %d > 1", trial, p.Radius(nw.G))
		}
		// Sizes partition the node set.
		total := 0
		for _, s := range p.Sizes() {
			total += s
		}
		if total != nw.N() {
			t.Fatalf("trial %d: sizes sum to %d of %d", trial, total, nw.N())
		}
		// On a connected network the quotient graph is connected.
		q, qHeads := p.QuotientGraph(nw.G)
		if len(qHeads) != p.Count() || !q.Connected() {
			t.Fatalf("trial %d: quotient graph invalid (heads %d, connected %v)",
				trial, len(qHeads), q.Connected())
		}
	}
}

// TestByClusterheadPropertyAllTopologies checks the partition invariants on
// every registered topology family: MIS heads dominate, every cluster has
// radius at most one, every non-head joined the adjacent head with the
// smallest protocol ID, the clusters partition the node set, and the
// quotient graph of a connected network is connected.
func TestByClusterheadPropertyAllTopologies(t *testing.T) {
	for _, kind := range udg.Kinds() {
		t.Run(kind, func(t *testing.T) {
			top := udg.Topology{Kind: kind}
			if err := top.Normalize(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				n := 60 + rng.Intn(60)
				nw, err := top.GenConnected(rng, n, 9, 300)
				if err != nil {
					t.Fatal(err)
				}
				heads := mis.Greedy(nw.G, mis.ByID(nw.ID))
				p, err := ByClusterhead(nw.G, nw.ID, heads)
				if err != nil {
					t.Fatalf("trial %d: %v (MIS heads must dominate)", trial, err)
				}
				if p.Count() != len(heads) {
					t.Fatalf("trial %d: %d clusters for %d heads", trial, p.Count(), len(heads))
				}
				if p.Radius(nw.G) > 1 {
					t.Fatalf("trial %d: radius %d > 1", trial, p.Radius(nw.G))
				}
				isHead := make(map[int]bool, len(heads))
				for _, h := range heads {
					isHead[h] = true
				}
				seen := 0
				for h, members := range p.Members {
					if !isHead[h] || p.Head[h] != h {
						t.Fatalf("trial %d: cluster owner %d is not a self-owned head", trial, h)
					}
					for _, v := range members {
						seen++
						if p.Head[v] != h {
							t.Fatalf("trial %d: member %d of %d has Head %d", trial, v, h, p.Head[v])
						}
						if v == h {
							continue
						}
						if isHead[v] {
							t.Fatalf("trial %d: head %d is a member of %d (MIS heads not independent?)", trial, v, h)
						}
						if !nw.G.HasEdge(v, h) {
							t.Fatalf("trial %d: member %d not adjacent to head %d", trial, v, h)
						}
						// Min-ID rule: no adjacent head has a smaller ID.
						for _, w := range nw.G.Neighbors(v) {
							if isHead[w] && nw.ID[w] < nw.ID[h] {
								t.Fatalf("trial %d: node %d joined head %d (ID %d) over head %d (ID %d)",
									trial, v, h, nw.ID[h], w, nw.ID[w])
							}
						}
					}
				}
				if seen != nw.N() {
					t.Fatalf("trial %d: members cover %d of %d nodes", trial, seen, nw.N())
				}
				q, qHeads := p.QuotientGraph(nw.G)
				if len(qHeads) != p.Count() || !q.Connected() {
					t.Fatalf("trial %d: quotient graph invalid (heads %d, connected %v)",
						trial, len(qHeads), q.Connected())
				}
			}
		})
	}
}
