// Package cluster partitions an ad hoc network around its MIS dominators —
// the clustering application the paper inherits from Chen & Liestman [8]:
// every node joins the cluster of an adjacent clusterhead, giving clusters
// of radius one whose heads form the WCDS's independent core.
package cluster

import (
	"errors"
	"sort"

	"wcdsnet/internal/graph"
)

// Partition assigns every node to a clusterhead.
type Partition struct {
	// Head[v] is the clusterhead node of v's cluster; Head[h] == h exactly
	// for clusterheads.
	Head []int
	// Members maps a clusterhead to its sorted member list (including the
	// head itself).
	Members map[int][]int
}

// ByClusterhead builds the radius-1 partition: every clusterhead (MIS
// dominator) owns itself, and every other node joins the adjacent head with
// the smallest protocol ID — the same rule the routing layer uses. heads
// must form a dominating set of g.
func ByClusterhead(g *graph.Graph, ids []int, heads []int) (Partition, error) {
	isHead := make([]bool, g.N())
	for _, h := range heads {
		if h < 0 || h >= g.N() {
			return Partition{}, errors.New("cluster: head index out of range")
		}
		isHead[h] = true
	}
	p := Partition{
		Head:    make([]int, g.N()),
		Members: make(map[int][]int, len(heads)),
	}
	for v := 0; v < g.N(); v++ {
		if isHead[v] {
			p.Head[v] = v
			continue
		}
		best := -1
		for _, w := range g.Neighbors(v) {
			if isHead[w] && (best == -1 || ids[w] < ids[best]) {
				best = w
			}
		}
		if best == -1 {
			return Partition{}, errors.New("cluster: node without an adjacent head (heads not dominating)")
		}
		p.Head[v] = best
	}
	for v, h := range p.Head {
		p.Members[h] = append(p.Members[h], v)
	}
	for h := range p.Members {
		sort.Ints(p.Members[h])
	}
	return p, nil
}

// Count returns the number of clusters.
func (p Partition) Count() int { return len(p.Members) }

// Sizes returns the cluster sizes in ascending order.
func (p Partition) Sizes() []int {
	out := make([]int, 0, len(p.Members))
	for _, m := range p.Members {
		out = append(out, len(m))
	}
	sort.Ints(out)
	return out
}

// Radius returns the maximum hop distance from any node to its clusterhead
// (1 by construction for dominating heads; 0 for singleton clusters).
func (p Partition) Radius(g *graph.Graph) int {
	r := 0
	for v, h := range p.Head {
		if v != h {
			r = 1
			_ = g
			break
		}
	}
	return r
}

// QuotientGraph returns the cluster adjacency graph: one vertex per
// clusterhead (in sorted head order) with an edge between clusters joined
// by at least one network edge. Returns the graph and the sorted head list
// indexing it.
func (p Partition) QuotientGraph(g *graph.Graph) (*graph.Graph, []int) {
	heads := make([]int, 0, len(p.Members))
	for h := range p.Members {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	idx := make(map[int]int, len(heads))
	for i, h := range heads {
		idx[h] = i
	}
	q := graph.New(len(heads))
	for _, e := range g.Edges() {
		a, b := idx[p.Head[e[0]]], idx[p.Head[e[1]]]
		if a != b && !q.HasEdge(a, b) {
			_ = q.AddEdge(a, b)
		}
	}
	return q, heads
}
