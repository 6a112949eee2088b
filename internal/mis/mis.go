// Package mis constructs maximal independent sets (MIS) with pluggable node
// rankings and audits the structural properties the paper builds on.
//
// Section 2 of the paper develops the MIS machinery behind both WCDS
// algorithms: every MIS of a graph is an independent dominating set; in a
// unit-disk graph a non-MIS node has at most five MIS neighbours (Lemma 1);
// an MIS node has at most 23 MIS peers exactly two hops away and at most 47
// within three hops (Lemma 2); complementary subsets of an MIS are two or
// three hops apart (Lemma 3), and exactly two when the MIS is built with
// level-based ranking (Theorem 4).
//
// The centralized construction here (Greedy) mirrors the paper's Table 1:
// repeatedly take the lowest-ranked remaining white node, mark it black and
// its neighbours gray. The distributed counterpart lives in the wcds
// package and is tested against this reference.
package mis

import (
	"sort"

	"wcdsnet/internal/graph"
)

// Less is a strict total order on node indices: Less(u, v) reports whether
// u ranks strictly before (lower than) v. Lower-ranked nodes are selected
// into the MIS first.
type Less func(u, v int) bool

// ByID ranks nodes by their protocol ID ascending. ids[u] must be unique.
func ByID(ids []int) Less {
	return func(u, v int) bool { return ids[u] < ids[v] }
}

// ByLevelID ranks nodes lexicographically by (level, ID) — the paper's
// level-based ranking, where level is the node's hop distance from the root
// of a spanning tree.
func ByLevelID(levels, ids []int) Less {
	return func(u, v int) bool {
		if levels[u] != levels[v] {
			return levels[u] < levels[v]
		}
		return ids[u] < ids[v]
	}
}

// ByDegreeID ranks nodes by static degree descending, breaking ties by ID
// ascending — the classic "prefer hubs" heuristic the paper mentions as an
// alternative static ranking.
func ByDegreeID(g *graph.Graph, ids []int) Less {
	return func(u, v int) bool {
		if g.Degree(u) != g.Degree(v) {
			return g.Degree(u) > g.Degree(v)
		}
		return ids[u] < ids[v]
	}
}

// Greedy computes the MIS selected by repeatedly taking the lowest-ranked
// white node, colouring it black and its neighbours gray (the paper's
// Table 1). The result is sorted by node index.
func Greedy(g *graph.Graph, less Less) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })

	const (
		white = iota
		gray
		black
	)
	color := make([]int8, n)
	var set []int
	for _, u := range order {
		if color[u] != white {
			continue
		}
		color[u] = black
		set = append(set, u)
		for _, v := range g.Neighbors(u) {
			if color[v] == white {
				color[v] = gray
			}
		}
	}
	sort.Ints(set)
	return set
}

// LevelsFrom returns each node's hop distance from root — the level
// assignment used by the paper's level-based ranking when the spanning tree
// is a BFS tree. Unreachable nodes get graph.Unreachable.
func LevelsFrom(g *graph.Graph, root int) []int {
	dist, _ := g.BFS(root)
	return dist
}

// toSet converts a node list into a membership table over n nodes.
func toSet(n int, nodes []int) []bool {
	in := make([]bool, n)
	for _, v := range nodes {
		in[v] = true
	}
	return in
}

// IsIndependent reports whether no two nodes of set are adjacent in g.
func IsIndependent(g *graph.Graph, set []int) bool {
	in := toSet(g.N(), set)
	for _, u := range set {
		for _, v := range g.Neighbors(u) {
			if in[v] {
				return false
			}
		}
	}
	return true
}

// IsDominating reports whether every node of g is in set or adjacent to a
// member of set.
func IsDominating(g *graph.Graph, set []int) bool {
	in := toSet(g.N(), set)
	for u := 0; u < g.N(); u++ {
		if in[u] {
			continue
		}
		dominated := false
		for _, v := range g.Neighbors(u) {
			if in[v] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is independent and no node can
// be added while preserving independence — equivalently, independent and
// dominating.
func IsMaximalIndependent(g *graph.Graph, set []int) bool {
	return IsIndependent(g, set) && IsDominating(g, set)
}

// MaxMISNeighbors returns the maximum, over nodes outside set, of the
// number of set members adjacent to the node. Lemma 1 bounds this by 5 in
// unit-disk graphs. Returns 0 when every node is in set.
func MaxMISNeighbors(g *graph.Graph, set []int) int {
	in := toSet(g.N(), set)
	maxCount := 0
	for u := 0; u < g.N(); u++ {
		if in[u] {
			continue
		}
		count := 0
		for _, v := range g.Neighbors(u) {
			if in[v] {
				count++
			}
		}
		if count > maxCount {
			maxCount = count
		}
	}
	return maxCount
}

// PackingCounts returns, for the MIS member with the densest neighbourhood,
// the number of MIS peers exactly two hops away (maxTwoHop) and within
// three hops (maxWithinThree). Lemma 2 bounds these by 23 and 47 in
// unit-disk graphs.
func PackingCounts(g *graph.Graph, set []int) (maxTwoHop, maxWithinThree int) {
	in := toSet(g.N(), set)
	for _, u := range set {
		dist, visited := g.BFSBounded(u, 3)
		two, three := 0, 0
		for _, v := range visited {
			if v == u || !in[v] {
				continue
			}
			switch dist[v] {
			case 2:
				two++
				three++
			case 3:
				three++
			}
		}
		if two > maxTwoHop {
			maxTwoHop = two
		}
		if three > maxWithinThree {
			maxWithinThree = three
		}
	}
	return maxTwoHop, maxWithinThree
}

// SubsetGraph builds the auxiliary graph H_k over set (indexed by position
// in set) with an edge between two members iff their hop distance in g is
// between 1 and maxHop. For an independent set there are no 1-hop pairs, so
// H_2 connected ⇔ complementary subsets are exactly two hops apart
// (Theorem 4) and H_3 connected ⇔ Lemma 3 holds. For non-independent sets
// (e.g. a full WCDS including additional dominators) adjacent pairs count
// as distance 1, matching Lemma 9's "at most two hops" hypothesis.
func SubsetGraph(g *graph.Graph, set []int, maxHop int) *graph.Graph {
	h := graph.New(len(set))
	idx := make(map[int]int, len(set))
	for i, v := range set {
		idx[v] = i
	}
	in := toSet(g.N(), set)
	for i, u := range set {
		dist, visited := g.BFSBounded(u, maxHop)
		for _, v := range visited {
			if v == u || !in[v] {
				continue
			}
			if j := idx[v]; j > i && dist[v] >= 1 {
				_ = h.AddEdge(i, j)
			}
		}
	}
	return h
}

// MaxComplementaryDistance returns the smallest k such that the auxiliary
// graph H_k over set is connected — equivalently, the maximum over all
// complementary subset pairs (A, B) of the shortest hop distance between A
// and B. ok is false if no k ≤ kMax connects the set (e.g. a disconnected
// base graph). Sets of size ≤ 1 report k = 0.
func MaxComplementaryDistance(g *graph.Graph, set []int, kMax int) (k int, ok bool) {
	if len(set) <= 1 {
		return 0, true
	}
	for k = 1; k <= kMax; k++ {
		if SubsetGraph(g, set, k).Connected() {
			return k, true
		}
	}
	return 0, false
}
