// Package graph implements the undirected-graph substrate used throughout
// the WCDS library: adjacency storage, breadth-first hop distances,
// weighted shortest paths, and connectivity queries.
//
// Nodes are identified by dense integer indices 0..N-1. The wireless papers
// this library reproduces use arbitrary unique node IDs for symmetry
// breaking; that identity layer lives in the udg package (as a rank
// permutation), keeping this package a plain graph-theory toolkit.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected simple graph over nodes 0..N-1.
//
// The zero value is an empty graph with zero nodes; use New to create a
// graph with a fixed node count.
type Graph struct {
	adj   [][]int
	edges int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// NewWithDegrees returns an empty graph with len(deg) nodes whose adjacency
// lists are pre-sized to the given per-node degree capacities, carved from
// one contiguous arena. Bulk constructions that already know every node's
// final degree (e.g. a counted two-pass build) avoid the per-node append
// growth that dominates large-graph assembly; exceeding a node's hinted
// capacity is safe but falls back to ordinary slice growth.
func NewWithDegrees(deg []int) *Graph {
	total := 0
	for _, d := range deg {
		total += d
	}
	arena := make([]int, total)
	adj := make([][]int, len(deg))
	off := 0
	for i, d := range deg {
		adj[i] = arena[off : off : off+d]
		off += d
	}
	return &Graph{adj: adj}
}

// FromEdges builds a graph with n nodes and the given edge list. Duplicate
// and self-loop entries are rejected with an error, as are out-of-range
// endpoints.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Patched returns a successor of g with n ≥ g.N() nodes that shares every
// adjacency list of g except the replaced ones: node nodes[i] gets
// lists[i] (nodes must be distinct), and nodes from g.N() on that are not
// replaced get empty lists.
// g is never modified, so it stays valid beside its successor; shared
// lists are capacity-clipped, so an AddEdge on either graph copies rather
// than writes into the other.
//
// The caller keeps the result a simple undirected graph: an edge appears
// in both endpoints' lists, so every node that gains or loses a neighbour
// must be among nodes. The edge count then follows from the replaced
// lists' change in degree.
func (g *Graph) Patched(n int, nodes []int, lists [][]int) *Graph {
	adj := make([][]int, n)
	for u, nbrs := range g.adj {
		adj[u] = nbrs[:len(nbrs):len(nbrs)]
	}
	degDelta := 0
	for i, u := range nodes {
		degDelta += len(lists[i]) - len(adj[u])
		adj[u] = lists[i][:len(lists[i]):len(lists[i])]
	}
	return &Graph{adj: adj, edges: g.edges + degDelta/2}
}

// Equal reports whether g and h have the same nodes and the same adjacency
// lists in the same order.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.adj) != len(h.adj) || g.edges != h.edges {
		return false
	}
	for u, nbrs := range g.adj {
		if !slices.Equal(nbrs, h.adj[u]) {
			return false
		}
	}
	return true
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. It returns an error for
// self-loops, out-of-range endpoints, or duplicate edges.
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(g.adj))
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

// AddEdgeUnchecked inserts the undirected edge {u, v} without the
// self-loop, range and duplicate checks of AddEdge. It exists for bulk
// constructions (udg.BuildGraph) whose geometry already guarantees a valid,
// duplicate-free edge stream; the duplicate scan in AddEdge is O(degree)
// and dominates dense builds. Callers violating the guarantees corrupt the
// graph.
func (g *Graph) AddEdgeUnchecked(u, v int) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
}

// HasEdge reports whether the undirected edge {u, v} exists. Out-of-range
// endpoints report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	return maxDeg
}

// AvgDegree returns the average degree, 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// Edges returns all edges as pairs with the smaller endpoint first, sorted
// lexicographically. The result is freshly allocated.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), edges: g.edges}
	for u, nbrs := range g.adj {
		c.adj[u] = append([]int(nil), nbrs...)
	}
	return c
}

// SortAdjacency sorts every adjacency list in ascending order. Protocol
// simulations call this once so message iteration order is deterministic.
func (g *Graph) SortAdjacency() {
	for _, nbrs := range g.adj {
		sort.Ints(nbrs)
	}
}

// Unreachable is the hop distance reported for nodes that cannot be reached.
const Unreachable = -1

// BFS computes hop distances and BFS-tree parents from src. dist[v] is the
// minimum hop count from src to v, or Unreachable. parent[src] is -1, and
// parent[v] is v's predecessor on a shortest hop path.
//
// The returned slices are freshly allocated and owned by the caller. Hot
// loops that traverse repeatedly should hold a Scratch and call BFSInto.
func (g *Graph) BFS(src int) (dist, parent []int) {
	return g.BFSInto(new(Scratch), src)
}

// HopDist returns the minimum number of hops between u and v, or
// Unreachable if disconnected.
func (g *Graph) HopDist(u, v int) int {
	if u == v {
		return 0
	}
	s := GetScratch()
	dist, _ := g.BFSBoundedInto(s, u, len(g.adj))
	d := dist[v]
	s.Release()
	return d
}

// BFSBounded is BFS truncated at maxHops: nodes farther than maxHops keep
// distance Unreachable. It is the workhorse for "within k hops" queries.
// The returned slices are caller-owned; see BFSBoundedInto for the pooled
// variant.
func (g *Graph) BFSBounded(src, maxHops int) (dist []int, visited []int) {
	return g.BFSBoundedInto(new(Scratch), src, maxHops)
}

// NodesWithin returns all nodes at hop distance in [1, k] from src, sorted
// ascending. src itself is excluded.
func (g *Graph) NodesWithin(src, k int) []int {
	dist, visited := g.BFSBounded(src, k)
	var out []int
	for _, v := range visited {
		if v != src && dist[v] >= 1 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Connected reports whether the graph is connected. Empty and single-node
// graphs are connected.
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	s := GetScratch()
	defer s.Release()
	dist, _ := g.BFSInto(s, 0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as sorted node lists, ordered
// by their smallest member.
func (g *Graph) Components() [][]int {
	n := len(g.adj)
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// PathTo reconstructs the path from the BFS/Dijkstra source to v using a
// parent array. It returns nil if v was unreachable (parent chain broken
// and v is not the source, detected by parent[v] == -1 while dist-style
// callers should check reachability first).
func PathTo(parent []int, src, v int) []int {
	if v < 0 || v >= len(parent) {
		return nil
	}
	if v != src && parent[v] == -1 {
		return nil
	}
	var rev []int
	for cur := v; cur != -1; cur = parent[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WeightFunc assigns a nonnegative length to the edge {u, v}. It is only
// called for edges present in the graph.
type WeightFunc func(u, v int) float64

// EdgeWeights evaluates w once per adjacency slot: wt[u][i] is
// w(u, g.Neighbors(u)[i]), the call a traversal relaxing that slot would
// make, so traversals over wt see the very same floats. The rows are views
// into one flat []float64 (two allocations in all). Repeated traversals
// (every source of a dilation measurement) compute the weights once here
// instead of once per relaxation.
//
// The result is aligned with the adjacency as it is now: it is invalid once
// the graph gains an edge or its lists are reordered (SortAdjacency), and
// must then be recomputed.
func (g *Graph) EdgeWeights(w WeightFunc) [][]float64 {
	flat := make([]float64, 2*g.edges)
	wt := make([][]float64, len(g.adj))
	off := 0
	for u, nbrs := range g.adj {
		row := flat[off : off+len(nbrs) : off+len(nbrs)]
		for i, v := range nbrs {
			row[i] = w(u, v)
		}
		wt[u] = row
		off += len(nbrs)
	}
	return wt
}

// Dijkstra computes single-source weighted shortest-path distances using w.
// dist[v] is math.Inf(1) for unreachable nodes. parent follows the same
// convention as BFS. The returned slices are caller-owned; hot loops should
// compute EdgeWeights once and use DijkstraInto with a reusable Scratch.
func (g *Graph) Dijkstra(src int, w WeightFunc) (dist []float64, parent []int) {
	return g.DijkstraInto(new(Scratch), src, g.EdgeWeights(w))
}

// MinHopMinLength computes, for every node v, the minimum hop count from
// src and, among all minimum-hop paths, the one of smallest total length
// under w. It returns hop counts, those path lengths, and a parent array of
// one such path. This matches the paper's l_{G'}(u,v) notion: the length of
// a minimum-hop path in the spanner.
// Process level by level: within each BFS level relaxations cannot
// improve hop counts, only lengths at the next level, so a standard
// frontier sweep suffices (see MinHopMinLengthInto for the loop).
func (g *Graph) MinHopMinLength(src int, w WeightFunc) (hops []int, length []float64, parent []int) {
	return g.MinHopMinLengthInto(new(Scratch), src, g.EdgeWeights(w))
}

// MaxHopMinHopPath computes, for every node v, the minimum hop count from
// src and, among all minimum-hop paths, the MAXIMUM total length under w.
// This is the worst-case l_{G'} of the paper's geometric dilation: "the
// maximum total length of the minimum-hop paths".
func (g *Graph) MaxHopMinHopPath(src int, w WeightFunc) (hops []int, length []float64) {
	return g.MaxHopMinHopPathInto(new(Scratch), src, g.EdgeWeights(w))
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

// heapPQ is a minimal binary min-heap on pqItem.dist. We hand-roll it
// rather than using container/heap to avoid interface boxing on the
// shortest-path hot loop.
type heapPQ struct {
	items []pqItem
}

func (h *heapPQ) len() int { return len(h.items) }

func (h *heapPQ) push(it pqItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *heapPQ) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].dist < h.items[smallest].dist {
			smallest = l
		}
		if r < last && h.items[r].dist < h.items[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
