package graph

import (
	"math"
	"sync"
)

// Scratch is the reusable working memory of the traversal core: the
// dist/parent/length arrays every single-source computation fills, the BFS
// queue, the level-sweep frontiers and the Dijkstra heap. One Scratch
// serves one traversal at a time; reusing it across calls makes the
// steady-state traversal loop allocation-free, which is what repeated
// measurement (dilation over many sources, broadcast sweeps, maintenance
// re-checks) needs.
//
// The slices returned by the *Into methods are owned by the Scratch and
// are valid only until its next use. Callers that need the data past the
// next traversal must copy it. A Scratch must not be shared between
// goroutines; give each worker its own (see spanner.DilationN).
//
// The zero value is ready to use and grows to the largest graph it has
// seen. GetScratch/Release recycle instances through a package pool so
// call sites that cannot carry one around still avoid the per-call
// allocations.
type Scratch struct {
	dist   []int
	parent []int
	length []float64
	queue  []int // BFS FIFO (head-indexed) / level-sweep frontier
	next   []int // second frontier for the min-hop level sweeps
	done   []bool
	heap   heapPQ
}

// NewScratch returns an empty scratch. Equivalent to new(Scratch);
// provided for call-site clarity.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the package pool. Pair with Release.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the scratch to the package pool. The caller must not
// touch the scratch — or any slice obtained from it — afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// ints resizes buf to n, reallocating only on growth.
func ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// BFSInto is BFS computed in s: identical results, but the returned slices
// are scratch-owned and the steady state allocates nothing.
func (g *Graph) BFSInto(s *Scratch, src int) (dist, parent []int) {
	n := len(g.adj)
	dist = ints(&s.dist, n)
	parent = ints(&s.parent, n)
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return dist, parent
	}
	dist[src] = 0
	q := ints(&s.queue, n)[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				parent[v] = u
				q = append(q, v)
			}
		}
	}
	s.queue = q[:cap(q)]
	return dist, parent
}

// BFSBoundedInto is BFSBounded computed in s. visited aliases scratch
// memory like the other outputs.
func (g *Graph) BFSBoundedInto(s *Scratch, src, maxHops int) (dist, visited []int) {
	n := len(g.adj)
	dist = ints(&s.dist, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= n || maxHops < 0 {
		return dist, nil
	}
	dist[src] = 0
	q := ints(&s.queue, n)[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		if dist[u] == maxHops {
			continue
		}
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				q = append(q, v)
			}
		}
	}
	visited = q
	s.queue = q[:cap(q)]
	return dist, visited
}

// DijkstraInto is Dijkstra over the slot weights wt (see EdgeWeights):
// identical results, scratch-owned outputs, zero steady-state allocations
// (the heap keeps its high-water storage across calls).
func (g *Graph) DijkstraInto(s *Scratch, src int, wt [][]float64) (dist []float64, parent []int) {
	n := len(g.adj)
	dist = floats(&s.length, n)
	parent = ints(&s.parent, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return dist, parent
	}
	dist[src] = 0
	done := s.doneSlice(n)
	pq := &s.heap
	pq.items = pq.items[:0]
	pq.push(pqItem{node: src, dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		nbrs := g.adj[u]
		du, wu := dist[u], wt[u][:len(nbrs)]
		for i, v := range nbrs {
			if done[v] {
				continue
			}
			nd := du + wu[i]
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				pq.push(pqItem{node: v, dist: nd})
			}
		}
	}
	return dist, parent
}

// doneSlice returns the done marks resized to n and cleared.
func (s *Scratch) doneSlice(n int) []bool {
	if cap(s.done) < n {
		s.done = make([]bool, n)
	}
	s.done = s.done[:n]
	clear(s.done)
	return s.done
}

// MinHopMinLengthInto is MinHopMinLength over the slot weights wt,
// computed in s.
func (g *Graph) MinHopMinLengthInto(s *Scratch, src int, wt [][]float64) (hops []int, length []float64, parent []int) {
	n := len(g.adj)
	hops = ints(&s.dist, n)
	length = floats(&s.length, n)
	parent = ints(&s.parent, n)
	for i := range hops {
		hops[i] = Unreachable
		length[i] = math.Inf(1)
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return hops, length, parent
	}
	hops[src] = 0
	length[src] = 0
	frontier := ints(&s.queue, n)[:0]
	next := ints(&s.next, n)[:0]
	frontier = append(frontier, src)
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			nbrs := g.adj[u]
			lu, wu := length[u], wt[u][:len(nbrs)]
			for i, v := range nbrs {
				nd := lu + wu[i]
				switch {
				case hops[v] == Unreachable:
					hops[v] = hops[u] + 1
					length[v] = nd
					parent[v] = u
					next = append(next, v)
				case hops[v] == hops[u]+1 && nd < length[v]:
					length[v] = nd
					parent[v] = u
				}
			}
		}
		frontier, next = next, frontier
	}
	s.queue, s.next = frontier[:cap(frontier)], next[:cap(next)]
	return hops, length, parent
}

// MaxHopMinHopPathInto is MaxHopMinHopPath over the slot weights wt,
// computed in s.
func (g *Graph) MaxHopMinHopPathInto(s *Scratch, src int, wt [][]float64) (hops []int, length []float64) {
	n := len(g.adj)
	hops = ints(&s.dist, n)
	length = floats(&s.length, n)
	for i := range hops {
		hops[i] = Unreachable
		length[i] = math.Inf(-1)
	}
	if src < 0 || src >= n {
		return hops, length
	}
	hops[src] = 0
	length[src] = 0
	frontier := ints(&s.queue, n)[:0]
	next := ints(&s.next, n)[:0]
	frontier = append(frontier, src)
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			nbrs := g.adj[u]
			lu, wu := length[u], wt[u][:len(nbrs)]
			for i, v := range nbrs {
				nd := lu + wu[i]
				switch {
				case hops[v] == Unreachable:
					hops[v] = hops[u] + 1
					length[v] = nd
					next = append(next, v)
				case hops[v] == hops[u]+1 && nd > length[v]:
					length[v] = nd
				}
			}
		}
		frontier, next = next, frontier
	}
	s.queue, s.next = frontier[:cap(frontier)], next[:cap(next)]
	return hops, length
}
