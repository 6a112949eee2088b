package wcds

import (
	"cmp"
	"slices"

	"wcdsnet/internal/graph"
)

// Connector is Algorithm II's canonical (Deferred-mode) choice for one
// MIS-dominator pair (u, W) at hop distance exactly three, where u is the
// pair's lower-ID end and owns the choice: V is the connector (it joins
// the WCDS) and X the second intermediate of the u–V–X–W path with the
// lexicographically smallest (ids[V], ids[X]). All fields are node
// indices.
type Connector struct {
	W, V, X int
}

// ConnectorScratch holds the per-node marks of AppendOwned, so repeated
// calls allocate nothing once it has grown to the graph. The zero value is
// ready to use.
type ConnectorScratch struct {
	gen   uint64   // bumped per owner and per intermediate; never wraps in practice
	reach []uint64 // owner's gen: a dominator two hops from the owner via a gray node
	near  []uint64 // v's gen: a dominator adjacent to the current intermediate v
	seen  []uint64 // owner's gen: best holds the dominator's candidate
	best  []int    // index of the dominator's candidate in the output
}

func (s *ConnectorScratch) next(n int) uint64 {
	if grow := n - len(s.reach); grow > 0 {
		s.reach = append(s.reach, make([]uint64, grow)...)
		s.near = append(s.near, make([]uint64, grow)...)
		s.seen = append(s.seen, make([]uint64, grow)...)
		s.best = append(s.best, make([]int, grow)...)
	}
	s.gen++
	return s.gen
}

// AppendOwned appends the connector choices owned by dominator u to dst,
// sorted by W, and returns the extended slice. inSet is the MIS-dominator
// mask. Candidates mirror the protocol's reports: a gray neighbour v of u
// offers every dominator w it hears of through a gray neighbour x, unless
// v is adjacent to w itself; pairs u already reaches in two hops through a
// gray node need no connector.
//
// The choice reads only u's radius-3 ball: the MIS status of u, v, x and
// w and the edges on those paths. So after a local change only the owners
// within three hops of it, in the old or the new graph, can choose
// differently.
func (s *ConnectorScratch) AppendOwned(g *graph.Graph, ids []int, inSet []bool, u int, dst []Connector) []Connector {
	owner := s.next(g.N())
	for _, x := range g.Neighbors(u) {
		if inSet[x] {
			continue // only gray nodes publish 1-HOP reports
		}
		for _, w := range g.Neighbors(x) {
			if inSet[w] {
				s.reach[w] = owner
			}
		}
	}
	base := len(dst)
	idU := ids[u]
	for _, v := range g.Neighbors(u) {
		if inSet[v] {
			continue
		}
		vGen := s.next(0)
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				s.near[w] = vGen
			}
		}
		for _, x := range g.Neighbors(v) {
			if inSet[x] {
				continue
			}
			for _, w := range g.Neighbors(x) {
				if !inSet[w] || ids[w] <= idU || s.near[w] == vGen || s.reach[w] == owner {
					continue
				}
				if s.seen[w] != owner {
					s.seen[w] = owner
					s.best[w] = len(dst)
					dst = append(dst, Connector{W: w, V: v, X: x})
					continue
				}
				c := &dst[s.best[w]]
				if ids[v] < ids[c.V] || (v == c.V && ids[x] < ids[c.X]) {
					c.V, c.X = v, x
				}
			}
		}
	}
	slices.SortFunc(dst[base:], func(a, b Connector) int { return cmp.Compare(a.W, b.W) })
	return dst
}

// ConnectorSelection computes Algorithm II's canonical (Deferred-mode)
// additional-dominator choices for the given MIS: AppendOwned run over
// every member. The result is indexed by owner: out[u] lists u's choices
// sorted by W, and is nil for nodes that own none. The lists share one
// backing array. The mobility-maintenance layer runs the same kernel for
// the owners near an epoch's changes.
func ConnectorSelection(g *graph.Graph, ids []int, misSet []int) [][]Connector {
	inSet := make([]bool, g.N())
	for _, v := range misSet {
		inSet[v] = true
	}
	var s ConnectorScratch
	var buf []Connector
	end := make([]int, len(misSet))
	for i, u := range misSet {
		buf = s.AppendOwned(g, ids, inSet, u, buf)
		end[i] = len(buf)
	}
	out := make([][]Connector, g.N())
	lo := 0
	for i, u := range misSet {
		if end[i] > lo {
			out[u] = buf[lo:end[i]:end[i]]
		}
		lo = end[i]
	}
	return out
}
