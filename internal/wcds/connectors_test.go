package wcds

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/udg"
)

// referenceConnectorSelection is the map-per-node selection the owner
// kernel replaced, kept as the reference it is tested against: for every
// dominator pair (u, w) at hop distance exactly three with ids[u] < ids[w],
// key {u, w} maps to {v, x} of the u–v–x–w path with the smallest
// (ids[v], ids[x]).
func referenceConnectorSelection(g *graph.Graph, ids []int, misSet []int) map[[2]int][2]int {
	inSet := make([]bool, g.N())
	for _, v := range misSet {
		inSet[v] = true
	}
	nodeOfID := make(map[int]int, g.N())
	for v := 0; v < g.N(); v++ {
		nodeOfID[ids[v]] = v
	}
	adjacentDom := make([]map[int]bool, g.N())
	for v := 0; v < g.N(); v++ {
		adjacentDom[v] = make(map[int]bool)
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				adjacentDom[v][ids[w]] = true
			}
		}
	}
	twoHop := make([]map[int]int, g.N())
	for v := 0; v < g.N(); v++ {
		twoHop[v] = make(map[int]int)
		for _, x := range g.Neighbors(v) {
			if inSet[x] {
				continue
			}
			for dom := range adjacentDom[x] {
				if dom == ids[v] {
					continue
				}
				if cur, ok := twoHop[v][dom]; !ok || ids[x] < cur {
					twoHop[v][dom] = ids[x]
				}
			}
		}
	}
	out := make(map[[2]int][2]int)
	for _, u := range misSet {
		cand := make(map[int][2]int)
		for _, v := range g.Neighbors(u) {
			if inSet[v] {
				continue
			}
			for dom, via := range twoHop[v] {
				if adjacentDom[v][dom] {
					continue
				}
				if dom == ids[u] || ids[u] >= dom {
					continue
				}
				pair := [2]int{ids[v], via}
				if cur, ok := cand[dom]; !ok || pair[0] < cur[0] || (pair[0] == cur[0] && pair[1] < cur[1]) {
					cand[dom] = pair
				}
			}
		}
		for dom, pair := range cand {
			if _, reachable := twoHop[u][dom]; reachable {
				continue
			}
			out[[2]int{u, nodeOfID[dom]}] = [2]int{nodeOfID[pair[0]], nodeOfID[pair[1]]}
		}
	}
	return out
}

// byOwner puts a reference map in ConnectorSelection's shape.
func byOwner(n int, ref map[[2]int][2]int) [][]Connector {
	out := make([][]Connector, n)
	for key, val := range ref {
		out[key[0]] = append(out[key[0]], Connector{W: key[1], V: val[0], X: val[1]})
	}
	for _, owned := range out {
		sort.Slice(owned, func(i, j int) bool { return owned[i].W < owned[j].W })
	}
	return out
}

// TestConnectorSelectionMatchesReference compares the owner kernel with
// the map-based reference on random unit-disk graphs, connected or not,
// under dense and arbitrary ID spaces: for the greedy MIS, for maximal
// independent sets in random orders, and for arbitrary node subsets (which
// need not be independent, so every branch of the rule is exercised).
func TestConnectorSelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(120)
		nw := udg.GenUniform(rng, n, udg.SideForAvgDegree(n, 4+rng.Float64()*10))
		ids := nw.ID
		if trial%2 == 1 {
			ids = arbitraryIDs(rng, n)
		}
		perm := rng.Perm(n)
		var subset []int
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				subset = append(subset, v)
			}
		}
		sets := [][]int{
			mis.Greedy(nw.G, mis.ByID(ids)),
			mis.Greedy(nw.G, func(a, b int) bool { return perm[a] < perm[b] }),
			subset,
		}
		for k, set := range sets {
			got := ConnectorSelection(nw.G, ids, set)
			want := byOwner(n, referenceConnectorSelection(nw.G, ids, set))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d set %d (n=%d): kernel selection differs from the reference", trial, k, n)
			}
		}
	}
}
