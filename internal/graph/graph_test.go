package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", i, i+1, err)
		}
	}
	return g
}

// cycleGraph returns the cycle on n >= 3 nodes.
func cycleGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := pathGraph(t, n)
	if err := g.AddEdge(n-1, 0); err != nil {
		t.Fatalf("closing cycle: %v", err)
	}
	return g
}

// randomConnectedGraph returns a random connected graph: a random spanning
// tree plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		_ = g.AddEdge(u, v)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("New(0): N=%d M=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Error("empty graph should count as connected")
	}
	g2 := New(-3)
	if g2.N() != 0 {
		t.Errorf("New(-3): N=%d, want 0", g2.N())
	}
}

func TestPatchedSharesAndCounts(t *testing.T) {
	// Path 0-1-2-3; node 3 moves next to 0 and a new node 4 joins at 1:
	// lists of 0, 1, 2, 3 and 4 change.
	g := pathGraph(t, 4)
	before := g.Clone()
	p := g.Patched(5, []int{0, 1, 2, 3, 4}, [][]int{{1, 3}, {0, 2, 4}, {1}, {0}, {1}})
	if !g.Equal(before) {
		t.Fatal("Patched modified its receiver")
	}
	want, err := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {0, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want.SortAdjacency()
	if !p.Equal(want) || p.M() != 4 {
		t.Fatalf("patched graph m=%d edges %v, want %v", p.M(), p.Edges(), want.Edges())
	}
	// An unreplaced list is shared, and growing it on one graph leaves the
	// other alone.
	q := g.Patched(4, []int{0, 3}, [][]int{{1, 3}, {0, 2}})
	if &q.Neighbors(1)[0] != &g.Neighbors(1)[0] {
		t.Fatal("unreplaced list was copied")
	}
	if err := q.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Fatal("AddEdge on a successor wrote into the shared list")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Errorf("M = %d", g.M())
	}
	if _, err := FromEdges(2, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("FromEdges accepted duplicate edge")
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := pathGraph(t, 4)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("nonexistent edge reported")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("out-of-range HasEdge should be false")
	}
	nbrs := append([]int(nil), g.Neighbors(1)...)
	sort.Ints(nbrs)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nbrs)
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(0, 3)
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AvgDegree = %v", got)
	}
	if New(0).MaxDegree() != 0 || New(0).AvgDegree() != 0 {
		t.Error("empty graph degree stats should be zero")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(0, 3)
	_ = g.AddEdge(0, 1)
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Edges()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	g := pathGraph(t, 3)
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Error("modifying the clone changed the original")
	}
	if c.M() != g.M()+1 {
		t.Errorf("clone M = %d, original M = %d", c.M(), g.M())
	}
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(t, 5)
	dist, parent := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	path := PathTo(parent, 0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	dist, parent := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("unreachable nodes got distances %d, %d", dist[2], dist[3])
	}
	if PathTo(parent, 0, 3) != nil {
		t.Error("PathTo returned a path to an unreachable node")
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := pathGraph(t, 3)
	dist, _ := g.BFS(-1)
	for _, d := range dist {
		if d != Unreachable {
			t.Error("BFS from invalid source should reach nothing")
		}
	}
}

func TestHopDist(t *testing.T) {
	g := cycleGraph(t, 6)
	tests := []struct {
		u, v, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 5, 1},
		{1, 4, 3},
	}
	for _, tt := range tests {
		if got := g.HopDist(tt.u, tt.v); got != tt.want {
			t.Errorf("HopDist(%d,%d) = %d, want %d", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestBFSBounded(t *testing.T) {
	g := pathGraph(t, 6)
	dist, visited := g.BFSBounded(0, 2)
	if dist[2] != 2 {
		t.Errorf("dist[2] = %d", dist[2])
	}
	if dist[3] != Unreachable {
		t.Errorf("dist[3] = %d, want unreachable beyond bound", dist[3])
	}
	if len(visited) != 3 {
		t.Errorf("visited = %v", visited)
	}
}

func TestNodesWithin(t *testing.T) {
	g := cycleGraph(t, 8)
	got := g.NodesWithin(0, 2)
	want := []int{1, 2, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("NodesWithin = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesWithin = %v, want %v", got, want)
		}
	}
	if got := g.NodesWithin(0, 0); got != nil {
		t.Errorf("NodesWithin(.,0) = %v, want nil", got)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Errorf("second component = %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != 4 {
		t.Errorf("third component = %v", comps[2])
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := New(n)
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		comps := g.Components()
		seen := make(map[int]bool)
		for _, comp := range comps {
			for _, v := range comp {
				if seen[v] {
					t.Fatalf("node %d in two components", v)
				}
				seen[v] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("components cover %d of %d nodes", len(seen), n)
		}
	}
}

func euclidWeight(coords [][2]float64) WeightFunc {
	return func(u, v int) float64 {
		dx := coords[u][0] - coords[v][0]
		dy := coords[u][1] - coords[v][1]
		return math.Hypot(dx, dy)
	}
}

func TestDijkstraVsBFSUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedGraph(rng, 2+rng.Intn(50), 30)
		unit := func(u, v int) float64 { return 1 }
		dd, _ := g.Dijkstra(0, unit)
		bd, _ := g.BFS(0)
		for v := 0; v < g.N(); v++ {
			if int(dd[v]) != bd[v] {
				t.Fatalf("trial %d node %d: dijkstra %v, bfs %d", trial, v, dd[v], v)
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle with a long direct edge: 0-2 direct costs 10, via 1 costs 2.
	g := New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	w := func(u, v int) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10
		}
		return 1
	}
	dist, parent := g.Dijkstra(0, w)
	if dist[2] != 2 {
		t.Errorf("dist[2] = %v, want 2", dist[2])
	}
	path := PathTo(parent, 0, 2)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("path = %v, want [0 1 2]", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	dist, _ := g.Dijkstra(0, func(u, v int) float64 { return 1 })
	if !math.IsInf(dist[2], 1) {
		t.Errorf("dist[2] = %v, want +Inf", dist[2])
	}
}

func TestMinHopMinLength(t *testing.T) {
	// Two 2-hop paths from 0 to 3: via 1 (length 2.0) and via 2 (length 5.0),
	// plus one 3-hop path of tiny length via 4,5. Min-hop-min-length must
	// report hops=2, length=2.0.
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 3)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(0, 4)
	_ = g.AddEdge(4, 5)
	_ = g.AddEdge(5, 3)
	w := func(u, v int) float64 {
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		switch key {
		case [2]int{0, 1}, [2]int{1, 3}:
			return 1.0
		case [2]int{0, 2}, [2]int{2, 3}:
			return 2.5
		default:
			return 0.01
		}
	}
	hops, length, parent := g.MinHopMinLength(0, w)
	if hops[3] != 2 {
		t.Errorf("hops[3] = %d, want 2", hops[3])
	}
	if math.Abs(length[3]-2.0) > 1e-12 {
		t.Errorf("length[3] = %v, want 2.0", length[3])
	}
	path := PathTo(parent, 0, 3)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("path = %v, want [0 1 3]", path)
	}
}

func TestMaxHopMinHopPath(t *testing.T) {
	// Same graph as above; among the two 2-hop paths the max length is 5.0.
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 3)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(2, 3)
	w := func(u, v int) float64 {
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if key == [2]int{0, 1} || key == [2]int{1, 3} {
			return 1.0
		}
		return 2.5
	}
	hops, length := g.MaxHopMinHopPath(0, w)
	if hops[3] != 2 {
		t.Errorf("hops[3] = %d", hops[3])
	}
	if math.Abs(length[3]-5.0) > 1e-12 {
		t.Errorf("length[3] = %v, want 5.0", length[3])
	}
}

func TestMinHopMatchesBFSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	coords := make([][2]float64, 60)
	for i := range coords {
		coords[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 60, 80)
		w := euclidWeight(coords)
		src := rng.Intn(60)
		hops, _, _ := g.MinHopMinLength(src, w)
		maxHops, _ := g.MaxHopMinHopPath(src, w)
		bfsDist, _ := g.BFS(src)
		for v := 0; v < g.N(); v++ {
			if hops[v] != bfsDist[v] {
				t.Fatalf("MinHopMinLength hops[%d]=%d, BFS=%d", v, hops[v], bfsDist[v])
			}
			if maxHops[v] != bfsDist[v] {
				t.Fatalf("MaxHopMinHopPath hops[%d]=%d, BFS=%d", v, maxHops[v], bfsDist[v])
			}
		}
	}
}

func TestMinLengthAtMostMaxLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coords := make([][2]float64, 40)
	for i := range coords {
		coords[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	g := randomConnectedGraph(rng, 40, 60)
	w := euclidWeight(coords)
	minH, minL, _ := g.MinHopMinLength(0, w)
	_, maxL := g.MaxHopMinHopPath(0, w)
	for v := 0; v < g.N(); v++ {
		if minH[v] == Unreachable {
			continue
		}
		if minL[v] > maxL[v]+1e-9 {
			t.Fatalf("node %d: min-length %v exceeds max-length %v", v, minL[v], maxL[v])
		}
	}
}

func TestPathToEdgeCases(t *testing.T) {
	if got := PathTo([]int{-1}, 0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("PathTo to source = %v", got)
	}
	if got := PathTo([]int{-1, -1}, 0, 5); got != nil {
		t.Errorf("PathTo out of range = %v", got)
	}
}

func TestSortAdjacencyDeterminism(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 2)
	g.SortAdjacency()
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
}

func TestHopDistTriangleInequalityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 30, 40)
	f := func(a, b, c uint8) bool {
		u, v, w := int(a)%30, int(b)%30, int(c)%30
		duv := g.HopDist(u, v)
		dvw := g.HopDist(v, w)
		duw := g.HopDist(u, w)
		return duw <= duv+dvw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
