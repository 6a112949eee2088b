// Package udg models wireless ad hoc networks as unit-disk graphs.
//
// Following the paper, all nodes live in the plane and share a maximum
// transmission range of one unit: two nodes are adjacent if and only if
// their Euclidean distance is at most the radio radius. This package
// provides the Network type (positions + unique protocol IDs + the induced
// unit-disk graph) and a collection of random topology generators used by
// the experiments.
package udg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/graph"
)

// Network is a wireless ad hoc network snapshot: node positions, the
// induced unit-disk graph, and the unique protocol ID of every node.
//
// Graph indices are dense 0..N-1; IDs are an arbitrary permutation carried
// separately because the paper's protocols use IDs only for symmetry
// breaking (ranking), never for addressing.
type Network struct {
	Pos    []geom.Point
	ID     []int
	Radius float64
	G      *graph.Graph
}

// New assembles a network from positions and IDs, building the unit-disk
// graph with the given radio radius. IDs must be unique and len(ids) must
// equal len(pos); radius must be positive.
func New(pos []geom.Point, ids []int, radius float64) (*Network, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("udg: radius %v must be positive", radius)
	}
	if len(ids) != len(pos) {
		return nil, fmt.Errorf("udg: %d ids for %d positions", len(ids), len(pos))
	}
	if err := uniqueIDs(ids); err != nil {
		return nil, err
	}
	nw := &Network{
		Pos:    append([]geom.Point(nil), pos...),
		ID:     append([]int(nil), ids...),
		Radius: radius,
	}
	nw.G = BuildGraph(nw.Pos, radius)
	return nw, nil
}

// uniqueIDs reports the first repeated ID. When every ID lies in [0, n) —
// a generated scene's IDs are a permutation of 0..n-1 — a bitmap does the
// check; any other ID set falls back to a map.
func uniqueIDs(ids []int) error {
	bits := make([]uint64, (len(ids)+63)/64)
	for _, id := range ids {
		if uint(id) >= uint(len(ids)) {
			bits = nil
			break
		}
		w, b := id/64, uint64(1)<<(id%64)
		if bits[w]&b != 0 {
			return fmt.Errorf("udg: duplicate node ID %d", id)
		}
		bits[w] |= b
	}
	if bits != nil {
		return nil
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("udg: duplicate node ID %d", id)
		}
		seen[id] = true
	}
	return nil
}

// BuildGraph constructs the unit-disk graph over pos with the given radius
// using a uniform grid of radius-sized cells, so expected construction time
// is linear in nodes plus edges.
//
// The grid scratch (cell offsets, the counting-sorted node order and the
// pair buffer) is recycled through a sync.Pool: batch sweeps that build
// thousands of graphs reuse the same buffers instead of re-allocating them
// per call. The pooled dense-grid path and the sparse map fallback produce
// identical graphs.
func BuildGraph(pos []geom.Point, radius float64) *graph.Graph {
	sc := gridPool.Get().(*gridScratch)
	defer gridPool.Put(sc)
	grid, ok := sc.bin(pos, radius)
	if !ok {
		g := graph.New(len(pos))
		buildGraphSparse(g, pos, radius)
		g.SortAdjacency()
		return g
	}
	// Counting degrees first and filling a degree-sized graph replaces
	// millions of adjacency-slice growth steps with stores into one
	// pre-sized arena, which at million-node scale halves construction time.
	sc.pairs = grid.appendPairs(sc.pairs[:0], radius*radius)
	deg := make([]int, len(pos))
	for _, e := range sc.pairs {
		deg[e>>32]++
		deg[e&pairMask]++
	}
	g := graph.NewWithDegrees(deg)
	for _, e := range sc.pairs {
		// The walk yields each pair once, so the unchecked insert is safe.
		g.AddEdgeUnchecked(int(e>>32), int(e&pairMask))
	}
	g.SortAdjacency()
	return g
}

// connected reports BuildGraph(pos, radius).Connected() without building
// the graph: a union-find over the same pair walk. Generators call it on
// every draw, so a rejected scene costs its random numbers and this check,
// never a CSR.
func connected(pos []geom.Point, radius float64) bool {
	if len(pos) <= 1 {
		return true
	}
	sc := gridPool.Get().(*gridScratch)
	defer gridPool.Put(sc)
	grid, ok := sc.bin(pos, radius)
	if !ok {
		return BuildGraph(pos, radius).Connected()
	}
	r2 := radius * radius
	if grid.hasIsolated(r2) {
		return false
	}
	sc.pairs = grid.appendPairs(sc.pairs[:0], r2)
	parent := grow(&sc.parent, len(pos))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	comps := len(pos)
	for _, e := range sc.pairs {
		a, b := find(int32(e>>32)), find(int32(e&pairMask))
		if a != b {
			parent[a] = b
			if comps--; comps == 1 {
				return true
			}
		}
	}
	return false
}

// pairMask extracts the second node of a packed pair (i<<32 | j).
const pairMask = 1<<32 - 1

// gridScratch is the reusable working memory of one grid pass.
type gridScratch struct {
	start  []int32
	order  []int32
	cell   []int32
	pts    []geom.Point
	parent []int32
	pairs  []int64 // accepted pairs, packed (i<<32 | j)
}

var gridPool = sync.Pool{New: func() any { return &gridScratch{} }}

// grow returns (*s)[:n] zeroed, reallocating only when capacity is short.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	clear(*s)
	return *s
}

// cellGrid is the one cell rule of the unit-disk graph: the bounding box
// of the points cut into radius-sized cells, numbered row-major. Cell c
// holds slots start[c] to start[c+1]-1; slot k is node order[k] at
// position pts[k], and within a cell nodes keep their index order. Any
// two points within the radius share a cell or sit in neighbouring ones.
// BuildGraph, connected and sortByCell all bin through it, so the graph,
// the connectivity check and the generators' node numbering cannot
// disagree about cells.
type cellGrid struct {
	cols, rows int
	start      []int32
	order      []int32
	pts        []geom.Point
}

// bin counting-sorts pos into the cell grid, in sc's buffers. It reports
// false for no points, and for an extent that is degenerate or so sparse
// (much less than one node per few cells) that a dense grid would waste
// memory; generated topologies always bin.
func (sc *gridScratch) bin(pos []geom.Point, radius float64) (cellGrid, bool) {
	if len(pos) == 0 {
		return cellGrid{}, false
	}
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	// p*0 is 0 for a finite coordinate and NaN otherwise, so one NaN or
	// infinite coordinate makes nonFinite NaN and the grid declines.
	var nonFinite float64
	for _, p := range pos {
		nonFinite += p.X*0 + p.Y*0
		if p.X < minX {
			minX = p.X
		} else if !(p.X <= maxX) {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if !(p.Y <= maxY) {
			maxY = p.Y
		}
	}
	colsF := math.Floor((maxX-minX)/radius) + 1
	rowsF := math.Floor((maxY-minY)/radius) + 1
	if nonFinite != 0 || !(colsF >= 1 && rowsF >= 1) || colsF*rowsF > 8*float64(len(pos))+1024 {
		return cellGrid{}, false
	}
	g := cellGrid{cols: int(colsF), rows: int(rowsF)}
	nCells := g.cols * g.rows
	// Cell c's count goes to start[c+2]; after the prefix sum start[c+1]
	// is c's offset and serves as its fill cursor, which leaves it at the
	// next cell's offset: start[0..nCells] ends up as the cell bounds.
	start := grow(&sc.start, nCells+2)
	cell := grow(&sc.cell, len(pos))
	for i, p := range pos {
		c := int32(int((p.Y-minY)/radius)*g.cols + int((p.X-minX)/radius))
		cell[i] = c
		start[c+2]++
	}
	for c := 2; c <= nCells; c++ {
		start[c] += start[c-1]
	}
	order := grow(&sc.order, len(pos))
	pts := grow(&sc.pts, len(pos))
	for i, c := range cell {
		k := start[c+1]
		start[c+1]++
		order[k] = int32(i)
		pts[k] = pos[i]
	}
	g.start, g.order, g.pts = start[:nCells+1], order, pts
	return g, true
}

// appendPairs appends every pair of nodes within distance sqrt(r2) to
// buf, packed (i<<32 | j), each unordered pair once. The half stencil
// pairs a cell with its own later slots and with its forward neighbours
// E, SW, S and SE, so every pair of neighbouring cells is met from one
// side only. A cell's slots and its east neighbour's are contiguous, and
// so are the SW, S and SE cells of the next row: two slot ranges per node.
func (g cellGrid) appendPairs(buf []int64, r2 float64) []int64 {
	start, order, pts := g.start, g.order, g.pts
	for c := 0; c < len(start)-1; c++ {
		lo, hi := start[c], start[c+1]
		if lo == hi {
			continue
		}
		x := c % g.cols
		east := hi
		if x+1 < g.cols {
			east = start[c+2]
		}
		var below0, below1 int32
		if c+g.cols < len(start)-1 {
			sw, se := c+g.cols, c+g.cols+1
			if x > 0 {
				sw--
			}
			if x+1 < g.cols {
				se++
			}
			below0, below1 = start[sw], start[se]
		}
		for k := lo; k < hi; k++ {
			p, i := pts[k], int64(order[k])<<32
			for m := k + 1; m < east; m++ {
				if p.Dist2(pts[m]) <= r2 {
					buf = append(buf, i|int64(order[m]))
				}
			}
			for m := below0; m < below1; m++ {
				if p.Dist2(pts[m]) <= r2 {
					buf = append(buf, i|int64(order[m]))
				}
			}
		}
	}
	return buf
}

// hasIsolated reports whether some node has no other node within
// distance sqrt(r2), stopping at the first. Most sparse draws that are
// not connected have such a node, and finding one costs a few distance
// tests per node where the pair walk tests every candidate pair.
func (g cellGrid) hasIsolated(r2 float64) bool {
	start, pts := g.start, g.pts
	for c := 0; c < len(start)-1; c++ {
		x, y := c%g.cols, c/g.cols
		x0, x1 := max(x-1, 0), min(x+1, g.cols-1)
		y0, y1 := max(y-1, 0), min(y+1, g.rows-1)
	node:
		for k := start[c]; k < start[c+1]; k++ {
			p := pts[k]
			for yy := y0; yy <= y1; yy++ {
				row := yy * g.cols
				for m := start[row+x0]; m < start[row+x1+1]; m++ {
					if m != k && p.Dist2(pts[m]) <= r2 {
						continue node
					}
				}
			}
			return true
		}
	}
	return false
}

// buildGraphSparse is the map-backed fallback grid for point clouds whose
// bounding box is huge (or not finite) relative to the node count. It
// walks the same half stencil as appendPairs over hashed cells.
func buildGraphSparse(g *graph.Graph, pos []geom.Point, radius float64) {
	type cell struct{ cx, cy int }
	cells := make(map[cell][]int, len(pos))
	cellOf := func(p geom.Point) cell {
		return cell{cx: int(math.Floor(p.X / radius)), cy: int(math.Floor(p.Y / radius))}
	}
	for i, p := range pos {
		c := cellOf(p)
		cells[c] = append(cells[c], i)
	}
	r2 := radius * radius
	forward := [4]cell{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for c, members := range cells {
		for s, i := range members {
			p := pos[i]
			for _, j := range members[s+1:] {
				if p.Dist2(pos[j]) <= r2 {
					g.AddEdgeUnchecked(i, j)
				}
			}
			for _, d := range forward {
				for _, j := range cells[cell{c.cx + d.cx, c.cy + d.cy}] {
					if p.Dist2(pos[j]) <= r2 {
						g.AddEdgeUnchecked(i, j)
					}
				}
			}
		}
	}
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.Pos) }

// Dist returns the Euclidean distance between nodes u and v.
func (nw *Network) Dist(u, v int) float64 { return nw.Pos[u].Dist(nw.Pos[v]) }

// Weight returns the Euclidean edge-length function for shortest-path
// computations over the network's graphs.
func (nw *Network) Weight() graph.WeightFunc {
	pos := nw.Pos
	return func(u, v int) float64 { return pos[u].Dist(pos[v]) }
}

// Clone returns a deep copy of the network (graph included).
func (nw *Network) Clone() *Network {
	return &Network{
		Pos:    append([]geom.Point(nil), nw.Pos...),
		ID:     append([]int(nil), nw.ID...),
		Radius: nw.Radius,
		G:      nw.G.Clone(),
	}
}

// RandomIDs returns a uniformly random permutation of 0..n-1 to use as
// protocol IDs. Randomizing IDs decouples the greedy-by-ID MIS from the
// geometric generation order.
func RandomIDs(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// SideForAvgDegree returns the side length of a square such that n
// uniformly placed unit-radius nodes have approximately the target average
// degree: deg ≈ (n-1)·π·r² / side².
func SideForAvgDegree(n int, targetDeg float64) float64 {
	if n < 2 || targetDeg <= 0 {
		return 1
	}
	return math.Sqrt(float64(n-1) * math.Pi / targetDeg)
}

// sortByCell permutes pos into row-major order of the radius-sized grid
// cells BuildGraph bins nodes into, keeping insertion order within a cell.
// The multiset of positions — the geometry — is unchanged; only the
// arbitrary node numbering becomes spatially coherent, so a node's radio
// neighbours sit near it in every per-node array. At million-node scale
// that locality is what keeps the event engine's delivery loop out of
// DRAM: protocol waves sweep the scene cell by cell instead of jumping
// across a working set of hundreds of megabytes. Only generators renumber —
// indices are theirs to assign; New never reorders caller positions.
// A degenerate or sparse extent has no dense grid, and keeps its order.
func sortByCell(pos []geom.Point, radius float64) {
	sc := gridPool.Get().(*gridScratch)
	if grid, ok := sc.bin(pos, radius); ok {
		copy(pos, grid.pts)
	}
	gridPool.Put(sc)
}

// mustNew builds a generated scene; generated inputs are always valid.
func mustNew(pos []geom.Point, ids []int) *Network {
	nw, err := New(pos, ids, 1)
	if err != nil {
		panic("udg: generator produced invalid network: " + err.Error())
	}
	return nw
}

// firstConnected draws up to maxTries scenes and builds the first whose
// unit-disk graph is connected, or returns nil. A rejected draw still
// consumes all its random numbers, IDs included, so the rng stream — and
// with it every kept scene — is the same as drawing whole networks; it
// only skips the build.
func firstConnected(maxTries int, draw func() ([]geom.Point, []int)) *Network {
	for try := 0; try < maxTries; try++ {
		if pos, ids := draw(); connected(pos, 1) {
			return mustNew(pos, ids)
		}
	}
	return nil
}

// GenUniform places n nodes uniformly at random in the square [0,side]²
// with unit radio radius and random IDs. Node indices run in cell-major
// spatial order (deterministic for a given rng state; see sortByCell);
// protocol IDs remain an independent random permutation, so the index
// order is pure simulation bookkeeping and never leaks into the
// algorithms' symmetry breaking.
func GenUniform(rng *rand.Rand, n int, side float64) *Network {
	return mustNew(drawUniform(rng, n, side))
}

func drawUniform(rng *rand.Rand, n int, side float64) ([]geom.Point, []int) {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	sortByCell(pos, 1)
	return pos, RandomIDs(rng, n)
}

// drawClusters places n nodes into k Gaussian clusters whose centers are
// uniform in [0,side]²; sigma is the cluster spread. Positions are clamped
// to the square. Clustered layouts stress the MIS packing lemmas.
func drawClusters(rng *rand.Rand, n, k int, side, sigma float64) ([]geom.Point, []int) {
	if k < 1 {
		k = 1
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	box := geom.Square(side)
	pos := make([]geom.Point, n)
	for i := range pos {
		c := centers[rng.Intn(k)]
		p := geom.Point{
			X: c.X + rng.NormFloat64()*sigma,
			Y: c.Y + rng.NormFloat64()*sigma,
		}
		pos[i] = box.Clamp(p)
	}
	return pos, RandomIDs(rng, n)
}

// drawCorridor places n nodes uniformly in an L-shaped corridor of the
// given arm length and width (two rectangles sharing the corner square).
// Corridor topologies force long detours around the bend and stress the
// spanner dilation bounds far harder than convex regions.
func drawCorridor(rng *rand.Rand, n int, armLen, width float64) ([]geom.Point, []int) {
	if armLen < width {
		armLen = width
	}
	pos := make([]geom.Point, n)
	for i := range pos {
		// Horizontal arm: [0,armLen] × [0,width];
		// vertical arm:   [0,width] × [0,armLen].
		if rng.Intn(2) == 0 {
			pos[i] = geom.Point{X: rng.Float64() * armLen, Y: rng.Float64() * width}
		} else {
			pos[i] = geom.Point{X: rng.Float64() * width, Y: rng.Float64() * armLen}
		}
	}
	return pos, RandomIDs(rng, n)
}

// drawAnnulus places n nodes uniformly in a ring with the given inner and
// outer radii centred at (outer, outer). The hole in the middle makes
// shortest paths curve, another dilation stressor.
func drawAnnulus(rng *rand.Rand, n int, inner, outer float64) ([]geom.Point, []int) {
	if outer <= inner {
		outer = inner + 1
	}
	center := geom.Point{X: outer, Y: outer}
	pos := make([]geom.Point, n)
	for i := range pos {
		for {
			p := geom.Point{X: rng.Float64() * 2 * outer, Y: rng.Float64() * 2 * outer}
			d := p.Dist(center)
			if d >= inner && d <= outer {
				pos[i] = p
				break
			}
		}
	}
	return pos, RandomIDs(rng, n)
}

// GenQuasi places n nodes uniformly in [0,side]² and links them with the
// quasi-unit-disk rule: pairs closer than rMin are always adjacent, pairs
// beyond rMax never, and pairs in between are adjacent with probability p.
// Quasi-UDGs model irregular radio ranges; the WCDS algorithms remain
// correct on them (their proofs of domination and weak connectivity are
// graph-theoretic), but the unit-disk packing constants no longer apply —
// experiment E12 measures the drift.
//
// The stored Radius is rMax (the maximum possible link length).
func GenQuasi(rng *rand.Rand, n int, side, rMin, rMax, p float64) *Network {
	if rMax < rMin {
		rMax = rMin
	}
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	g := graph.New(n)
	// Candidate pairs come from the rMax-disk graph; the mid-band coin
	// then thins them.
	full := BuildGraph(pos, rMax)
	for _, e := range full.Edges() {
		d := pos[e[0]].Dist(pos[e[1]])
		if d <= rMin || rng.Float64() < p {
			_ = g.AddEdge(e[0], e[1])
		}
	}
	g.SortAdjacency()
	return &Network{
		Pos:    pos,
		ID:     RandomIDs(rng, n),
		Radius: rMax,
		G:      g,
	}
}

// GenConnected samples uniform scenes until the unit-disk graph is
// connected, up to maxTries attempts; only the kept scene is built. It
// returns an error when the density is too low to produce a connected
// instance within the budget.
func GenConnected(rng *rand.Rand, n int, side float64, maxTries int) (*Network, error) {
	nw := firstConnected(maxTries, func() ([]geom.Point, []int) { return drawUniform(rng, n, side) })
	if nw == nil {
		return nil, fmt.Errorf("udg: no connected instance with n=%d side=%.2f in %d tries", n, side, maxTries)
	}
	return nw, nil
}

// GenConnectedAvgDegree is the experiment workhorse: a connected uniform
// network of n nodes sized for the target average degree.
func GenConnectedAvgDegree(rng *rand.Rand, n int, targetDeg float64, maxTries int) (*Network, error) {
	return GenConnected(rng, n, SideForAvgDegree(n, targetDeg), maxTries)
}
