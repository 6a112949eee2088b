// Package spanner measures the quality of the sparse spanners the WCDS
// algorithms induce: edge sparsity, topological dilation and geometric
// dilation, following the definitions of Section 3 of the paper.
//
// For a spanner G' of G and a pair of non-adjacent nodes u, v:
//
//   - the topological dilation compares h'(u,v), the minimum hop count in
//     G', against h(u,v), the minimum hop count in G (Theorem 11 claims
//     h' ≤ 3·h + 2 for Algorithm II's spanner);
//   - the geometric dilation compares l'(u,v), the MAXIMUM total Euclidean
//     length over all minimum-hop paths in G', against l(u,v), the length
//     of the minimum-distance path in G (Theorem 11: l' ≤ 6·l + 5).
//
// The asymmetric definition of l' is the paper's: without positions a node
// cannot pick the geometrically shortest of its minimum-hop routes, so the
// worst minimum-hop route is what must be bounded.
package spanner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wcdsnet/internal/graph"
)

// Sparsity summarises edge counts of a graph/spanner pair.
type Sparsity struct {
	Nodes        int
	GraphEdges   int
	SpannerEdges int
	// EdgesPerNode is SpannerEdges/Nodes — bounded by a constant for a
	// sparse spanner (Theorems 8 and 10).
	EdgesPerNode float64
	// Retained is the fraction of G's edges kept in the spanner.
	Retained float64
}

// SparsityOf computes edge statistics for spanner sp of graph g.
func SparsityOf(g, sp *graph.Graph) Sparsity {
	s := Sparsity{
		Nodes:        g.N(),
		GraphEdges:   g.M(),
		SpannerEdges: sp.M(),
	}
	if g.N() > 0 {
		s.EdgesPerNode = float64(sp.M()) / float64(g.N())
	}
	if g.M() > 0 {
		s.Retained = float64(sp.M()) / float64(g.M())
	}
	return s
}

// PairStat records the dilation of a single node pair.
type PairStat struct {
	U, V int
	// HopsG and HopsSpanner are the minimum hop counts in G and G'.
	HopsG, HopsSpanner int
	// LenG is the minimum-distance path length in G; LenSpanner is the
	// maximum length over minimum-hop paths in G'.
	LenG, LenSpanner float64
}

// TopoRatio returns HopsSpanner / HopsG.
func (p PairStat) TopoRatio() float64 {
	if p.HopsG == 0 {
		return 0
	}
	return float64(p.HopsSpanner) / float64(p.HopsG)
}

// GeoRatio returns LenSpanner / LenG.
func (p PairStat) GeoRatio() float64 {
	if p.LenG == 0 {
		return 0
	}
	return p.LenSpanner / p.LenG
}

// Report aggregates dilation measurements over a set of pairs.
type Report struct {
	Pairs int
	// WorstTopo and WorstGeo are the pairs with the largest ratios.
	WorstTopo, WorstGeo PairStat
	// AvgTopoRatio and AvgGeoRatio are means over the measured pairs.
	AvgTopoRatio, AvgGeoRatio float64
	// TopoBoundHolds reports h' ≤ 3·h + 2 for every measured pair;
	// GeoBoundHolds reports l' ≤ 6·l + 5 (Theorem 11).
	TopoBoundHolds, GeoBoundHolds bool
	// TopoViolations / GeoViolations count pairs breaking the bounds.
	TopoViolations, GeoViolations int
}

// Dilation measures the given pairs. g must be connected, sp must span g
// (same node set, connected), and w gives Euclidean edge lengths (used for
// both graphs — a spanner's edges are a subset of G's). Pairs with
// identical or adjacent endpoints are skipped per the paper's definitions.
//
// Dilation runs DilationN with the default worker count (GOMAXPROCS) and
// no deadline. The result is byte-identical for every worker count; see
// DilationN.
func Dilation(g, sp *graph.Graph, w graph.WeightFunc, pairs [][2]int) (Report, error) {
	return DilationN(context.Background(), g, sp, w, pairs, 0)
}

// groupBySource drops pairs with identical or adjacent endpoints (the
// paper's dilation is defined for non-adjacent pairs only) and groups the
// rest by source, targets in input order, so each source's shortest-path
// trees are computed once. srcs lists the sources in ascending order.
func groupBySource(g *graph.Graph, pairs [][2]int) (srcs []int, bySrc map[int][]int) {
	bySrc = make(map[int][]int)
	for _, pr := range pairs {
		u, v := pr[0], pr[1]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		bySrc[u] = append(bySrc[u], v)
	}
	srcs = make([]int, 0, len(bySrc))
	for u := range bySrc {
		srcs = append(srcs, u)
	}
	sort.Ints(srcs)
	return srcs, bySrc
}

// srcPartial is one source's contribution to a dilation Report. Partials
// are computed independently (possibly on different workers) and merged in
// source order, which is what makes the parallel result deterministic: the
// running sums, the worst-pair tie-breaks and the first-error choice all
// see pairs in exactly the order the sequential loop did.
type srcPartial struct {
	pairs               int
	sumTopo, sumGeo     float64
	worstTopo, worstGeo PairStat
	topoViol, geoViol   int
	err                 error
}

// measureSource computes the partial for source u against its targets.
// The three scratches back the three simultaneous per-source trees (hop
// tree and weighted tree in g, max-length min-hop tree in sp), whose
// output buffers would otherwise alias.
func measureSource(g, sp *graph.Graph, w graph.WeightFunc, u int, targets []int, sg, sd, ss *graph.Scratch) srcPartial {
	hopsG, _ := g.BFSInto(sg, u)
	lenG, _ := g.DijkstraInto(sd, u, w)
	hopsSp, lenSp := sp.MaxHopMinHopPathInto(ss, u, w)
	var p srcPartial
	for _, v := range targets {
		if hopsG[v] == graph.Unreachable {
			p.err = fmt.Errorf("spanner: pair (%d,%d) disconnected in G", u, v)
			return p
		}
		if hopsSp[v] == graph.Unreachable {
			p.err = fmt.Errorf("spanner: pair (%d,%d) disconnected in spanner", u, v)
			return p
		}
		ps := PairStat{
			U: u, V: v,
			HopsG: hopsG[v], HopsSpanner: hopsSp[v],
			LenG: lenG[v], LenSpanner: lenSp[v],
		}
		p.pairs++
		p.sumTopo += ps.TopoRatio()
		p.sumGeo += ps.GeoRatio()
		if ps.TopoRatio() > p.worstTopo.TopoRatio() {
			p.worstTopo = ps
		}
		if ps.GeoRatio() > p.worstGeo.GeoRatio() {
			p.worstGeo = ps
		}
		if ps.HopsSpanner > 3*ps.HopsG+2 {
			p.topoViol++
		}
		if ps.LenSpanner > 6*ps.LenG+5+1e-9 {
			p.geoViol++
		}
	}
	return p
}

// DilationN is Dilation with an explicit measurement worker count.
// workers <= 0 selects GOMAXPROCS. Pairs are grouped by source, then the
// sources are fanned over a bounded pool of workers pulling source indices
// from a shared atomic counter; each worker owns one pooled scratch set, so
// the steady state allocates nothing per traversal.
//
// Determinism: every partial is stored at its source's index and the merge
// walks partials in ascending source order, accumulating sums, worst pairs
// (strict > comparisons, so the first pair attaining a maximum wins exactly
// as in a sequential scan) and violation counts. Within a source, pairs
// are processed in input order. Floating-point additions therefore
// associate identically for every worker count, and the Report — and any
// digest derived from it — is byte-identical whether workers is 1 or 100.
// Errors follow the same rule: the reported error is the first one in
// source order. workers = 1 is the plain sequential fold.
//
// Workers check ctx between sources: once it is done, no new source starts
// and DilationN returns ctx.Err() instead of a partial report.
func DilationN(ctx context.Context, g, sp *graph.Graph, w graph.WeightFunc, pairs [][2]int, workers int) (Report, error) {
	if g.N() != sp.N() {
		return Report{}, fmt.Errorf("spanner: node count mismatch %d vs %d", g.N(), sp.N())
	}
	srcs, bySrc := groupBySource(g, pairs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}

	partials := make([]srcPartial, len(srcs))
	if workers <= 1 {
		sg, sd, ss := graph.GetScratch(), graph.GetScratch(), graph.GetScratch()
		for i, u := range srcs {
			if ctx.Err() != nil {
				break
			}
			partials[i] = measureSource(g, sp, w, u, bySrc[u], sg, sd, ss)
		}
		sg.Release()
		sd.Release()
		ss.Release()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for wk := 0; wk < workers; wk++ {
			go func() {
				defer wg.Done()
				sg, sd, ss := graph.GetScratch(), graph.GetScratch(), graph.GetScratch()
				defer sg.Release()
				defer sd.Release()
				defer ss.Release()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(srcs) || ctx.Err() != nil {
						return
					}
					partials[i] = measureSource(g, sp, w, srcs[i], bySrc[srcs[i]], sg, sd, ss)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	rep := Report{TopoBoundHolds: true, GeoBoundHolds: true}
	var sumTopo, sumGeo float64
	for i := range partials {
		p := &partials[i]
		if p.err != nil {
			return Report{}, p.err
		}
		rep.Pairs += p.pairs
		sumTopo += p.sumTopo
		sumGeo += p.sumGeo
		if p.worstTopo.TopoRatio() > rep.WorstTopo.TopoRatio() {
			rep.WorstTopo = p.worstTopo
		}
		if p.worstGeo.GeoRatio() > rep.WorstGeo.GeoRatio() {
			rep.WorstGeo = p.worstGeo
		}
		rep.TopoViolations += p.topoViol
		rep.GeoViolations += p.geoViol
	}
	rep.TopoBoundHolds = rep.TopoViolations == 0
	rep.GeoBoundHolds = rep.GeoViolations == 0
	if rep.Pairs > 0 {
		rep.AvgTopoRatio = sumTopo / float64(rep.Pairs)
		rep.AvgGeoRatio = sumGeo / float64(rep.Pairs)
	}
	return rep, nil
}

// Pairs returns the pairs a dilation measurement of count samples takes:
// every non-adjacent pair for count <= 0, else SamplePairs seeded by seed.
func Pairs(g *graph.Graph, count int, seed int64) [][2]int {
	if count <= 0 {
		return AllPairs(g)
	}
	return SamplePairs(rand.New(rand.NewSource(seed)), g.N(), count)
}

// AllPairs enumerates every unordered pair of distinct non-adjacent nodes.
// Quadratic; intended for n up to a few hundred.
func AllPairs(g *graph.Graph) [][2]int {
	var pairs [][2]int
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	return pairs
}

// SamplePairs draws count random distinct-node pairs (possibly adjacent
// ones, which Dilation skips). Sampling keeps large-n experiments linear.
func SamplePairs(rng *rand.Rand, n, count int) [][2]int {
	if n < 2 {
		return nil
	}
	pairs := make([][2]int, 0, count)
	for len(pairs) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// Stretch computes the hop eccentricity ratio of the spanner: the maximum
// over sources of ecc_sp(u)/ecc_g(u). A coarse but cheap global indicator
// used in the experiment summaries.
func Stretch(g, sp *graph.Graph) float64 {
	worst := 0.0
	sg, ss := graph.GetScratch(), graph.GetScratch()
	defer sg.Release()
	defer ss.Release()
	for u := 0; u < g.N(); u++ {
		dg, _ := g.BFSInto(sg, u)
		ds, _ := sp.BFSInto(ss, u)
		eg, es := 0, 0
		for v := range dg {
			if dg[v] > eg {
				eg = dg[v]
			}
			if ds[v] > es {
				es = ds[v]
			}
		}
		if eg > 0 {
			if r := float64(es) / float64(eg); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// CheckLemma6 verifies the paper's Lemma 6 transfer numerically for a pair
// report: if every pair satisfies h' ≤ α·h + β then every pair must
// satisfy l' < 2α·l + α + β. It returns an error naming the first pair
// violating the transfer (which would indicate a measurement bug, since
// Lemma 6 is a theorem).
func CheckLemma6(stats []PairStat, alpha, beta float64) error {
	for _, ps := range stats {
		if float64(ps.HopsSpanner) > alpha*float64(ps.HopsG)+beta {
			continue // hypothesis not met for this pair; nothing to check
		}
		if ps.LenSpanner >= 2*alpha*ps.LenG+alpha+beta+1e-9 {
			return fmt.Errorf("spanner: Lemma 6 transfer violated for pair (%d,%d): l'=%v, bound %v",
				ps.U, ps.V, ps.LenSpanner, 2*alpha*ps.LenG+alpha+beta)
		}
	}
	return nil
}

// CollectPairStats returns per-pair statistics (rather than an aggregated
// Report) for the given pairs; used by Lemma 6 checks and histograms.
func CollectPairStats(g, sp *graph.Graph, w graph.WeightFunc, pairs [][2]int) ([]PairStat, error) {
	srcs, bySrc := groupBySource(g, pairs)
	var out []PairStat
	sg, sd, ss := graph.GetScratch(), graph.GetScratch(), graph.GetScratch()
	defer sg.Release()
	defer sd.Release()
	defer ss.Release()
	for _, u := range srcs {
		hopsG, _ := g.BFSInto(sg, u)
		lenG, _ := g.DijkstraInto(sd, u, w)
		hopsSp, lenSp := sp.MaxHopMinHopPathInto(ss, u, w)
		for _, v := range bySrc[u] {
			if hopsG[v] == graph.Unreachable || hopsSp[v] == graph.Unreachable {
				return nil, fmt.Errorf("spanner: pair (%d,%d) disconnected", u, v)
			}
			if math.IsInf(lenG[v], 1) {
				return nil, fmt.Errorf("spanner: pair (%d,%d) has no weighted path", u, v)
			}
			out = append(out, PairStat{
				U: u, V: v,
				HopsG: hopsG[v], HopsSpanner: hopsSp[v],
				LenG: lenG[v], LenSpanner: lenSp[v],
			})
		}
	}
	return out, nil
}
