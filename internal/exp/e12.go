package exp

import (
	"math/rand"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// RunE12 probes beyond the paper's model: the WCDS algorithms never consult
// geometry, so their CORRECTNESS (domination + weak connectivity, via
// Lemma 3/Theorem 5/Lemma 9, which are purely graph-theoretic) must hold on
// quasi-unit-disk graphs and even on non-geometric random graphs — while
// the unit-disk-only CONSTANTS (Lemma 1's 5, Lemma 2's 23/47, Theorem 11's
// dilation) are allowed to drift. The experiment verifies the former and
// measures the latter.
func RunE12(cfg Config) (Result, error) {
	table := stats.NewTable("model", "n", "WCDS ok", "max MIS nbrs", "max ≤3-hop", "worst h'/h", "3h+2 ok")
	pass := true
	quasi := udg.Topology{Kind: "quasi", Params: map[string]float64{"rmin": 0.5, "rmax": 1, "p": 0.5}}
	for _, n := range cfg.sizes(120, 240) {
		type agg struct {
			ok               bool
			maxNbrs, maxPack int
			worstTopo        float64
			topoOK           bool
		}
		models := map[string]*agg{
			"udg":       {ok: true, topoOK: true},
			"quasi-udg": {ok: true, topoOK: true},
			"gnp":       {ok: true, topoOK: true},
		}
		for _, seed := range cfg.seeds(12, cfg.trials()) {
			instances := map[string]*udg.Network{}
			var err error
			if instances["udg"], err = batch.Generate(udg.Topology{}, n, 10, seed); err != nil {
				return Result{}, err
			}
			if instances["quasi-udg"], err = batch.Generate(quasi, n, 10, seed); err != nil {
				return Result{}, err
			}
			if nw := gnpNetwork(rand.New(rand.NewSource(seed)), n, 10); nw.G.Connected() {
				instances["gnp"] = nw
			}
			for name, nw := range instances {
				a := models[name]
				res := wcds.Algo2Centralized(nw.G, nw.ID)
				if !wcds.IsWCDS(nw.G, res.Dominators) {
					a.ok = false
				}
				if m := mis.MaxMISNeighbors(nw.G, res.MISDominators); m > a.maxNbrs {
					a.maxNbrs = m
				}
				if _, three := mis.PackingCounts(nw.G, res.MISDominators); three > a.maxPack {
					a.maxPack = three
				}
				// Topological dilation on sampled pairs (hop metric is
				// defined for any graph; geometric dilation is not
				// meaningful for gnp). A disconnected spanner fails it.
				rep, err := spanner.Dilation(nw.G, res.Spanner, nw.Weight(), spanner.Pairs(nw.G, 200, seed))
				a.worstTopo = max(a.worstTopo, rep.WorstTopo.TopoRatio())
				a.topoOK = a.topoOK && err == nil && rep.TopoBoundHolds
			}
		}
		for _, name := range []string{"udg", "quasi-udg", "gnp"} {
			a := models[name]
			// Correctness must hold everywhere, and so must the 3h+2
			// topological bound — Theorem 11's hop argument is
			// graph-theoretic (domination + the 3-hop connector chain),
			// unlike the geometric bound. Only the packing constants are
			// unit-disk specific.
			pass = pass && a.ok && a.topoOK
			if name == "udg" {
				pass = pass && a.maxNbrs <= 5 && a.maxPack <= 47
			}
			table.AddRow(name, stats.I(n), passMark(a.ok), stats.I(a.maxNbrs),
				stats.I(a.maxPack), stats.F(a.worstTopo, 2), passMark(a.topoOK))
		}
	}
	return Result{
		ID:    "E12",
		Title: "Beyond the unit-disk model",
		Claim: "The algorithms are position-free graph protocols: WCDS correctness holds on quasi-UDGs and arbitrary graphs; only the UDG packing/dilation constants are model-specific",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"WCDS correctness AND the 3h+2 topological bound are REQUIRED for every model (both proofs are graph-theoretic);",
			"the packing columns (Lemma 1's 5, Lemma 2's 47) are only required on 'udg' — gnp exceeds them, as expected without geometry.",
			"gnp is an Erdős–Rényi graph with matching average degree — no geometry at all.",
		},
	}, nil
}

// gnpNetwork builds an Erdős–Rényi G(n,p) wrapped as a Network (positions
// are placeholders; nothing geometric is measured on it).
func gnpNetwork(rng *rand.Rand, n int, avgDeg float64) *udg.Network {
	g := graph.New(n)
	p := avgDeg / float64(n-1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				_ = g.AddEdge(u, v)
			}
		}
	}
	g.SortAdjacency()
	nw := udg.GenUniform(rng, n, udg.SideForAvgDegree(n, avgDeg))
	nw.G = g
	return nw
}
