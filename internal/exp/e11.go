package exp

import (
	"wcdsnet/internal/batch"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// RunE11 compares the paper's position-LESS WCDS spanner against the
// position-BASED geometric prunings the related work uses (RNG [15],
// Gabriel/GPSR [12]): edge budget and worst-case dilation side by side.
// There is no bound to check — the experiment quantifies the price of not
// knowing coordinates, which is the paper's selling point.
func RunE11(cfg Config) (Result, error) {
	table := stats.NewTable("spanner", "n", "edges/node", "worst h'/h", "worst l'/l", "needs positions")
	pass := true
	for _, n := range cfg.sizes(150, 300) {
		type agg struct {
			edges, topo, geo float64
		}
		results := map[string]*agg{"WCDS-II": {}, "RNG": {}, "Gabriel": {}}
		for _, seed := range cfg.seeds(11, cfg.trials()) {
			nw, err := batch.Generate(udg.Topology{}, n, 14, seed)
			if err != nil {
				return Result{}, err
			}
			pairs := spanner.AllPairs(nw.G)
			res2 := wcds.Algo2Centralized(nw.G, nw.ID)
			sps := map[string]*graph.Graph{
				"WCDS-II": res2.Spanner,
				"RNG":     spanner.RNG(nw),
				"Gabriel": spanner.Gabriel(nw),
			}
			for name, sp := range sps {
				rep, err := spanner.Dilation(nw.G, sp, nw.Weight(), pairs)
				if err != nil {
					return Result{}, err
				}
				a := results[name]
				a.edges += float64(sp.M()) / float64(n)
				if r := rep.WorstTopo.TopoRatio(); r > a.topo {
					a.topo = r
				}
				if r := rep.WorstGeo.GeoRatio(); r > a.geo {
					a.geo = r
				}
				// The WCDS spanner must keep honouring Theorem 11 here.
				if name == "WCDS-II" && (!rep.TopoBoundHolds || !rep.GeoBoundHolds) {
					pass = false
				}
			}
		}
		tr := float64(cfg.trials())
		for _, name := range []string{"WCDS-II", "RNG", "Gabriel"} {
			a := results[name]
			needsPos := "yes"
			if name == "WCDS-II" {
				needsPos = "no"
			}
			table.AddRow(name, stats.I(n), stats.F(a.edges/tr, 2),
				stats.F(a.topo, 2), stats.F(a.geo, 2), needsPos)
		}
	}
	return Result{
		ID:    "E11",
		Title: "Position-less vs position-based spanners",
		Claim: "§1: the WCDS spanner needs no coordinates yet stays sparse with bounded dilation, unlike RNG/Gabriel which require positions",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"RNG/Gabriel are planar (≤3 edges/node) but have no constant hop-dilation guarantee on UDGs;",
			"the WCDS spanner pays a few extra edges per node for the guaranteed (3h+2, 6l+5) dilation without positions.",
		},
	}, nil
}
