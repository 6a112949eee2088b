package exp

import (
	"context"
	"math"
	"math/rand"

	"wcdsnet/internal/baseline"
	"wcdsnet/internal/geom"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/route"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// RunE6 validates Theorem 11: Algorithm II's spanner has topological
// dilation 3 (h' ≤ 3h+2) and geometric dilation 6 (l' ≤ 6l+5), checked
// exhaustively over all non-adjacent pairs. Algorithm I's dilation is
// measured alongside for comparison (the paper proves no bound for it).
func RunE6(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	table := stats.NewTable("algo", "n", "deg", "worst h'/h", "3h+2 ok", "worst l'/l", "6l+5 ok")
	pass := true
	for _, n := range cfg.sizes(100, 200) {
		for _, deg := range []float64{6, 12} {
			worstTopo := map[string]float64{"I": 0, "II": 0}
			worstGeo := map[string]float64{"I": 0, "II": 0}
			okTopo := map[string]bool{"I": true, "II": true}
			okGeo := map[string]bool{"I": true, "II": true}
			for trial := 0; trial < cfg.trials(); trial++ {
				nw, err := genNet(rng, n, deg)
				if err != nil {
					return Result{}, err
				}
				pairs := spanner.AllPairs(nw.G)
				for name, res := range map[string]wcds.Result{
					"I":  wcds.Algo1Centralized(nw.G, nw.ID),
					"II": wcds.Algo2Centralized(nw.G, nw.ID),
				} {
					rep, err := spanner.Dilation(nw.G, res.Spanner, nw.Weight(), pairs)
					if err != nil {
						return Result{}, err
					}
					if r := rep.WorstTopo.TopoRatio(); r > worstTopo[name] {
						worstTopo[name] = r
					}
					if r := rep.WorstGeo.GeoRatio(); r > worstGeo[name] {
						worstGeo[name] = r
					}
					okTopo[name] = okTopo[name] && rep.TopoBoundHolds
					okGeo[name] = okGeo[name] && rep.GeoBoundHolds
				}
			}
			for _, name := range []string{"I", "II"} {
				if name == "II" {
					pass = pass && okTopo[name] && okGeo[name]
				}
				table.AddRow(name, stats.I(n), stats.F(deg, 0),
					stats.F(worstTopo[name], 2), passMark(okTopo[name]),
					stats.F(worstGeo[name], 2), passMark(okGeo[name]))
			}
		}
	}
	return Result{
		ID:    "E6",
		Title: "Spanner dilation",
		Claim: "Theorem 11: Algorithm II's spanner satisfies h' ≤ 3h+2 and l' ≤ 6l+5 for all non-adjacent pairs",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{"Algorithm I rows are informational; the paper proves dilation bounds only for Algorithm II."},
	}, nil
}

// RunE7 measures distributed complexity: Algorithm II must stay at O(n)
// messages (Theorem 12) while Algorithm I is dominated by leader election
// (O(n log n) in the paper via [9]; our flood-max substitute is measured).
func RunE7(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	table := stats.NewTable("n", "algoI msgs", "I msgs/n", "I msgs/(n·lg n)", "algoII msgs", "II msgs/n", "II rounds")
	var ns, perNodeII []float64
	for _, n := range cfg.sizes(100, 200, 400, 800, 1600) {
		var m1, m2, r2v float64
		for trial := 0; trial < cfg.trials(); trial++ {
			nw, err := genNet(rng, n, 10)
			if err != nil {
				return Result{}, err
			}
			_, s1, err := wcds.Algo1Distributed(nw.G, nw.ID, wcds.EngineRunner(simnet.EngineSync))
			if err != nil {
				return Result{}, err
			}
			_, s2, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
			if err != nil {
				return Result{}, err
			}
			m1 += float64(s1.Messages)
			m2 += float64(s2.Messages)
			r2v += float64(s2.Rounds)
		}
		tr := float64(cfg.trials())
		m1, m2, r2v = m1/tr, m2/tr, r2v/tr
		ns = append(ns, float64(n))
		perNodeII = append(perNodeII, m2/float64(n))
		table.AddRow(stats.I(n), stats.F(m1, 0), stats.F(m1/float64(n), 2),
			stats.F(m1/(float64(n)*math.Log2(float64(n))), 2),
			stats.F(m2, 0), stats.F(m2/float64(n), 2), stats.F(r2v, 0))
	}
	// Theorem 12 check: messages-per-node for Algorithm II must not grow
	// with n — compare first and last rows with generous slack.
	pass := true
	if len(perNodeII) >= 2 {
		first, last := perNodeII[0], perNodeII[len(perNodeII)-1]
		if last > first*1.5 {
			pass = false
		}
	}
	_, slope, r2fit := stats.LinearFit(ns, perNodeII)
	return Result{
		ID:    "E7",
		Title: "Message and time complexity",
		Claim: "Theorem 12: Algorithm II uses O(n) time and O(n) messages; Algorithm I is election-dominated",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"Algorithm II messages/node must stay flat as n grows (per-node slope " +
				stats.F(slope*1000, 3) + "e-3 per node, r²=" + stats.F(r2fit, 2) + ").",
			"Algorithm I uses the substituted flood-max election (DESIGN.md §3); its count is measured, not the [9] bound.",
		},
	}, nil
}

// RunE8 compares backbone sizes across constructions, including exact
// minima on small instances (where MWCDS ≤ MCDS must hold).
func RunE8(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	table := stats.NewTable("n", "deg", "MIS", "algoI", "algoII", "greedyWCDS", "greedyCDS", "MWCDS", "MCDS")
	pass := true

	// Exact comparison rows.
	smallN := 12
	if cfg.Quick {
		smallN = 10
	}
	var misS, a1S, a2S, gwS, gcS, ewS, ecS float64
	for trial := 0; trial < cfg.trials(); trial++ {
		nw, err := udg.GenConnected(rng, smallN, udg.SideForAvgDegree(smallN, 5), 2000)
		if err != nil {
			return Result{}, err
		}
		ew, err := baseline.ExactMinWCDS(nw.G)
		if err != nil {
			return Result{}, err
		}
		ec, err := baseline.ExactMinCDS(nw.G)
		if err != nil {
			return Result{}, err
		}
		if len(ew) > len(ec) {
			pass = false // MWCDS ≤ MCDS must hold by definition
		}
		gw, err := baseline.GreedyWCDS(nw.G)
		if err != nil {
			return Result{}, err
		}
		gc, err := baseline.GreedyCDS(nw.G)
		if err != nil {
			return Result{}, err
		}
		misS += float64(len(mis.Greedy(nw.G, mis.ByID(nw.ID))))
		a1S += float64(len(wcds.Algo1Centralized(nw.G, nw.ID).Dominators))
		a2S += float64(len(wcds.Algo2Centralized(nw.G, nw.ID).Dominators))
		gwS += float64(len(gw))
		gcS += float64(len(gc))
		ewS += float64(len(ew))
		ecS += float64(len(ec))
	}
	tr := float64(cfg.trials())
	table.AddRow(stats.I(smallN), "5", stats.F(misS/tr, 1), stats.F(a1S/tr, 1), stats.F(a2S/tr, 1),
		stats.F(gwS/tr, 1), stats.F(gcS/tr, 1), stats.F(ewS/tr, 1), stats.F(ecS/tr, 1))

	// Large-scale comparison (no exact columns).
	for _, n := range cfg.sizes(200, 500) {
		for _, deg := range []float64{8, 16} {
			var misv, a1, a2, gw, gc float64
			for trial := 0; trial < cfg.trials(); trial++ {
				nw, err := genNet(rng, n, deg)
				if err != nil {
					return Result{}, err
				}
				gwSet, err := baseline.GreedyWCDS(nw.G)
				if err != nil {
					return Result{}, err
				}
				gcSet, err := baseline.GreedyCDS(nw.G)
				if err != nil {
					return Result{}, err
				}
				misv += float64(len(mis.Greedy(nw.G, mis.ByID(nw.ID))))
				a1 += float64(len(wcds.Algo1Centralized(nw.G, nw.ID).Dominators))
				a2 += float64(len(wcds.Algo2Centralized(nw.G, nw.ID).Dominators))
				gw += float64(len(gwSet))
				gc += float64(len(gcSet))
			}
			table.AddRow(stats.I(n), stats.F(deg, 0), stats.F(misv/tr, 1), stats.F(a1/tr, 1),
				stats.F(a2/tr, 1), stats.F(gw/tr, 1), stats.F(gc/tr, 1), "-", "-")
		}
	}
	return Result{
		ID:    "E8",
		Title: "Backbone sizes across constructions",
		Claim: "MWCDS ≤ MCDS (weak connectivity only relaxes the constraint); constant-ratio WCDS sizes",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunE9 exercises the backbone applications: clusterhead unicast routing
// (hop bound 3h+2 end to end) and broadcast over the backbone versus blind
// flooding.
func RunE9(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	table := stats.NewTable("n", "deg", "avg route stretch", "bound ok", "backbone tx", "blind tx", "tx saved")
	pass := true
	for _, n := range cfg.sizes(150, 300) {
		for _, deg := range []float64{10, 18} {
			var stretchSum float64
			var stretchCount int
			boundOK := true
			var backboneTx, blindTx float64
			for trial := 0; trial < cfg.trials(); trial++ {
				nw, err := genNet(rng, n, deg)
				if err != nil {
					return Result{}, err
				}
				res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
				if err != nil {
					return Result{}, err
				}
				r, err := route.NewRouter(nw.G, nw.ID, res, tables)
				if err != nil {
					return Result{}, err
				}
				// Sampled unicast workload.
				for q := 0; q < 50; q++ {
					src, dst := rng.Intn(nw.N()), rng.Intn(nw.N())
					if src == dst {
						continue
					}
					path, err := r.Route(src, dst)
					if err != nil {
						return Result{}, err
					}
					h := nw.G.HopDist(src, dst)
					if h <= 0 {
						continue
					}
					if len(path)-1 > 3*h+2 {
						boundOK = false
					}
					stretchSum += float64(len(path)-1) / float64(h)
					stretchCount++
				}
				// Broadcast workload.
				relay := route.RelaySet(nw.G, nw.ID, res, tables)
				src := rng.Intn(nw.N())
				bb := route.Broadcast(nw.G, relay, src)
				bf := route.BlindFlood(nw.G, src)
				if !bb.Covered || !bf.Covered {
					boundOK = false
				}
				backboneTx += float64(bb.Transmissions)
				blindTx += float64(bf.Transmissions)
			}
			tr := float64(cfg.trials())
			pass = pass && boundOK
			saved := 1 - backboneTx/blindTx
			table.AddRow(stats.I(n), stats.F(deg, 0), stats.F(stretchSum/float64(stretchCount), 2),
				passMark(boundOK), stats.F(backboneTx/tr, 0), stats.F(blindTx/tr, 0),
				stats.F(100*saved, 0)+"%")
		}
	}
	return Result{
		ID:    "E9",
		Title: "Routing and broadcast over the backbone",
		Claim: "§1/§4.2: unicast stays within 3h+2 hops; backbone broadcast covers all nodes with far fewer transmissions",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunE10 exercises WCDS maintenance under random-waypoint mobility and node
// on/off churn, measuring the locality of repairs.
func RunE10(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	table := stats.NewTable("n", "events", "valid", "≤3-hop repairs", "median radius", "max radius", "connector churn")
	pass := true
	for _, n := range cfg.sizes(100, 200) {
		nw, err := genNet(rng, n, 10)
		if err != nil {
			return Result{}, err
		}
		m, err := maintain.New(nw)
		if err != nil {
			return Result{}, err
		}
		side := udg.SideForAvgDegree(n, 10)
		events := 30 * cfg.trials()
		applied, within3 := 0, 0
		var radii []float64
		churn := 0
		valid := true
		for ev := 0; ev < events; ev++ {
			v := rng.Intn(n)
			old := m.Network().Pos[v]
			target := geom.Square(side).Clamp(geom.Point{
				X: old.X + rng.NormFloat64()*0.5,
				Y: old.Y + rng.NormFloat64()*0.5,
			})
			rep, err := m.MoveNode(context.Background(), v, target)
			if err != nil {
				return Result{}, err
			}
			if !rep.Connected {
				if _, err := m.MoveNode(context.Background(), v, old); err != nil {
					return Result{}, err
				}
				continue
			}
			applied++
			if err := m.Validate(); err != nil {
				valid = false
			}
			if rep.AffectedRadius >= 0 {
				radii = append(radii, float64(rep.AffectedRadius))
				if rep.AffectedRadius <= 3 {
					within3++
				}
			}
			churn += rep.ConnectorChanges
		}
		sum := stats.Summarize(radii)
		pass = pass && valid
		frac := 0.0
		if applied > 0 {
			frac = float64(within3) / float64(applied)
		}
		table.AddRow(stats.I(n), stats.I(applied), passMark(valid),
			stats.F(100*frac, 0)+"%", stats.F(sum.P50, 0), stats.F(sum.Max, 0),
			stats.F(float64(churn)/float64(applied), 2))
	}
	return Result{
		ID:    "E10",
		Title: "Maintenance under mobility",
		Claim: "§4.2 sketch: the WCDS is repaired locally (affected nodes near the event) while invariants hold",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"valid = MIS + WCDS invariants held after every applied event.",
			"radius counts MIS role flips and connector reassignments; the paper's ≤3-hop claim covers the MIS repair itself.",
		},
	}, nil
}
