package exp

import (
	"context"
	"math"
	"math/rand"

	"wcdsnet/internal/baseline"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/geom"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/route"
	"wcdsnet/internal/session"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// e6Spec is E6's sweep: all-pairs dilation of Algorithms I and II.
func e6Spec(cfg Config) *batch.Spec {
	return &batch.Spec{
		Sizes:   cfg.sizes(100, 200),
		Degrees: []float64{6, 12},
		Seeds:   cfg.seeds(6, cfg.trials()),
		Workloads: []batch.Workload{
			{Kind: batch.Dilation, Algorithm: "I"},
			{Kind: batch.Dilation, Algorithm: "II"},
		},
	}
}

// RunE6 validates Theorem 11: Algorithm II's spanner has topological
// dilation 3 (h' ≤ 3h+2) and geometric dilation 6 (l' ≤ 6l+5), checked
// exhaustively over all non-adjacent pairs. Algorithm I's dilation is
// measured alongside for comparison (the paper proves no bound for it).
func RunE6(cfg Config) (Result, error) {
	spec := e6Spec(cfg)
	cells, err := sweep(spec)
	if err != nil {
		return Result{}, err
	}
	table := stats.NewTable("algo", "n", "deg", "worst h'/h", "worst l'/l", "bounds ok")
	pass := true
	for si, n := range spec.Sizes {
		for di, deg := range spec.Degrees {
			for wi, w := range spec.Workloads {
				worstTopo, worstGeo, ok := 0.0, 0.0, true
				for _, r := range cells.at(si, di, wi) {
					worstTopo = max(worstTopo, r.WorstTopo)
					worstGeo = max(worstGeo, r.WorstGeo)
					ok = ok && r.BoundsOK
				}
				if w.Algorithm == "II" {
					pass = pass && ok
				}
				table.AddRow(w.Algorithm, stats.I(n), stats.F(deg, 0),
					stats.F(worstTopo, 2), stats.F(worstGeo, 2), passMark(ok))
			}
		}
	}
	return Result{
		ID:    "E6",
		Title: "Spanner dilation",
		Claim: "Theorem 11: Algorithm II's spanner satisfies h' ≤ 3h+2 and l' ≤ 6l+5 for all non-adjacent pairs",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"bounds ok = h' ≤ 3h+2 and l' ≤ 6l+5 held for every pair of every instance.",
			"Algorithm I rows are informational; the paper proves dilation bounds only for Algorithm II.",
		},
	}, nil
}

// RunE7 measures distributed complexity: Algorithm II must stay at O(n)
// messages (Theorem 12) while Algorithm I is dominated by leader election
// (O(n log n) in the paper via [9]; our flood-max substitute is measured).
func RunE7(cfg Config) (Result, error) {
	spec := &batch.Spec{
		Sizes:     cfg.sizes(100, 200, 400, 800, 1600),
		Degrees:   []float64{10},
		Seeds:     cfg.seeds(7, cfg.trials()),
		Workloads: []batch.Workload{{Algorithm: "I", Mode: "sync"}, {Algorithm: "II", Mode: "sync"}},
	}
	cells, err := sweep(spec)
	if err != nil {
		return Result{}, err
	}
	table := stats.NewTable("n", "algoI msgs", "I msgs/n", "I msgs/(n·lg n)", "algoII msgs", "II msgs/n", "II rounds")
	messages := func(r batch.Result) int { return r.Messages }
	var ns, perNodeII []float64
	for si, n := range spec.Sizes {
		r1, r2 := cells.at(si, 0, 0), cells.at(si, 0, 1)
		m1, m2 := mean(r1, messages), mean(r2, messages)
		r2v := mean(r2, func(r batch.Result) int { return r.Rounds })
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
	table := stats.NewTable("n", "deg", "MIS", "algoI", "algoII", "greedyWCDS", "greedyCDS", "MWCDS", "MCDS")
	pass := true

	// Exact comparison rows.
	smallN := 12
	if cfg.Quick {
		smallN = 10
	}
	var misS, a1S, a2S, gwS, gcS, ewS, ecS float64
	for _, seed := range cfg.seeds(8, cfg.trials()) {
		nw, err := batch.Generate(udg.Topology{}, smallN, 5, seed)
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

	// Large-scale comparison (no exact columns). Algorithm II's MIS is the
	// greedy ID-ranked MIS, so its row fills the MIS column.
	spec := &batch.Spec{
		Sizes:   cfg.sizes(200, 500),
		Degrees: []float64{8, 16},
		Seeds:   cfg.seeds(8, cfg.trials()),
		Workloads: []batch.Workload{
			{Algorithm: "I"}, {Algorithm: "II"}, {Algorithm: "greedy-wcds"}, {Algorithm: "greedy-cds"},
		},
	}
	cells, err := sweep(spec)
	if err != nil {
		return Result{}, err
	}
	backbone := func(r batch.Result) int { return r.Backbone }
	for si, n := range spec.Sizes {
		for di, deg := range spec.Degrees {
			row := []string{stats.I(n), stats.F(deg, 0),
				stats.F(mean(cells.at(si, di, 1), func(r batch.Result) int { return r.MIS }), 1)}
			for wi := range spec.Workloads {
				row = append(row, stats.F(mean(cells.at(si, di, wi), backbone), 1))
			}
			table.AddRow(append(row, "-", "-")...)
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
	spec := &batch.Spec{
		Sizes:     cfg.sizes(150, 300),
		Degrees:   []float64{10, 18},
		Seeds:     cfg.seeds(9, cfg.trials()),
		Workloads: []batch.Workload{{Kind: batch.Broadcast}},
	}
	cells, err := sweep(spec)
	if err != nil {
		return Result{}, err
	}
	table := stats.NewTable("n", "deg", "avg route stretch", "bound ok", "backbone tx", "blind tx", "tx saved")
	pass := true
	for si, n := range spec.Sizes {
		for di, deg := range spec.Degrees {
			var stretchSum float64
			var stretchCount int
			boundOK := true
			// Sampled unicast workload on each cell's network.
			for _, seed := range spec.Seeds {
				nw, err := batch.Generate(udg.Topology{}, n, deg, seed)
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
				for _, pr := range spanner.Pairs(nw.G, 50, seed) {
					src, dst := pr[0], pr[1]
					path, err := r.Route(src, dst)
					if err != nil {
						return Result{}, err
					}
					h := nw.G.HopDist(src, dst)
					if len(path)-1 > 3*h+2 {
						boundOK = false
					}
					stretchSum += float64(len(path)-1) / float64(h)
					stretchCount++
				}
			}
			// Broadcast workload from node 0.
			rows := cells.at(si, di, 0)
			for _, r := range rows {
				boundOK = boundOK && r.Covered
			}
			pass = pass && boundOK
			backboneTx := mean(rows, func(r batch.Result) int { return r.BackboneTx })
			blindTx := mean(rows, func(r batch.Result) int { return r.FloodTx })
			table.AddRow(stats.I(n), stats.F(deg, 0), stats.F(stretchSum/float64(stretchCount), 2),
				passMark(boundOK), stats.F(backboneTx, 0), stats.F(blindTx, 0),
				stats.F(100*(1-backboneTx/blindTx), 0)+"%")
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

// RunE10 exercises WCDS maintenance under random-waypoint mobility and
// under session churn (moves, leaves, rejoins and brand-new joins),
// measuring the locality of repairs. Both traces start from the same scene
// per size and draw their events from a stream seeded with the cell seed.
func RunE10(cfg Config) (Result, error) {
	table := stats.NewTable("trace", "n", "events", "valid", "≤3-hop repairs", "median radius", "max radius", "connector churn")
	pass := true
	seed := cfg.seeds(10, 1)[0]
	events := 30 * cfg.trials()
	for _, trace := range []struct {
		name string
		run  func(nw *udg.Network, rng *rand.Rand, events int) (e10Tally, error)
	}{{"moves", e10Moves}, {"churn", e10Churn}} {
		for _, n := range cfg.sizes(100, 200) {
			nw, err := batch.Generate(udg.Topology{}, n, 10, seed)
			if err != nil {
				return Result{}, err
			}
			tl, err := trace.run(nw, rand.New(rand.NewSource(seed)), events)
			if err != nil {
				return Result{}, err
			}
			sum := stats.Summarize(tl.radii)
			pass = pass && tl.valid
			frac := 0.0
			if tl.applied > 0 {
				frac = float64(tl.within3) / float64(tl.applied)
			}
			table.AddRow(trace.name, stats.I(n), stats.I(tl.applied), passMark(tl.valid),
				stats.F(100*frac, 0)+"%", stats.F(sum.P50, 0), stats.F(sum.Max, 0),
				stats.F(float64(tl.churn)/float64(tl.applied), 2))
		}
	}
	return Result{
		ID:    "E10",
		Title: "Maintenance under mobility and churn",
		Claim: "§4.2 sketch: the WCDS is repaired locally (affected nodes near the event) while invariants hold",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"moves: one node moves per event; a move that would disconnect the network is undone and not counted.",
			"churn: one session.RandomEpoch per event (1–4 moves, leaves, rejoins and joins), applied through a plain session.",
			"valid = MIS + WCDS invariants held after every applied event.",
			"radius counts MIS role flips and connector reassignments; the paper's ≤3-hop claim covers the MIS repair itself.",
		},
	}, nil
}

// e10Tally is one E10 trace: the events applied, whether the invariants
// held after every one, the repair radii of the events whose changes were
// all reachable (radius ≥ 0), how many of those stayed within 3 hops, and
// the connector changes.
type e10Tally struct {
	applied, within3, churn int
	radii                   []float64
	valid                   bool
}

func (tl *e10Tally) record(m *maintain.Maintainer, radius, connectorChanges int) {
	tl.applied++
	if err := m.Validate(); err != nil {
		tl.valid = false
	}
	if radius >= 0 {
		tl.radii = append(tl.radii, float64(radius))
		if radius <= 3 {
			tl.within3++
		}
	}
	tl.churn += connectorChanges
}

// e10Moves moves one random node per event by a Gaussian step, undoing
// moves that disconnect the network.
func e10Moves(nw *udg.Network, rng *rand.Rand, events int) (e10Tally, error) {
	tl := e10Tally{valid: true}
	m, err := maintain.New(nw)
	if err != nil {
		return tl, err
	}
	n := nw.N()
	side := udg.SideForAvgDegree(n, 10)
	for ev := 0; ev < events; ev++ {
		v := rng.Intn(n)
		old := m.Network().Pos[v]
		target := geom.Square(side).Clamp(geom.Point{
			X: old.X + rng.NormFloat64()*0.5,
			Y: old.Y + rng.NormFloat64()*0.5,
		})
		rep, err := m.MoveNode(context.Background(), v, target)
		if err != nil {
			return tl, err
		}
		if !rep.Connected {
			if _, err := m.MoveNode(context.Background(), v, old); err != nil {
				return tl, err
			}
			continue
		}
		tl.record(m, rep.AffectedRadius, rep.ConnectorChanges)
	}
	return tl, nil
}

// e10Churn applies one random churn epoch per event through a session
// with the default (local) repair policy.
func e10Churn(nw *udg.Network, rng *rand.Rand, events int) (e10Tally, error) {
	tl := e10Tally{valid: true}
	s, err := session.New("e10", nw, session.Config{})
	if err != nil {
		return tl, err
	}
	defer s.Close(nil)
	for ev := 0; ev < events; ev++ {
		e, err := s.Apply(context.Background(), session.RandomEpoch(rng, s))
		if err != nil {
			return tl, err
		}
		tl.record(s.Maintainer(), e.RepairRadius, e.ConnectorChanges)
	}
	return tl, nil
}
