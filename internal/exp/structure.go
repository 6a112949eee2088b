package exp

import (
	"wcdsnet/internal/baseline"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// RunE1 validates Lemma 1: in a unit-disk graph, a node outside an MIS has
// at most five MIS neighbours, for every ranking strategy.
func RunE1(cfg Config) (Result, error) {
	table := stats.NewTable("ranking", "n", "avg deg", "max MIS nbrs", "bound", "holds")
	pass := true
	for _, n := range cfg.sizes(200, 400) {
		for _, deg := range []float64{6, 12, 20} {
			maxByRank := map[string]int{"id": 0, "level-id": 0, "degree-id": 0}
			for _, seed := range cfg.seeds(1, cfg.trials()) {
				nw, err := batch.Generate(udg.Topology{}, n, deg, seed)
				if err != nil {
					return Result{}, err
				}
				sets := map[string][]int{
					"id":        mis.Greedy(nw.G, mis.ByID(nw.ID)),
					"level-id":  mis.Greedy(nw.G, mis.ByLevelID(mis.LevelsFrom(nw.G, 0), nw.ID)),
					"degree-id": mis.Greedy(nw.G, mis.ByDegreeID(nw.G, nw.ID)),
				}
				for name, set := range sets {
					if m := mis.MaxMISNeighbors(nw.G, set); m > maxByRank[name] {
						maxByRank[name] = m
					}
				}
			}
			for _, name := range []string{"id", "level-id", "degree-id"} {
				ok := maxByRank[name] <= 5
				pass = pass && ok
				table.AddRow(name, stats.I(n), stats.F(deg, 0), stats.I(maxByRank[name]), "5", passMark(ok))
			}
		}
	}
	return Result{
		ID:    "E1",
		Title: "MIS neighbour bound",
		Claim: "Lemma 1: any node not in the MIS has at most 5 MIS neighbours",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunE2 validates Lemma 2: an MIS node has at most 23 MIS peers exactly two
// hops away and at most 47 within three hops, including on clustered
// (adversarially dense) layouts.
func RunE2(cfg Config) (Result, error) {
	table := stats.NewTable("layout", "n", "max 2-hop", "bound", "max ≤3-hop", "bound", "holds")
	pass := true
	clusters := udg.Topology{Kind: "clusters", Params: map[string]float64{"k": 4, "sigma": 1}}
	for _, n := range cfg.sizes(300, 600) {
		maxTwo := map[string]int{"uniform": 0, "clustered": 0}
		maxThree := map[string]int{"uniform": 0, "clustered": 0}
		for _, seed := range cfg.seeds(2, cfg.trials()) {
			uniform, err := batch.Generate(udg.Topology{}, n, 14, seed)
			if err != nil {
				return Result{}, err
			}
			clustered, err := batch.Generate(clusters, n, 14, seed)
			if err != nil {
				return Result{}, err
			}
			for name, nw := range map[string]*udg.Network{"uniform": uniform, "clustered": clustered} {
				set := mis.Greedy(nw.G, mis.ByID(nw.ID))
				two, three := mis.PackingCounts(nw.G, set)
				if two > maxTwo[name] {
					maxTwo[name] = two
				}
				if three > maxThree[name] {
					maxThree[name] = three
				}
			}
		}
		for _, name := range []string{"uniform", "clustered"} {
			ok := maxTwo[name] <= 23 && maxThree[name] <= 47
			pass = pass && ok
			table.AddRow(name, stats.I(n), stats.I(maxTwo[name]), "23", stats.I(maxThree[name]), "47", passMark(ok))
		}
	}
	return Result{
		ID:    "E2",
		Title: "MIS packing within 2 and 3 hops",
		Claim: "Lemma 2: ≤23 MIS nodes exactly two hops away; ≤47 within three hops",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunE3 validates Lemma 3 and Theorem 4: complementary subsets of an
// arbitrary (ID-ranked) MIS are 2 or 3 hops apart; with level-based ranking
// the distance is exactly 2.
func RunE3(cfg Config) (Result, error) {
	table := stats.NewTable("ranking", "n", "k=2", "k=3", "k>3", "holds")
	pass := true
	for _, n := range cfg.sizes(100, 200) {
		counts := map[string][3]int{"id": {}, "level-id": {}}
		for _, seed := range cfg.seeds(3, cfg.trials()*2) {
			nw, err := batch.Generate(udg.Topology{}, n, 7, seed)
			if err != nil {
				return Result{}, err
			}
			for name, less := range map[string]mis.Less{
				"id":       mis.ByID(nw.ID),
				"level-id": mis.ByLevelID(mis.LevelsFrom(nw.G, 0), nw.ID),
			} {
				set := mis.Greedy(nw.G, less)
				k, ok := mis.MaxComplementaryDistance(nw.G, set, 5)
				c := counts[name]
				switch {
				case !ok || k > 3:
					c[2]++
				case k == 3:
					c[1]++
				default:
					c[0]++
				}
				counts[name] = c
			}
		}
		for _, name := range []string{"id", "level-id"} {
			c := counts[name]
			ok := c[2] == 0
			if name == "level-id" {
				ok = ok && c[1] == 0 // Theorem 4: exactly two hops
			}
			pass = pass && ok
			table.AddRow(name, stats.I(n), stats.I(c[0]), stats.I(c[1]), stats.I(c[2]), passMark(ok))
		}
	}
	return Result{
		ID:    "E3",
		Title: "Complementary subset distances",
		Claim: "Lemma 3: arbitrary MIS subsets are 2–3 hops apart; Theorem 4: level-ranked MIS exactly 2",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunE4 measures approximation ratios: against the exact optimum on small
// instances (Lemma 7's 5·opt bound for Algorithm I) and against the
// ⌈|MIS|/5⌉ lower bound at larger scale.
func RunE4(cfg Config) (Result, error) {
	table := stats.NewTable("n", "opt/LB", "algoI", "algoII", "greedy", "worst ratio I", "≤5", "holds")
	pass := true

	// Small instances with the exact optimum.
	exactN := []int{10, 12, 14}
	if cfg.Quick {
		exactN = []int{10}
	}
	for _, n := range exactN {
		var optSum, a1Sum, a2Sum, grSum int
		worst := 0.0
		for _, seed := range cfg.seeds(4, cfg.trials()) {
			nw, err := batch.Generate(udg.Topology{}, n, 5, seed)
			if err != nil {
				return Result{}, err
			}
			opt, err := baseline.ExactMinWCDS(nw.G)
			if err != nil {
				return Result{}, err
			}
			a1 := len(wcds.Algo1Centralized(nw.G, nw.ID).Dominators)
			a2 := len(wcds.Algo2Centralized(nw.G, nw.ID).Dominators)
			gr, err := baseline.GreedyWCDS(nw.G)
			if err != nil {
				return Result{}, err
			}
			optSum += len(opt)
			a1Sum += a1
			a2Sum += a2
			grSum += len(gr)
			if r := float64(a1) / float64(len(opt)); r > worst {
				worst = r
			}
		}
		ok := worst <= 5.0
		pass = pass && ok
		tr := float64(cfg.trials())
		table.AddRow(stats.I(n)+" (exact)", stats.F(float64(optSum)/tr, 2), stats.F(float64(a1Sum)/tr, 2),
			stats.F(float64(a2Sum)/tr, 2), stats.F(float64(grSum)/tr, 2), stats.F(worst, 2), "5.00", passMark(ok))
	}

	// Larger instances against the MIS-based lower bound.
	for _, n := range cfg.sizes(200, 500) {
		var lbSum, a1Sum, a2Sum, grSum int
		worst := 0.0
		for _, seed := range cfg.seeds(4, cfg.trials()) {
			nw, err := batch.Generate(udg.Topology{}, n, 10, seed)
			if err != nil {
				return Result{}, err
			}
			lb := baseline.MISLowerBound(nw.G, nw.ID)
			a1 := len(wcds.Algo1Centralized(nw.G, nw.ID).Dominators)
			a2 := len(wcds.Algo2Centralized(nw.G, nw.ID).Dominators)
			gr, err := baseline.GreedyWCDS(nw.G)
			if err != nil {
				return Result{}, err
			}
			lbSum += lb
			a1Sum += a1
			a2Sum += a2
			grSum += len(gr)
			if r := float64(a1) / float64(lb); r > worst {
				worst = r
			}
		}
		tr := float64(cfg.trials())
		// Against a lower bound the ratio can exceed 5 without violating
		// Lemma 7; reported for scale, not checked.
		table.AddRow(stats.I(n)+" (LB)", stats.F(float64(lbSum)/tr, 2), stats.F(float64(a1Sum)/tr, 2),
			stats.F(float64(a2Sum)/tr, 2), stats.F(float64(grSum)/tr, 2), stats.F(worst, 2), "-", "n/a")
	}
	return Result{
		ID:    "E4",
		Title: "Approximation ratios vs optimum",
		Claim: "Lemma 7: Algorithm I's WCDS is at most 5·opt",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"opt is the exact MWCDS (branch-and-bound) on small rows; LB rows use the ⌈|MIS|/5⌉ lower bound.",
			"greedy is the Chen–Liestman-style centralized coverage greedy.",
		},
	}, nil
}

// RunE5 validates the sparse-spanner claims (Theorems 8 and 10): the
// weakly induced subgraph has Θ(n) edges even as the graph itself grows
// quadratically dense.
func RunE5(cfg Config) (Result, error) {
	spec := &batch.Spec{
		Sizes:     cfg.sizes(200, 500, 1000),
		Degrees:   []float64{10, 20},
		Seeds:     cfg.seeds(5, cfg.trials()),
		Workloads: []batch.Workload{{Algorithm: "I"}, {Algorithm: "II"}},
	}
	cells, err := sweep(spec)
	if err != nil {
		return Result{}, err
	}
	table := stats.NewTable("n", "deg", "|E(G)|", "algoI edges", "algoII edges", "II edges/node", "bound ok")
	pass := true
	for si, n := range spec.Sizes {
		for di, deg := range spec.Degrees {
			r1, r2 := cells.at(si, di, 0), cells.at(si, di, 1)
			boundOK := true
			for k := range r1 {
				gray1, gray2 := n-r1[k].Backbone, n-r2[k].Backbone
				if r1[k].SpannerEdges > 5*gray1 || r2[k].SpannerEdges > 9*gray2+47*r2[k].MIS {
					boundOK = false
				}
			}
			pass = pass && boundOK
			spannerEdges := func(r batch.Result) int { return r.SpannerEdges }
			e2 := mean(r2, spannerEdges)
			table.AddRow(stats.I(n), stats.F(deg, 0), stats.F(mean(r1, func(r batch.Result) int { return r.Edges }), 0),
				stats.F(mean(r1, spannerEdges), 0), stats.F(e2, 0), stats.F(e2/float64(n), 2), passMark(boundOK))
		}
	}
	return Result{
		ID:    "E5",
		Title: "Spanner sparsity",
		Claim: "Theorems 8/10: the weakly induced subgraph has Θ(n) edges (≤5·|gray| for I; ≤9·|gray|+47·|S| for II)",
		Table: table.String(),
		Pass:  pass,
	}, nil
}
