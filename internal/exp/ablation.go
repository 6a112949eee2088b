package exp

import (
	"math/rand"

	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/wcds"
)

// Ablations returns the design-decision ablation runners (DESIGN.md §6).
func Ablations() []Runner {
	return []Runner{RunA1, RunA2}
}

// RunA1 ablates Algorithm II's connector-selection mode: Deferred
// (canonical, schedule-independent) versus Eager (the paper's event-driven
// prose). Both must yield valid WCDSs; the ablation measures the price of
// eagerness in additional dominators and messages.
func RunA1(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	table := stats.NewTable("n", "deg", "deferred add'l", "eager add'l", "deferred msgs", "eager msgs", "both valid")
	pass := true
	for _, n := range cfg.sizes(200, 400) {
		for _, deg := range []float64{8, 14} {
			var dAdd, eAdd, dMsg, eMsg float64
			valid := true
			for trial := 0; trial < cfg.trials(); trial++ {
				nw, err := genNet(rng, n, deg)
				if err != nil {
					return Result{}, err
				}
				dRes, dStats, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
				if err != nil {
					return Result{}, err
				}
				eRes, eStats, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Eager, wcds.EngineRunner(simnet.EngineSync))
				if err != nil {
					return Result{}, err
				}
				if !wcds.IsWCDS(nw.G, dRes.Dominators) || !wcds.IsWCDS(nw.G, eRes.Dominators) {
					valid = false
				}
				dAdd += float64(len(dRes.AdditionalDominators))
				eAdd += float64(len(eRes.AdditionalDominators))
				dMsg += float64(dStats.Messages)
				eMsg += float64(eStats.Messages)
			}
			tr := float64(cfg.trials())
			pass = pass && valid
			table.AddRow(stats.I(n), stats.F(deg, 0), stats.F(dAdd/tr, 1), stats.F(eAdd/tr, 1),
				stats.F(dMsg/tr, 0), stats.F(eMsg/tr, 0), passMark(valid))
		}
	}
	return Result{
		ID:    "A1",
		Title: "Connector selection: Deferred vs Eager",
		Claim: "DESIGN.md §6.1: both modes yield valid WCDSs; eager selection may recruit extra (spurious) connectors",
		Table: table.String(),
		Pass:  pass,
	}, nil
}

// RunA2 ablates the MIS ranking for Algorithm I: the level-based ranking is
// what makes the MIS a WCDS (Theorem 5). Plain ID or degree rankings give
// MISs of similar size whose weakly induced subgraph may be DISCONNECTED —
// quantifying why the paper pays for the spanning-tree phases.
func RunA2(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 102))
	table := stats.NewTable("ranking", "n", "avg |MIS|", "WCDS rate", "required")
	pass := true
	for _, n := range cfg.sizes(100, 200) {
		type acc struct {
			size  float64
			wcdsN int
		}
		results := map[string]*acc{"level-id": {}, "id": {}, "degree-id": {}}
		trials := cfg.trials() * 2
		for trial := 0; trial < trials; trial++ {
			nw, err := genNet(rng, n, 6)
			if err != nil {
				return Result{}, err
			}
			root := 0
			rankings := map[string]mis.Less{
				"level-id":  mis.ByLevelID(mis.LevelsFrom(nw.G, root), nw.ID),
				"id":        mis.ByID(nw.ID),
				"degree-id": mis.ByDegreeID(nw.G, nw.ID),
			}
			for name, less := range rankings {
				set := mis.Greedy(nw.G, less)
				results[name].size += float64(len(set))
				if wcds.IsWCDS(nw.G, set) {
					results[name].wcdsN++
				}
			}
		}
		for _, name := range []string{"level-id", "id", "degree-id"} {
			r := results[name]
			rate := float64(r.wcdsN) / float64(trials)
			required := "-"
			if name == "level-id" {
				required = "100%"
				if r.wcdsN != trials {
					pass = false // Theorem 5 must hold for level ranking
				}
			}
			table.AddRow(name, stats.I(n), stats.F(r.size/float64(trials), 1),
				stats.F(100*rate, 0)+"%", required)
		}
	}
	return Result{
		ID:    "A2",
		Title: "MIS ranking ablation for Algorithm I",
		Claim: "Theorem 5: only the level-based ranking guarantees the MIS is itself a WCDS",
		Table: table.String(),
		Pass:  pass,
		Notes: []string{
			"id / degree rankings produce MISs of similar size whose weakly induced subgraphs " +
				"are frequently disconnected — the reason Algorithm I builds a spanning tree first " +
				"and Algorithm II must add connectors.",
		},
	}, nil
}
