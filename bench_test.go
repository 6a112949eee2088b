package wcdsnet

// Benchmark harness: one benchmark per experiment in DESIGN.md's index
// (E1–E10 regenerate the EXPERIMENTS.md tables at reduced scale), plus
// micro-benchmarks for the substrate hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Full-scale tables come from `go run ./cmd/experiments`.

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/baseline"
	"wcdsnet/internal/discovery"
	"wcdsnet/internal/exp"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/route"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// benchNet memoizes one network per size so setup cost is paid once.
var benchNets = map[int]*udg.Network{}

func benchNet(b *testing.B, n int, deg float64) *udg.Network {
	b.Helper()
	if nw, ok := benchNets[n]; ok {
		return nw
	}
	rng := rand.New(rand.NewSource(int64(n)))
	nw, err := udg.GenConnectedAvgDegree(rng, n, deg, 2000)
	if err != nil {
		b.Fatal(err)
	}
	benchNets[n] = nw
	return nw
}

// runExperiment drives one experiment runner at quick scale per iteration.
func runExperiment(b *testing.B, runner exp.Runner) {
	b.Helper()
	cfg := exp.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed bound checks", res.ID)
		}
	}
}

// Experiment benchmarks (one per DESIGN.md table).

func BenchmarkE1MISNeighbors(b *testing.B)    { runExperiment(b, exp.RunE1) }
func BenchmarkE2MISPacking(b *testing.B)      { runExperiment(b, exp.RunE2) }
func BenchmarkE3SubsetDistance(b *testing.B)  { runExperiment(b, exp.RunE3) }
func BenchmarkE4ApproxRatio(b *testing.B)     { runExperiment(b, exp.RunE4) }
func BenchmarkE5SpannerSparsity(b *testing.B) { runExperiment(b, exp.RunE5) }
func BenchmarkE6Dilation(b *testing.B)        { runExperiment(b, exp.RunE6) }
func BenchmarkE7Complexity(b *testing.B)      { runExperiment(b, exp.RunE7) }
func BenchmarkE8BackboneSizes(b *testing.B)   { runExperiment(b, exp.RunE8) }
func BenchmarkE9Applications(b *testing.B)    { runExperiment(b, exp.RunE9) }
func BenchmarkE10Maintenance(b *testing.B)    { runExperiment(b, exp.RunE10) }
func BenchmarkE11SpannerModels(b *testing.B)  { runExperiment(b, exp.RunE11) }
func BenchmarkE12BeyondUDG(b *testing.B)      { runExperiment(b, exp.RunE12) }
func BenchmarkA1SelectionMode(b *testing.B)   { runExperiment(b, exp.RunA1) }
func BenchmarkA2RankingAblation(b *testing.B) { runExperiment(b, exp.RunA2) }

// Substrate micro-benchmarks.

func BenchmarkUDGBuild1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pos := udg.GenUniform(rng, 1000, udg.SideForAvgDegree(1000, 12)).Pos
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = udg.BuildGraph(pos, 1)
	}
}

func BenchmarkMISGreedy1000(b *testing.B) {
	nw := benchNet(b, 1000, 12)
	less := mis.ByID(nw.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mis.Greedy(nw.G, less)
	}
}

func BenchmarkBFS1000(b *testing.B) {
	nw := benchNet(b, 1000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = nw.G.BFS(i % nw.N())
	}
}

func BenchmarkAlgo1Centralized(b *testing.B) {
	nw := benchNet(b, 1000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wcds.Algo1Centralized(nw.G, nw.ID)
	}
}

func BenchmarkAlgo2Centralized(b *testing.B) {
	nw := benchNet(b, 1000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wcds.Algo2Centralized(nw.G, nw.ID)
	}
}

func BenchmarkAlgo1DistributedSync(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcds.Algo1Distributed(nw.G, nw.ID, wcds.EngineRunner(simnet.EngineSync)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo2DistributedSync(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgo2DistributedAsync(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := Run(nw, AlgoII, WithEngine(EngineAsync), WithScheduleSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSelectionMode compares Deferred vs Eager connector
// selection (DESIGN.md §6 design decision 1).
func BenchmarkAblationSelectionDeferred(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSelectionEager(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcds.Algo2Distributed(nw.G, nw.ID, wcds.Eager, wcds.EngineRunner(simnet.EngineSync)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyWCDS(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.GreedyWCDS(nw.G); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactMWCDS12(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	nw, err := udg.GenConnected(rng, 12, udg.SideForAvgDegree(12, 5), 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ExactMinWCDS(nw.G); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDilationSampled(b *testing.B) {
	nw := benchNet(b, 500, 12)
	res := wcds.Algo2Centralized(nw.G, nw.ID)
	rng := rand.New(rand.NewSource(3))
	pairs := spanner.SamplePairs(rng, nw.N(), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spanner.Dilation(nw.G, res.Spanner, nw.Weight(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterConstruct(b *testing.B) {
	nw := benchNet(b, 500, 12)
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.NewRouter(nw.G, nw.ID, res, tables); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterRoute(b *testing.B) {
	nw := benchNet(b, 500, 12)
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.NewRouter(nw.G, nw.ID, res, tables)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(i%nw.N(), (i*7+3)%nw.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoveryTwoHop(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := discovery.Run(nw.G, nw.ID, 2, simnet.EngineSync); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZeroKnowledgePipeline(b *testing.B) {
	nw := benchNet(b, 500, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcds.Algo2ZeroKnowledge(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairDistributed(b *testing.B) {
	nw := benchNet(b, 500, 12)
	valid := mis.Greedy(nw.G, mis.ByID(nw.ID))
	mask := make([]bool, nw.N())
	for _, v := range valid {
		mask[v] = true
	}
	// Corrupt a tenth of the roles so every iteration repairs real damage.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < nw.N()/10; k++ {
		mask[rng.Intn(nw.N())] = k%2 == 0
	}
	run := func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		return simnet.RunSync(g, procs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := maintain.RepairMISDistributed(nw.G, nw.ID, mask, run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDVTableConstruction(b *testing.B) {
	nw := benchNet(b, 500, 12)
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	if err != nil {
		b.Fatal(err)
	}
	run := func(g *graph.Graph, procs []simnet.Proc) (simnet.Stats, error) {
		return simnet.RunSync(g, procs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := route.BuildTablesDistributed(nw.G, nw.ID, res, tables, run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometricSpanners(b *testing.B) {
	nw := benchNet(b, 1000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spanner.RNG(nw)
		_ = spanner.Gabriel(nw)
	}
}

func BenchmarkBackboneBroadcast(b *testing.B) {
	nw := benchNet(b, 500, 12)
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	if err != nil {
		b.Fatal(err)
	}
	relay := route.RelaySet(nw.G, nw.ID, res, tables)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := route.Broadcast(nw.G, relay, i%nw.N())
		if !rep.Covered {
			b.Fatal("broadcast not covered")
		}
	}
}
