package spanner

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// dilationFixture builds a random UDG network, its Algorithm II spanner
// and a sampled pair set — the measurement workload the worker-count and
// pinned-report tests run against.
func dilationFixture(t testing.TB, seed int64, n int, pairCount int) (*udg.Network, wcds.Result, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	res := wcds.Algo2Centralized(nw.G, nw.ID)
	pairs := SamplePairs(rng, n, pairCount)
	return nw, res, pairs
}

// TestDilationWorkerCountsIdentical is the parallel determinism property
// test: 1, 4 and 7 workers must produce bit-identical Reports on random
// UDGs. Run under -race in CI, it also exercises the worker pool for data
// races.
func TestDilationWorkerCountsIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		nw, res, pairs := dilationFixture(t, seed, 90, 200)
		base, err := DilationN(nw.G, res.Spanner, nw.Weight(), pairs, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{4, 7} {
			rep, err := DilationN(nw.G, res.Spanner, nw.Weight(), pairs, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(rep, base) {
				t.Errorf("seed %d: workers=%d report differs from workers=1:\n%+v\nvs\n%+v",
					seed, workers, rep, base)
			}
		}
		// The default entry point (workers=0 → GOMAXPROCS) must agree too.
		rep, err := Dilation(nw.G, res.Spanner, nw.Weight(), pairs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Errorf("seed %d: Dilation default differs from workers=1", seed)
		}
	}
}

// pinnedDilation holds DilationN's expected Report for the dilationFixture
// seeds 10, 11 and 12 (n=70, 150 sampled pairs), every field recorded, the
// floats bit for bit. The values were recorded from the sequential
// allocate-per-source reference implementation this package carried
// before DilationN was the only one; they pin the measurement against
// silent drift in traversal order, float association or tie-breaking.
var pinnedDilation = map[int64]Report{
	10: {Pairs: 138,
		WorstTopo:    PairStat{U: 10, V: 8, HopsG: 2, HopsSpanner: 3, LenG: math.Float64frombits(0x3ff7b957a4a6608c), LenSpanner: math.Float64frombits(0x3ffbfd3478a4e4a0)},
		WorstGeo:     PairStat{U: 41, V: 25, HopsG: 2, HopsSpanner: 3, LenG: math.Float64frombits(0x3ff177c7913a1e63), LenSpanner: math.Float64frombits(0x40040e43a47bdd1c)},
		AvgTopoRatio: math.Float64frombits(0x3ff0a77c8e0ba913), AvgGeoRatio: math.Float64frombits(0x3ff240bada195964),
		TopoBoundHolds: true, GeoBoundHolds: true},
	11: {Pairs: 136,
		WorstTopo:    PairStat{U: 4, V: 15, HopsG: 2, HopsSpanner: 4, LenG: math.Float64frombits(0x3ff99d34b0a28d54), LenSpanner: math.Float64frombits(0x40049151e67690c4)},
		WorstGeo:     PairStat{U: 53, V: 50, HopsG: 2, HopsSpanner: 4, LenG: math.Float64frombits(0x3ff4221d1f32d80e), LenSpanner: math.Float64frombits(0x400c680cb715fff5)},
		AvgTopoRatio: math.Float64frombits(0x3ff11e5e5e5e5e5e), AvgGeoRatio: math.Float64frombits(0x3ff36adbc5b9979c),
		TopoBoundHolds: true, GeoBoundHolds: true},
	12: {Pairs: 138,
		WorstTopo:    PairStat{U: 6, V: 36, HopsG: 2, HopsSpanner: 5, LenG: math.Float64frombits(0x3ffc5e5bae21cace), LenSpanner: math.Float64frombits(0x40118ef60805a077)},
		WorstGeo:     PairStat{U: 6, V: 36, HopsG: 2, HopsSpanner: 5, LenG: math.Float64frombits(0x3ffc5e5bae21cace), LenSpanner: math.Float64frombits(0x40118ef60805a077)},
		AvgTopoRatio: math.Float64frombits(0x3ff2785a6e61149d), AvgGeoRatio: math.Float64frombits(0x3ff43f44f0618c16),
		TopoBoundHolds: true, GeoBoundHolds: true},
}

// TestDilationPinnedReports holds DilationN, sequential and parallel, to
// the recorded reports field for field.
func TestDilationPinnedReports(t *testing.T) {
	for _, seed := range []int64{10, 11, 12} {
		nw, res, pairs := dilationFixture(t, seed, 70, 150)
		want := pinnedDilation[seed]
		for _, workers := range []int{1, 3} {
			got, err := DilationN(nw.G, res.Spanner, nw.Weight(), pairs, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d workers %d: report differs from the pinned one:\n%+v\nvs\n%+v",
					seed, workers, got, want)
			}
		}
	}
}

// TestDilationErrorDeterministic checks the first-error-in-source-order
// rule: a disconnected spanner reports the same error for every worker
// count.
func TestDilationErrorDeterministic(t *testing.T) {
	nw, res, pairs := dilationFixture(t, 5, 60, 120)
	// Cripple the spanner: drop it to a single edge so most pairs are
	// disconnected in it.
	sp := res.Spanner
	broken := spMinusMostEdges(sp.N())
	_, errBase := DilationN(nw.G, broken, nw.Weight(), pairs, 1)
	if errBase == nil {
		t.Fatal("expected an error from the broken spanner")
	}
	for _, workers := range []int{4, 7} {
		_, err := DilationN(nw.G, broken, nw.Weight(), pairs, workers)
		if err == nil || err.Error() != errBase.Error() {
			t.Errorf("workers=%d: error %v, want %v", workers, err, errBase)
		}
	}
}

// spMinusMostEdges builds an n-node graph with only the edge {0,1}.
func spMinusMostEdges(n int) *graph.Graph {
	g := graph.New(n)
	_ = g.AddEdge(0, 1)
	return g
}

func BenchmarkDilationPooled(b *testing.B) {
	nw, res, pairs := dilationFixture(b, 1, 200, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DilationN(nw.G, res.Spanner, nw.Weight(), pairs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDilationParallel(b *testing.B) {
	nw, res, pairs := dilationFixture(b, 1, 200, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DilationN(nw.G, res.Spanner, nw.Weight(), pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
