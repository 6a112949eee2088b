package wcds

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// BenchmarkEngines runs both distributed constructions on the synchronous
// and event engines, bare and with the per-phase observer installed, on one
// 400-node, degree-10 scene with random IDs. Each sub-benchmark is one full
// construction per op.
func BenchmarkEngines(b *testing.B) {
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(42)), 400, 10, 300)
	if err != nil {
		b.Fatal(err)
	}
	algos := []struct {
		name string
		run  func(Runner) error
	}{
		{"algo1", func(r Runner) error { _, _, err := Algo1Distributed(nw.G, nw.ID, r); return err }},
		{"algo2", func(r Runner) error { _, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, r); return err }},
	}
	for _, a := range algos {
		for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineEvent} {
			for _, observed := range []bool{false, true} {
				name := a.name + "/" + eng.String()
				if observed {
					name += "+obs"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var opts []simnet.Option
						if observed {
							opts = append(opts, ObserveOption(obs.NewSpans()))
						}
						if err := a.run(EngineRunner(eng, opts...)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAlgo2Scale runs Algorithm II (Deferred) on the event engine over
// one 20k-node uniform scene at degree 10: the per-node state cost of the
// protocol at a size where it, not the engine, sets the allocation profile.
func BenchmarkAlgo2Scale(b *testing.B) {
	const n = 20_000
	nw := udg.GenUniform(rand.New(rand.NewSource(42)), n, udg.SideForAvgDegree(n, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineEvent)); err != nil {
			b.Fatal(err)
		}
	}
}
