package udg

import (
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
)

// BenchmarkGenConnected measures one kept uniform scene, rejected draws
// included. The sparse cells reject most draws (n=200 at degree 6 keeps
// about one in 30); degree 10 almost always keeps the first.
func BenchmarkGenConnected(b *testing.B) {
	for _, c := range []struct {
		n   int
		deg float64
	}{{400, 7}, {200, 6}, {400, 10}} {
		b.Run(fmt.Sprintf("n=%d/deg=%g", c.n, c.deg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GenConnectedAvgDegree(rand.New(rand.NewSource(int64(i))), c.n, c.deg, 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchGraph *graph.Graph

// BenchmarkBuildGraph measures the CSR build alone on a degree-10 uniform
// scene: the serve-sized n=400 and the 250k-node scale scene.
func BenchmarkBuildGraph(b *testing.B) {
	for _, n := range []int{400, 250_000} {
		nw := GenUniform(rand.New(rand.NewSource(1)), n, SideForAvgDegree(n, 10))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = BuildGraph(nw.Pos, nw.Radius)
			}
		})
	}
}
