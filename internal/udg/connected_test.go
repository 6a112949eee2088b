package udg

import (
	"math"
	"math/rand"
	"testing"

	"wcdsnet/internal/geom"
)

// TestConnectedAgreesWithBuildGraph holds the grid check that rejects
// draws to the graph a kept draw gets: on every unit-disk family, over
// densities where both answers occur, connected must equal
// BuildGraph(...).Connected().
func TestConnectedAgreesWithBuildGraph(t *testing.T) {
	for _, kind := range []string{"uniform", "clusters", "grid:jitter=1", "corridor", "annulus"} {
		topo, err := ParseTopology(kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(kind))))
		seen := map[bool]int{}
		for trial := 0; trial < 300; trial++ {
			n := 2 + rng.Intn(300)
			deg := 2 + rng.Float64()*10
			pos, _ := topo.draw(rng, n, deg)
			want := BuildGraph(pos, 1).Connected()
			if got := connected(pos, 1); got != want {
				t.Fatalf("%s trial %d (n=%d deg=%.2f): connected %v, graph says %v", kind, trial, n, deg, got, want)
			}
			seen[want]++
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Errorf("%s: one answer never occurred (%v); the densities do not test the check", kind, seen)
		}
	}
}

func TestConnectedEdgeCases(t *testing.T) {
	var diagonal []geom.Point
	for i := 0; i < 200; i++ {
		diagonal = append(diagonal, geom.Point{X: 0.5 * float64(i), Y: 0.5 * float64(i)})
	}
	var oneCell []geom.Point
	for i := 0; i < 12; i++ {
		oneCell = append(oneCell, geom.Point{X: 0.05 * float64(i), Y: 0.6 - 0.05*float64(i)})
	}
	far := append([]geom.Point(nil), oneCell...)
	far = append(far, geom.Point{X: 1e6, Y: -1e6})
	cases := []struct {
		name   string
		pos    []geom.Point
		radius float64
		want   bool
	}{
		{"empty", nil, 1, true},
		{"one node", []geom.Point{{X: 3, Y: 4}}, 1, true},
		{"two adjacent", []geom.Point{{X: 0, Y: 0}, {X: 0.6, Y: 0.6}}, 1, true},
		{"two apart", []geom.Point{{X: 0, Y: 0}, {X: 0.8, Y: 0.8}}, 1, false},
		{"pair at exactly the radius", []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 1, true},
		{"pair at exactly the radius, vertical", []geom.Point{{X: -1, Y: 0}, {X: -1, Y: -2.5}}, 2.5, true},
		{"pair just beyond the radius", []geom.Point{{X: 0, Y: 0}, {X: 1.0000001, Y: 0}}, 1, false},
		{"all in one cell", oneCell, 1, true},
		{"all in one cell, small radius", oneCell, 0.05, false},
		{"sparse extent, connected", diagonal, 1, true},
		{"sparse extent, split", far, 1, false},
		{"NaN coordinate", []geom.Point{{X: 0, Y: 0}, {X: math.NaN(), Y: 0}, {X: 0.5, Y: 0}}, 1, false},
		{"infinite coordinate", []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: math.Inf(-1)}, {X: 0.5, Y: 0}}, 1, false},
	}
	for _, tc := range cases {
		if got := connected(tc.pos, tc.radius); got != tc.want {
			t.Errorf("%s: connected %v, want %v", tc.name, got, tc.want)
		}
		if got := BuildGraph(tc.pos, tc.radius).Connected(); got != tc.want {
			t.Errorf("%s: BuildGraph(...).Connected() %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, ok := new(gridScratch).bin(diagonal, 1); ok {
		t.Error("the diagonal extent should take the sparse path")
	}
}

// TestConnectedRandomClouds compares the check with the graph on point
// clouds no generator makes: negative coordinates, odd radii, and extents
// on both sides of the sparse cut-off.
func TestConnectedRandomClouds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(150)
		radius := 0.2 + rng.Float64()*2
		side := radius * math.Sqrt(float64(n)) * (0.3 + rng.Float64()*3)
		if trial%10 == 0 {
			side *= 100
		}
		offX, offY := rng.Float64()*20-10, rng.Float64()*20-10
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: offX + rng.Float64()*side, Y: offY + rng.Float64()*side}
		}
		if got, want := connected(pos, radius), BuildGraph(pos, radius).Connected(); got != want {
			t.Fatalf("trial %d (n=%d radius=%.3f side=%.2f): connected %v, graph says %v", trial, n, radius, side, got, want)
		}
	}
}
