package spanner

import (
	"fmt"
	"math/rand"
	"testing"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/udg"
)

func TestRNGHandExample(t *testing.T) {
	// Equilateral-ish triangle with one vertex pulled close to the others:
	// points 0=(0,0), 1=(0.9,0), 2=(0.45,0.3). Edge {0,1} (length 0.9) has
	// witness 2 with d(0,2)≈0.54 and d(1,2)≈0.54, both < 0.9, so RNG drops
	// it; the two short edges survive.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 0.9, Y: 0}, {X: 0.45, Y: 0.3}}
	nw, err := udg.New(pos, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw.G.M() != 3 {
		t.Fatalf("triangle expected, M=%d", nw.G.M())
	}
	rng := RNG(nw)
	if rng.HasEdge(0, 1) {
		t.Error("RNG should drop the long edge {0,1}")
	}
	if !rng.HasEdge(0, 2) || !rng.HasEdge(1, 2) {
		t.Error("RNG should keep the short edges")
	}
}

func TestGabrielHandExample(t *testing.T) {
	// Witness on the diameter circle: 0=(0,0), 1=(1,0), 2=(0.5,0.4).
	// d(0,2)²+d(1,2)² = 0.41+0.41 = 0.82 < 1 → Gabriel drops {0,1}.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0.5, Y: 0.4}}
	nw, err := udg.New(pos, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gg := Gabriel(nw)
	if gg.HasEdge(0, 1) {
		t.Error("Gabriel should drop {0,1}")
	}
	// RNG keeps it: d(0,2)≈0.64 < 1 but d(1,2)≈0.64 < 1 too → RNG also
	// drops. Pick a witness outside the lens but inside the circle:
	// 2=(0.5,0.49): d(0,2)≈0.70, d(1,2)≈0.70 < 1 → still in lens. The
	// lens is strictly inside the circle, so RNG ⊆ Gabriel; verify the
	// subset relation instead of a separating example here.
	rngG := RNG(nw)
	for _, e := range rngG.Edges() {
		if !gg.HasEdge(e[0], e[1]) {
			t.Errorf("RNG edge %v missing from Gabriel", e)
		}
	}
}

func TestGeometricSubsetChain(t *testing.T) {
	// RNG ⊆ Gabriel ⊆ UDG on random instances.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 80+rng.Intn(120), 6+rng.Float64()*12, 300)
		if err != nil {
			t.Fatal(err)
		}
		r := RNG(nw)
		gg := Gabriel(nw)
		for _, e := range r.Edges() {
			if !gg.HasEdge(e[0], e[1]) {
				t.Fatalf("trial %d: RNG ⊄ Gabriel at %v", trial, e)
			}
		}
		for _, e := range gg.Edges() {
			if !nw.G.HasEdge(e[0], e[1]) {
				t.Fatalf("trial %d: Gabriel ⊄ UDG at %v", trial, e)
			}
		}
		if !(r.M() <= gg.M() && gg.M() <= nw.G.M()) {
			t.Fatalf("trial %d: edge counts %d ≤ %d ≤ %d violated",
				trial, r.M(), gg.M(), nw.G.M())
		}
	}
}

func TestGeometricSpannersConnected(t *testing.T) {
	// On a connected UDG with generic (continuous random) positions both
	// prunings preserve connectivity: they contain the Euclidean MST.
	check := func(scene string, nw *udg.Network) {
		if !RNG(nw).Connected() {
			t.Fatalf("%s: RNG disconnected", scene)
		}
		if !Gabriel(nw).Connected() {
			t.Fatalf("%s: Gabriel disconnected", scene)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 100, 10, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), nw)
	}
	for _, kind := range []string{"clusters", "corridor", "annulus"} {
		nw, err := udg.Topology{Kind: kind}.GenConnected(rng, 100, 10, 300)
		if err != nil {
			t.Fatal(err)
		}
		check(kind, nw)
	}
}

func TestGeometricAgainstBruteForce(t *testing.T) {
	// Re-derive both prunings by scanning ALL nodes as witnesses (not just
	// common neighbours) and compare.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 40, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		r := RNG(nw)
		gg := Gabriel(nw)
		for _, e := range nw.G.Edges() {
			u, v := e[0], e[1]
			duv2 := nw.Pos[u].Dist2(nw.Pos[v])
			rngKeep, gabKeep := true, true
			for w := 0; w < nw.N(); w++ {
				if w == u || w == v {
					continue
				}
				duw2 := nw.Pos[u].Dist2(nw.Pos[w])
				dvw2 := nw.Pos[v].Dist2(nw.Pos[w])
				if duw2 < duv2 && dvw2 < duv2 {
					rngKeep = false
				}
				if duw2+dvw2 < duv2 {
					gabKeep = false
				}
			}
			if r.HasEdge(u, v) != rngKeep {
				t.Fatalf("trial %d: RNG disagrees with brute force on %v", trial, e)
			}
			if gg.HasEdge(u, v) != gabKeep {
				t.Fatalf("trial %d: Gabriel disagrees with brute force on %v", trial, e)
			}
		}
	}
}

func TestGeometricSparsity(t *testing.T) {
	// RNG and Gabriel are planar-ish: edges/node bounded (≤3 for RNG's
	// planar bound, Gabriel ≤ 3 too since planar). Check the planarity
	// bound |E| ≤ 3n-6 holds and that dense UDGs shrink dramatically.
	rng := rand.New(rand.NewSource(4))
	nw, err := udg.GenConnectedAvgDegree(rng, 300, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	r, gg := RNG(nw), Gabriel(nw)
	if r.M() > 3*nw.N()-6 || gg.M() > 3*nw.N()-6 {
		t.Errorf("planarity bound violated: RNG %d, Gabriel %d, n %d", r.M(), gg.M(), nw.N())
	}
	if r.M() >= nw.G.M()/2 {
		t.Errorf("RNG kept %d of %d edges on a dense UDG; pruning suspect", r.M(), nw.G.M())
	}
}
