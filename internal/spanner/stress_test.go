package spanner

import (
	"math"
	"math/rand"
	"testing"

	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// Theorem 11 must also survive non-convex deployment regions, where
// shortest paths bend around obstacles and detours are structurally long.

func TestTheorem11OnCorridors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Width 1.5 and arms of length 14.
	corridor := udg.Topology{Kind: "corridor", Params: map[string]float64{"width": 1.5}}
	checked := 0
	for trial := 0; trial < 20 && checked < 6; trial++ {
		nw := corridor.Generate(rng, 180, 179*math.Pi/(2*14*1.5-1.5*1.5))
		if !nw.G.Connected() {
			continue
		}
		checked++
		res := wcds.Algo2Centralized(nw.G, nw.ID)
		rep, err := Dilation(nw.G, res.Spanner, nw.Weight(), AllPairs(nw.G))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TopoBoundHolds || !rep.GeoBoundHolds {
			t.Fatalf("corridor trial %d: Theorem 11 violated (topo %v, geo %v)",
				trial, rep.TopoBoundHolds, rep.GeoBoundHolds)
		}
	}
	if checked == 0 {
		t.Fatal("no connected corridor instance produced; adjust density")
	}
}

func TestTheorem11OnAnnuli(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Inner radius 3, outer 5.5.
	annulus := udg.Topology{Kind: "annulus", Params: map[string]float64{"inner": 3}}
	checked := 0
	for trial := 0; trial < 20 && checked < 6; trial++ {
		nw := annulus.Generate(rng, 220, 219/(5.5*5.5-3*3))
		if !nw.G.Connected() {
			continue
		}
		checked++
		res := wcds.Algo2Centralized(nw.G, nw.ID)
		rep, err := Dilation(nw.G, res.Spanner, nw.Weight(), AllPairs(nw.G))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TopoBoundHolds || !rep.GeoBoundHolds {
			t.Fatalf("annulus trial %d: Theorem 11 violated", trial)
		}
		// The annulus forces geometric detours well above the Euclidean
		// distance, so worst geo ratios run higher than on squares —
		// still within the bound, which is the point.
		t.Logf("annulus %d: worst topo %.2f, worst geo %.2f",
			trial, rep.WorstTopo.TopoRatio(), rep.WorstGeo.GeoRatio())
	}
	if checked == 0 {
		t.Fatal("no connected annulus instance produced; adjust density")
	}
}
