package udg

import (
	"math"
	"math/rand"
	"testing"

	"wcdsnet/internal/geom"
)

func TestNewValidation(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}
	tests := []struct {
		name    string
		pos     []geom.Point
		ids     []int
		radius  float64
		wantErr bool
	}{
		{name: "valid", pos: pos, ids: []int{0, 1}, radius: 1},
		{name: "zero radius", pos: pos, ids: []int{0, 1}, radius: 0, wantErr: true},
		{name: "negative radius", pos: pos, ids: []int{0, 1}, radius: -1, wantErr: true},
		{name: "id count mismatch", pos: pos, ids: []int{0}, radius: 1, wantErr: true},
		{name: "duplicate ids", pos: pos, ids: []int{3, 3}, radius: 1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.pos, tt.ids, tt.radius)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestNewDuplicateIDs covers both duplicate checks: the bitmap, taken
// while every ID lies in [0, n), and the map any other ID sends it to.
// Either reports the first repeat in scan order.
func TestNewDuplicateIDs(t *testing.T) {
	pos := make([]geom.Point, 4)
	for _, tc := range []struct {
		ids  []int
		want string // "" means accepted
	}{
		{[]int{3, 1, 0, 2}, ""},
		{[]int{2, 0, 2, 1}, "udg: duplicate node ID 2"},
		{[]int{0, 1, 1, 0}, "udg: duplicate node ID 1"},
		{[]int{-1, 7, 4, -8}, ""},
		{[]int{-1, 5, -1, 2}, "udg: duplicate node ID -1"},
		{[]int{4, 9, 1, 4}, "udg: duplicate node ID 4"},
		{[]int{1, 0, 1, 9}, "udg: duplicate node ID 1"},
		{[]int{1, 9, 0, 1}, "udg: duplicate node ID 1"},
	} {
		_, err := New(pos, tc.ids, 1)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("ids %v: error %q, want %q", tc.ids, got, tc.want)
		}
	}
}

func TestBuildGraphSmall(t *testing.T) {
	// Three nodes on a line at distances 1.0 and 1.01: first pair adjacent
	// (boundary inclusive), second pair not.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2.01, Y: 0}}
	g := BuildGraph(pos, 1)
	if !g.HasEdge(0, 1) {
		t.Error("nodes at distance exactly 1 should be adjacent")
	}
	if g.HasEdge(1, 2) {
		t.Error("nodes at distance 1.01 should not be adjacent")
	}
	if g.HasEdge(0, 2) {
		t.Error("nodes at distance 2.01 should not be adjacent")
	}
}

func TestBuildGraphEmpty(t *testing.T) {
	g := BuildGraph(nil, 1)
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty build: N=%d M=%d", g.N(), g.M())
	}
}

func TestBuildGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(120)
		side := 0.5 + rng.Float64()*8
		radius := 0.3 + rng.Float64()*1.5
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		g := BuildGraph(pos, radius)
		// Brute-force reference.
		wantEdges := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				adjacent := pos[i].Dist(pos[j]) <= radius
				if adjacent {
					wantEdges++
				}
				if g.HasEdge(i, j) != adjacent {
					t.Fatalf("trial %d: edge {%d,%d} mismatch (dist %v, radius %v)",
						trial, i, j, pos[i].Dist(pos[j]), radius)
				}
			}
		}
		if g.M() != wantEdges {
			t.Fatalf("trial %d: M=%d, want %d", trial, g.M(), wantEdges)
		}
	}
}

func TestBuildGraphNegativeCoordinates(t *testing.T) {
	// The grid bucketing must work for negative coordinates too.
	pos := []geom.Point{{X: -0.2, Y: -0.2}, {X: 0.2, Y: 0.2}, {X: -1.5, Y: -1.5}}
	g := BuildGraph(pos, 1)
	if !g.HasEdge(0, 1) {
		t.Error("nodes straddling the origin should be adjacent")
	}
	if g.HasEdge(0, 2) {
		t.Error("distant negative-coordinate nodes should not be adjacent")
	}
}

func TestBuildGraphAfterMove(t *testing.T) {
	nw, err := New([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.G.HasEdge(0, 1) {
		t.Fatal("initial edge missing")
	}
	nw.Pos[1] = geom.Point{X: 5, Y: 0}
	if BuildGraph(nw.Pos, nw.Radius).HasEdge(0, 1) {
		t.Error("edge should disappear after the node moved away")
	}
}

func TestCloneIsolation(t *testing.T) {
	nw, err := New([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, []int{7, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := nw.Clone()
	c.Pos[0] = geom.Point{X: 99, Y: 99}
	c.ID[0] = 42
	if nw.Pos[0].X == 99 || nw.ID[0] == 42 {
		t.Error("clone shares storage with original")
	}
}

func TestWeightMatchesDist(t *testing.T) {
	nw, err := New([]geom.Point{{X: 0, Y: 0}, {X: 0.6, Y: 0.8}}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := nw.Weight()
	if math.Abs(w(0, 1)-1.0) > 1e-12 || math.Abs(nw.Dist(0, 1)-1.0) > 1e-12 {
		t.Errorf("weight = %v, dist = %v, want 1.0", w(0, 1), nw.Dist(0, 1))
	}
}

func TestRandomIDsIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids := RandomIDs(rng, 100)
	seen := make([]bool, 100)
	for _, id := range ids {
		if id < 0 || id >= 100 || seen[id] {
			t.Fatalf("not a permutation: %v", ids)
		}
		seen[id] = true
	}
}

func TestSideForAvgDegree(t *testing.T) {
	if got := SideForAvgDegree(1, 5); got != 1 {
		t.Errorf("degenerate n: side = %v", got)
	}
	if got := SideForAvgDegree(100, 0); got != 1 {
		t.Errorf("degenerate degree: side = %v", got)
	}
	// Statistical check: the empirical average degree should be within 30%
	// of the target for a medium-size instance.
	rng := rand.New(rand.NewSource(3))
	const n, target = 400, 10.0
	side := SideForAvgDegree(n, target)
	total := 0.0
	const trials = 5
	for i := 0; i < trials; i++ {
		total += GenUniform(rng, n, side).G.AvgDegree()
	}
	avg := total / trials
	if avg < target*0.7 || avg > target*1.3 {
		t.Errorf("empirical avg degree %.2f, want ≈ %v", avg, target)
	}
}

func TestGenUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := GenUniform(rng, 50, 5)
	if nw.N() != 50 || len(nw.ID) != 50 || nw.G.N() != 50 {
		t.Fatalf("sizes: N=%d ids=%d graph=%d", nw.N(), len(nw.ID), nw.G.N())
	}
	box := geom.Square(5)
	for _, p := range nw.Pos {
		if !box.Contains(p) {
			t.Fatalf("point %v escapes the square", p)
		}
	}
}

func TestGenClustersInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clusters := Topology{Kind: "clusters", Params: map[string]float64{"k": 4, "sigma": 0.5}}
	nw := clusters.Generate(rng, 80, 8)
	if nw.N() != 80 {
		t.Fatalf("N = %d", nw.N())
	}
	box := geom.Square(SideForAvgDegree(80, 8))
	for _, p := range nw.Pos {
		if !box.Contains(p) {
			t.Fatalf("clustered point %v escapes the square", p)
		}
	}
	// k < 1 falls back to one cluster rather than panicking.
	if pos, _ := drawClusters(rng, 10, 0, 3, 0.2); len(pos) != 10 {
		t.Fatalf("fallback cluster count: N = %d", len(pos))
	}
}

func TestGenGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 12 nodes lie in 3 rows of 4; this degree makes the spacing 0.9.
	grid := Topology{Kind: "grid", Params: map[string]float64{"jitter": 0}}
	nw := grid.Generate(rng, 12, math.Pi/0.81-1)
	if nw.N() != 12 {
		t.Fatalf("N = %d", nw.N())
	}
	// Without jitter and spacing 0.9, horizontal/vertical grid neighbours
	// are adjacent but diagonal ones (dist ≈ 1.27) are not.
	if !nw.G.HasEdge(0, 1) {
		t.Error("grid horizontal neighbours should be adjacent")
	}
	if !nw.G.HasEdge(0, 4) {
		t.Error("grid vertical neighbours should be adjacent")
	}
	if nw.G.HasEdge(0, 5) {
		t.Error("grid diagonal neighbours at spacing 0.9 should not be adjacent")
	}
}

func TestGenCorridor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Width 2 and arms of length 12: area 2·12·2 − 2² = 44.
	corridor := Topology{Kind: "corridor", Params: map[string]float64{"width": 2}}
	nw := corridor.Generate(rng, 200, 199*math.Pi/44)
	if nw.N() != 200 {
		t.Fatalf("N = %d", nw.N())
	}
	const arm = 12 + 1e-9
	for _, p := range nw.Pos {
		inHorizontal := p.X >= 0 && p.X <= arm && p.Y >= 0 && p.Y <= 2
		inVertical := p.X >= 0 && p.X <= 2 && p.Y >= 0 && p.Y <= arm
		if !inHorizontal && !inVertical {
			t.Fatalf("point %v outside the L corridor", p)
		}
	}
	// A degree this high sizes the arms shorter than the width; they are
	// clamped, not rejected.
	if nw2 := corridor.Generate(rng, 10, 20); nw2.N() != 10 {
		t.Fatalf("clamped corridor N = %d", nw2.N())
	}
}

func TestGenAnnulus(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Inner radius 3, outer 6: ring area π·(36 − 9).
	annulus := Topology{Kind: "annulus", Params: map[string]float64{"inner": 3}}
	nw := annulus.Generate(rng, 150, 149.0/27)
	center := geom.Point{X: 6, Y: 6}
	for _, p := range nw.Pos {
		d := p.Dist(center)
		if d < 3-1e-9 || d > 6+1e-9 {
			t.Fatalf("point %v at radius %v outside [3,6]", p, d)
		}
	}
	// outer <= inner is repaired rather than looping forever.
	if pos, _ := drawAnnulus(rng, 10, 4, 2); len(pos) != 10 {
		t.Fatalf("repaired annulus N = %d", len(pos))
	}
}

func TestGenConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, err := GenConnected(rng, 60, SideForAvgDegree(60, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.G.Connected() {
		t.Error("GenConnected returned a disconnected network")
	}
	// Hopeless density must error out instead of looping forever.
	if _, err := GenConnected(rng, 50, 1000, 3); err == nil {
		t.Error("expected failure at absurdly low density")
	}
}

func TestGenConnectedAvgDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw, err := GenConnectedAvgDegree(rng, 100, 12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.G.Connected() {
		t.Error("network not connected")
	}
	if deg := nw.G.AvgDegree(); deg < 6 || deg > 24 {
		t.Errorf("avg degree %.2f wildly off target 12", deg)
	}
}

func TestGenQuasi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := GenQuasi(rng, 200, 6, 0.6, 1.2, 0.5)
	if nw.N() != 200 || nw.Radius != 1.2 {
		t.Fatalf("N=%d radius=%v", nw.N(), nw.Radius)
	}
	shortMissing, longPresent, mid := 0, 0, 0
	for i := 0; i < nw.N(); i++ {
		for j := i + 1; j < nw.N(); j++ {
			d := nw.Pos[i].Dist(nw.Pos[j])
			has := nw.G.HasEdge(i, j)
			switch {
			case d <= 0.6 && !has:
				shortMissing++
			case d > 1.2 && has:
				longPresent++
			case d > 0.6 && d <= 1.2 && has:
				mid++
			}
		}
	}
	if shortMissing != 0 {
		t.Errorf("%d sub-rMin pairs missing edges", shortMissing)
	}
	if longPresent != 0 {
		t.Errorf("%d super-rMax pairs have edges", longPresent)
	}
	if mid == 0 {
		t.Error("no mid-band edges at p=0.5; coin suspect")
	}
	// Degenerate band collapses to plain UDG behaviour.
	nw2 := GenQuasi(rng, 50, 4, 1, 1, 0.0)
	for _, e := range nw2.G.Edges() {
		if d := nw2.Pos[e[0]].Dist(nw2.Pos[e[1]]); d > 1+1e-12 {
			t.Fatalf("edge of length %v with collapsed band", d)
		}
	}
	// rMax below rMin is repaired.
	nw3 := GenQuasi(rng, 20, 3, 1.0, 0.5, 0.5)
	if nw3.Radius != 1.0 {
		t.Errorf("repaired radius = %v", nw3.Radius)
	}
}
