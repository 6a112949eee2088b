package udg

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sceneHash digests a network byte for byte: every position's float bits,
// every ID and every adjacency list in stored order, plus the next value
// the generator's rng would draw, so a scene that consumed a different
// number of random values than before fails even when it looks the same.
func sceneHash(nw *Network, rng *rand.Rand) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) {
		buf = strconv.AppendUint(buf[:0], v, 16)
		buf = append(buf, ' ')
		h.Write(buf)
	}
	put(uint64(nw.N()))
	put(math.Float64bits(nw.Radius))
	for i, p := range nw.Pos {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
		put(uint64(nw.ID[i]))
	}
	for u := 0; u < nw.N(); u++ {
		nb := nw.G.Neighbors(u)
		put(uint64(len(nb)))
		for _, v := range nb {
			put(uint64(v))
		}
	}
	put(uint64(rng.Int63()))
	return h.Sum64()
}

// TestGeneratedScenesPinned holds every generator's accepted scenes, and
// the rng state each leaves behind, to hashes recorded from the
// build-then-BFS rejection loop: deciding connectivity before the build
// must not change which draw is kept or what the kept scene is.
func TestGeneratedScenesPinned(t *testing.T) {
	type cell struct {
		topo string // "" is the legacy GenConnectedAvgDegree path
		n    int
		deg  float64
		seed int64
	}
	cases := []struct {
		cell
		want uint64
	}{
		{cell{"", 100, 6, 1}, 0xc033c748ecabee2f},
		{cell{"", 200, 6, 7}, 0x6621c15fa880e9c8},
		{cell{"", 400, 7, 211}, 0x253fc1a4f5e528f4},
		{cell{"", 400, 10, 3}, 0xc60e41bbcfccdaf3},
		{cell{"uniform", 100, 6, 1}, 0xc033c748ecabee2f},
		{cell{"uniform", 400, 7, 5}, 0x4cf4e384e7cc8b6e},
		{cell{"clusters", 150, 8, 2}, 0xb6f255528b682155},
		{cell{"clusters:k=2,sigma=1.5", 120, 10, 5}, 0x4b17f697591e5643},
		{cell{"grid", 100, 6, 4}, 0x78c1405a6594407e},
		{cell{"grid:jitter=1", 100, 6, 4}, 0xd6575570da048283},
		{cell{"corridor", 100, 8, 3}, 0x163b5656007eeaf4},
		{cell{"corridor:width=1", 80, 10, 6}, 0x3eac5d53902db9fa},
		{cell{"annulus", 120, 8, 8}, 0x5128287674690abd},
		{cell{"annulus", 120, 6, 8}, 0xa9f5b4183944047c},
		{cell{"annulus:inner=1", 150, 5, 2}, 0xd777c6d2cb009e0},
	}
	for _, tc := range cases {
		name := tc.topo
		if name == "" {
			name = "legacy"
		}
		t.Run(fmt.Sprintf("%s/n=%d/deg=%g/seed=%d", name, tc.n, tc.deg, tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var nw *Network
			var err error
			if tc.topo == "" {
				nw, err = GenConnectedAvgDegree(rng, tc.n, tc.deg, 2000)
			} else {
				topo, perr := ParseTopology(tc.topo)
				if perr != nil {
					t.Fatal(perr)
				}
				nw, err = topo.GenConnected(rng, tc.n, tc.deg, 2000)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := sceneHash(nw, rng); got != tc.want {
				t.Errorf("%+v: scene hash %#x, want %#x", tc.cell, got, tc.want)
			}
		})
	}
}

// TestGenConnectedFailureText pins the error of a cell that cannot be
// connected within its budget, through both rejection loops.
func TestGenConnectedFailureText(t *testing.T) {
	_, err := GenConnectedAvgDegree(rand.New(rand.NewSource(1)), 60, 0.5, 5)
	if want := "udg: no connected instance with n=60 side=19.25 in 5 tries"; err == nil || err.Error() != want {
		t.Errorf("legacy error %v, want %q", err, want)
	}
	for _, kind := range []string{"uniform", "clusters", "grid", "corridor", "annulus", "quasi"} {
		topo, err := ParseTopology(kind)
		if err != nil {
			t.Fatal(err)
		}
		_, err = topo.GenConnected(rand.New(rand.NewSource(1)), 60, 0.5, 5)
		want := "udg: no connected " + topo.Canonical() + " instance with n=60 deg=0.5 in 5 tries"
		if err == nil || err.Error() != want {
			t.Errorf("%s error %v, want %q", kind, err, want)
		}
	}
}
