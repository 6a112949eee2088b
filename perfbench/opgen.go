package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"wcdsnet"
	"wcdsnet/internal/udg"
)

// Every operation a workload sends is a pure function of (seed, client,
// op index): the same seed replays a byte-identical sequence, whichever
// client runs faster.

// mix derives a well-spread 63-bit seed from a seed and a path of indices
// (splitmix64 steps), so distinct paths give unrelated streams.
func mix(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

func rngFor(seed int64, path ...int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, path...)))
}

// --- serve ------------------------------------------------------------------

var (
	serveSizes = []int{100, 200, 400}
	// serveDegrees are the sparse and dense scenes. Sparse is degree 7, not
	// 6: at n=400 a degree-6 scene is connected in only ~1 of 250 uniform
	// draws, so about 1 request in 3000 exhausts the service's 2000-try
	// bound and fails.
	serveDegrees = []float64{7, 10}
	// serveRuns are the constructions the mix draws from uniformly.
	serveRuns = []struct{ algorithm, mode string }{
		{"II", "centralized"}, {"II", "sync"}, {"II", "event"}, {"I", "sync"},
	}
)

const (
	// serveRepeatShare of requests repeat an earlier request of the same
	// client byte for byte.
	serveRepeatShare = 0.25
	// serveRepeatWindow bounds how far back a repeat reaches, so its
	// original is still resident in the service's 1024-entry LRU cache.
	serveRepeatWindow = 32
	// serveMaxReach bounds how far back a resolved repeat's original lies.
	serveMaxReach = 4 * serveRepeatWindow
	// serveExplicitShare of fresh requests carry explicit positions.
	serveExplicitShare = 1.0 / 3
	// servePoolPerCell connected base scenes per (n, degree) cell back the
	// explicit bodies; each body relabels one with a fresh node order and
	// ID permutation, so the scene stays connected but the request is new.
	servePoolPerCell = 24
)

// serveOp is one /v1/backbone request.
type serveOp struct {
	body []byte
	// orig is the index of the request this one repeats (its own index
	// when fresh).
	orig     int
	explicit bool
	n        int
}

// serveGen produces each client's request sequence.
type serveGen struct {
	seed int64
	pool map[[2]int][]*udg.Network // (n, degree) -> base scenes
}

func newServeGen(seed int64) (*serveGen, error) {
	g := &serveGen{seed: seed, pool: map[[2]int][]*udg.Network{}}
	for _, n := range serveSizes {
		for _, d := range serveDegrees {
			for k := 0; k < servePoolPerCell; k++ {
				nw, err := wcdsnet.GenerateNetwork(mix(seed, 1, int64(n), int64(d), int64(k)), n, d)
				if err != nil {
					return nil, err
				}
				key := [2]int{n, int(d)}
				g.pool[key] = append(g.pool[key], nw)
			}
		}
	}
	return g, nil
}

// op returns request i of client c.
func (g *serveGen) op(c, i int) serveOp {
	r := rngFor(g.seed, 2, int64(c), int64(i))
	if i > 0 && r.Float64() < serveRepeatShare {
		back := 1 + r.Intn(min(i, serveRepeatWindow))
		// A repeat of a repeat resolves to the original; a rare long chain
		// that reaches past serveMaxReach becomes a fresh request instead.
		if op := g.op(c, i-back); i-op.orig <= serveMaxReach {
			return op
		}
	}
	run := serveRuns[r.Intn(len(serveRuns))]
	op := serveOp{orig: i, n: serveSizes[r.Intn(len(serveSizes))]}
	degree := serveDegrees[r.Intn(len(serveDegrees))]
	op.explicit = r.Float64() < serveExplicitShare
	body := map[string]any{"algorithm": run.algorithm, "mode": run.mode}
	if op.explicit {
		base := g.pool[[2]int{op.n, int(degree)}][r.Intn(servePoolPerCell)]
		order := r.Perm(op.n)
		ids := r.Perm(op.n)
		pos := make([][2]float64, op.n)
		for k, v := range order {
			pos[k] = [2]float64{base.Pos[v].X, base.Pos[v].Y}
		}
		body["positions"], body["ids"] = pos, ids
	} else {
		body["seed"], body["n"], body["avgDegree"] = mix(g.seed, 3, int64(c), int64(i)), op.n, degree
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("serve body: %v", err)) // only plain numbers and strings
	}
	op.body = b
	return op
}

// --- sweep-fleet ------------------------------------------------------------

// sweepWorkloads are the cmd/bench suite's workload kinds.
func sweepWorkloads() []wcdsnet.BatchWorkload {
	return []wcdsnet.BatchWorkload{
		{Kind: "backbone", Algorithm: "II"},
		{Kind: "backbone", Algorithm: "I"},
		{Kind: "backbone", Algorithm: "II", Mode: "sync"},
		{Kind: "backbone", Algorithm: "II", Engine: "event"},
		{Kind: "backbone", Algorithm: "II", Engine: "event",
			Faults: &wcdsnet.FaultPlan{Seed: 11, DropRate: 0.15}, Reliable: true, MaxRounds: 4000},
		{Kind: "dilation", Algorithm: "II", Pairs: 40, SampleSeed: 7},
		{Kind: "broadcast", Source: 0},
		{Kind: "broadcast", Source: 1},
		{Kind: "broadcast", Source: 2},
		{Kind: "broadcast", Source: 3},
		{Kind: "broadcast", Source: 4},
	}
}

// sweepSpec returns sweep i (i < 0 are set-up warm-ups): the suite's
// shape with its three scene seeds advanced per sweep, so no two sweeps
// share a shard and every shard is computed, never served from cache.
func sweepSpec(seed int64, i int) *wcdsnet.BatchSpec {
	base := mix(seed, 4)%(1<<40) + 3*int64(i+8)
	return &wcdsnet.BatchSpec{
		Sizes:     []int{100, 200},
		Degrees:   []float64{6, 10},
		Seeds:     []int64{base, base + 1, base + 2},
		Workloads: sweepWorkloads(),
	}
}

// --- session-churn ----------------------------------------------------------

const (
	churnNodes  = 200
	churnDegree = 8
	// churnLossyEvery: op i of a client goes to its lossy session when
	// i%churnLossyEvery == churnLossyEvery-1, a pinned 9:1 order.
	churnLossyEvery = 10
	churnDropRate   = 0.1
)

// churnMirror tracks what delta generation needs of a session's state —
// positions and the active mask — from the deltas alone, so the stream is
// fixed by the seed and never depends on server output.
type churnMirror struct {
	rng    *rand.Rand
	pos    [][2]float64
	active []bool
}

func newChurnMirror(nw *wcdsnet.Network, r *rand.Rand) *churnMirror {
	m := &churnMirror{rng: r, pos: make([][2]float64, nw.N()), active: make([]bool, nw.N())}
	for v, p := range nw.Pos {
		m.pos[v] = [2]float64{p.X, p.Y}
		m.active[v] = true
	}
	return m
}

// epoch builds the next epoch of 1..4 deltas exactly as cmd/churn's
// randomEpoch does — mostly moves, some leaves, rejoins and brand-new
// joins near existing nodes, each delta touching a distinct node — and
// advances the mirror past it.
func (m *churnMirror) epoch() []wcdsnet.SessionDelta {
	var on, off []int
	for v, a := range m.active {
		if a {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	rng := m.rng
	count := 1 + rng.Intn(4)
	used := map[int]bool{}
	var out []wcdsnet.SessionDelta
	for len(out) < count {
		switch k := rng.Intn(10); {
		case k < 6 && len(on) > 0: // move
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			p := m.pos[v]
			out = append(out, wcdsnet.SessionDelta{Op: wcdsnet.DeltaMove, Node: &v,
				X: p[0] + rng.NormFloat64()*0.4, Y: p[1] + rng.NormFloat64()*0.4})
		case k < 8 && len(on) > 1: // leave
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, wcdsnet.SessionDelta{Op: wcdsnet.DeltaLeave, Node: &v})
		case k < 9 && len(off) > 0: // rejoin
			v := off[rng.Intn(len(off))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, wcdsnet.SessionDelta{Op: wcdsnet.DeltaJoin, Node: &v})
		default: // brand-new node near an existing one
			anchor := m.pos[rng.Intn(len(m.pos))]
			out = append(out, wcdsnet.SessionDelta{Op: wcdsnet.DeltaJoin,
				X: anchor[0] + rng.NormFloat64()*0.3, Y: anchor[1] + rng.NormFloat64()*0.3})
		}
	}
	for _, d := range out {
		switch {
		case d.Op == wcdsnet.DeltaMove:
			m.pos[*d.Node] = [2]float64{d.X, d.Y}
		case d.Op == wcdsnet.DeltaLeave:
			m.active[*d.Node] = false
		case d.Node != nil:
			m.active[*d.Node] = true
		default:
			m.pos = append(m.pos, [2]float64{d.X, d.Y})
			m.active = append(m.active, true)
		}
	}
	return out
}

// churnSessionSeed is the scene seed of client c's local (lossy=false) or
// lossy session: the first seed of its stream whose first uniform draw is
// already connected, so the service generates each session scene in one
// draw and set-up work does not swing with the run's seed.
func churnSessionSeed(seed int64, c int, lossy bool) int64 {
	k := int64(0)
	if lossy {
		k = 1
	}
	side := udg.SideForAvgDegree(churnNodes, churnDegree)
	for j := int64(0); ; j++ {
		s := mix(seed, 5, int64(c), k, j) % (1 << 40)
		if udg.GenUniform(rand.New(rand.NewSource(s)), churnNodes, side).G.Connected() {
			return s
		}
	}
}

// churnDeltaRNG seeds the delta stream of one session.
func churnDeltaRNG(seed int64, c int, lossy bool) *rand.Rand {
	k := int64(0)
	if lossy {
		k = 1
	}
	return rngFor(seed, 6, int64(c), k)
}

// --- scale ------------------------------------------------------------------

const (
	scaleNodes  = 250_000
	scaleDegree = 10
)

// scaleSeed is the scene seed of scale op i (i < 0 are set-up warm-ups).
func scaleSeed(seed int64, i int) int64 { return mix(seed, 7, int64(i)) }
