package wcds

import (
	"fmt"

	"wcdsnet/internal/election"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
)

// Algo1Centralized is the centralized reference for Algorithm I: the leader
// is the maximum-ID node (matching the distributed flood-max election), the
// spanning tree is its BFS tree, and the WCDS is the MIS extracted greedily
// in (level, ID) rank order. By Theorem 5 the MIS is a WCDS; by Lemma 7 its
// size is at most 5·opt.
//
// The graph must be connected for the result to be a WCDS.
func Algo1Centralized(g *graph.Graph, ids []int) Result {
	if g.N() == 0 {
		return newResult(g, nil, nil)
	}
	root := 0
	for v := 1; v < g.N(); v++ {
		if ids[v] > ids[root] {
			root = v
		}
	}
	levels := mis.LevelsFrom(g, root)
	set := mis.Greedy(g, mis.ByLevelID(levels, ids))
	return newResult(g, set, nil)
}

// BlackMsg announces that the sender marked itself black (a dominator) in
// Algorithm I's colour-marking phase. The corresponding gray announcement
// reuses GrayMsg (defined with the Algorithm II messages), matching the
// paper's shared "GRAY message" terminology.
type BlackMsg struct{}

// Node colours shared by both algorithms' protocols.
type color int8

const (
	white color = iota
	gray
	black
)

// algo1Proc is one node of the distributed Algorithm I: an election.Core
// for phases 1–2 (leader election, spanning tree, levels) plus the
// colour-marking phase driven by (level, ID) ranks. Like algo2Proc it holds
// only 1-hop knowledge: its own ID and its neighbours' IDs.
type algo1Proc struct {
	core   *election.Core
	ownID  int
	nbrIDs map[int]int // neighbour node index -> protocol ID

	color         color
	grayLowerRecv int // GRAY messages received from lower-ranked neighbours
}

func newAlgo1Proc(ownID int) *algo1Proc {
	p := &algo1Proc{
		core:   election.NewCore(ownID),
		ownID:  ownID,
		nbrIDs: make(map[int]int),
	}
	p.core.OnRootComplete = func(ctx *simnet.Context) {
		// Phase 3 starts here: the root has the lowest rank (level 0) and
		// marks itself black.
		p.color = black
		ctx.Broadcast(BlackMsg{})
	}
	return p
}

func (p *algo1Proc) Init(ctx *simnet.Context) { p.core.Init(ctx) }

func (p *algo1Proc) Recv(ctx *simnet.Context, from int, payload any) {
	if p.core.Handle(ctx, from, payload) {
		return
	}
	switch payload.(type) {
	case BlackMsg:
		if p.color == white {
			p.color = gray
			ctx.Broadcast(GrayMsg{})
		}
	case GrayMsg:
		if p.color != white {
			return
		}
		if p.lowerRank(ctx, from) {
			p.grayLowerRecv++
			p.maybeBlack(ctx)
		}
	}
}

// lowerRank reports whether neighbour w has strictly lower (level, ID) rank
// than this node. Levels are known for all neighbours before any phase-3
// message can arrive (the root only starts phase 3 after the COMPLETE
// convergecast, which is causally after every node became ready).
func (p *algo1Proc) lowerRank(ctx *simnet.Context, w int) bool {
	wl, ol := p.core.NeighborLevel(w), p.core.Level()
	if wl == election.LevelUnknown || ol == election.LevelUnknown {
		// Protocol invariant violated; fail loudly (the async engine
		// converts this to a run error).
		panic(fmt.Sprintf("wcds: node %d compared ranks before levels were known", ctx.Node()))
	}
	if wl != ol {
		return wl < ol
	}
	return p.nbrIDs[w] < p.ownID
}

// lowerRankCount counts this node's neighbours of strictly lower rank.
func (p *algo1Proc) lowerRankCount(ctx *simnet.Context) int {
	count := 0
	for _, w := range ctx.Neighbors() {
		if p.lowerRank(ctx, w) {
			count++
		}
	}
	return count
}

func (p *algo1Proc) maybeBlack(ctx *simnet.Context) {
	if p.color != white {
		return
	}
	if p.grayLowerRecv == p.lowerRankCount(ctx) {
		p.color = black
		ctx.Broadcast(BlackMsg{})
	}
}

// Algo1Distributed runs the full three-phase Algorithm I protocol over the
// simnet kernel and returns the WCDS, the run cost and any engine error.
// The graph must be connected and ids must be unique.
//
// Under the synchronous engine the result is identical to
// Algo1Centralized (the flood-max adoption tree is a BFS tree of the
// max-ID node); under the asynchronous engine the spanning tree — and thus
// the level ranking — may differ, but Theorems 4, 5 and 8 hold for any
// spanning tree, which the tests verify.
func Algo1Distributed(g *graph.Graph, ids []int, run Runner) (Result, simnet.Stats, error) {
	res, _, stats, err := Algo1DistributedDetailed(g, ids, run)
	return res, stats, err
}

// Levels extracts the spanning-tree level of every node after a distributed
// Algorithm I run — exposed for tests that compare the distributed marking
// with the centralized greedy over the same ranking.
func algo1Levels(a1 []*algo1Proc) []int {
	levels := make([]int, len(a1))
	for v, p := range a1 {
		levels[v] = p.core.Level()
	}
	return levels
}

// Algo1DistributedDetailed is Algo1Distributed but also returns the
// spanning-tree levels the run produced, for rank-equivalence testing.
func Algo1DistributedDetailed(g *graph.Graph, ids []int, run Runner) (Result, []int, simnet.Stats, error) {
	procs := make([]simnet.Proc, g.N())
	a1 := make([]*algo1Proc, g.N())
	for i := range procs {
		p := newAlgo1Proc(ids[i])
		for _, w := range g.Neighbors(i) {
			p.nbrIDs[w] = ids[w]
		}
		a1[i] = p
		procs[i] = a1[i]
	}
	stats, err := run(g, procs)
	if err != nil {
		return Result{}, nil, stats, err
	}
	var set []int
	for v, p := range a1 {
		switch p.color {
		case black:
			set = append(set, v)
		case white:
			return Result{}, nil, stats, fmt.Errorf("wcds: node %d still white after Algorithm I quiesced", v)
		}
	}
	return newResult(g, set, nil), algo1Levels(a1), stats, nil
}
