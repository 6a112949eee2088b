package maintain

import (
	"fmt"
	"slices"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// Distributed MIS repair: after topology changes, the surviving dominator
// set may violate independence (two dominators moved into range) or
// domination (a node lost all its dominators). This protocol restores both
// invariants by message passing with 1-hop information only:
//
// Every node beacons StateMsg{ID, Dom, Covered}, where Covered means "I am
// a dominator or I currently hear an adjacent dominator". Once a node has
// heard every neighbour at least once it applies two local rules,
// re-evaluating after every update and re-beaconing whenever its own
// (Dom, Covered) pair changes:
//
//   - DEMOTE: a dominator adjacent to a lower-ID dominator steps down.
//   - PROMOTE: an uncovered node with no lower-ID uncovered neighbour
//     steps up.
//
// The Covered bit is what makes promotion deadlock-free with 1-hop
// knowledge: a node defers only to lower-ID neighbours that themselves
// report being uncovered, and the minimum-ID uncovered node of any
// uncovered region always promotes. Promotions never create independence
// conflicts in a consistent view; transient races resolve through the
// demote rule. The protocol quiesces with a valid MIS under both engines,
// which the tests assert across scrambled schedules.
//
// The connector (additional-dominator) refresh stays the canonical
// selection of the construction (wcds.ConnectorSelection's owner kernel,
// run for the owners near the epoch's changes) — the paper defers the full
// maintenance protocol to future work, and experiment E10 reports the
// measured role-change locality.

// StateMsg beacons the sender's identity, role, and coverage status. Seq
// increases with every beacon so receivers can discard out-of-order copies
// under non-FIFO delivery.
type StateMsg struct {
	ID      int
	Seq     int
	Dom     bool
	Covered bool
}

// nbrState is what a node last heard from the neighbour in one slot of its
// adjacency list. seq is 0 until the first beacon arrives (beacons count
// from 1).
type nbrState struct {
	id      int
	seq     int
	dom     bool
	covered bool
}

type repairProc struct {
	ownID int
	isDom bool

	nbrs    []int      // g.Neighbors(v)
	nbr     []nbrState // slot-aligned with nbrs
	heard   int        // slots heard from at least once
	domNbrs int        // slots whose freshest beacon reports Dom

	seq         int
	lastDom     bool
	lastCovered bool
	sentOnce    bool

	flips int // role changes performed during repair
}

// covered reports the node's current coverage from its own view.
func (p *repairProc) covered() bool { return p.isDom || p.domNbrs > 0 }

// beaconIfChanged announces the node's state when it differs from the last
// announcement (or was never announced).
func (p *repairProc) beaconIfChanged(ctx *simnet.Context) {
	dom, cov := p.isDom, p.covered()
	if p.sentOnce && dom == p.lastDom && cov == p.lastCovered {
		return
	}
	p.sentOnce = true
	p.lastDom, p.lastCovered = dom, cov
	p.seq++
	ctx.Broadcast(StateMsg{ID: p.ownID, Seq: p.seq, Dom: dom, Covered: cov})
}

func (p *repairProc) Init(ctx *simnet.Context) {
	p.beaconIfChanged(ctx)
	p.evaluate(ctx)
}

func (p *repairProc) Recv(ctx *simnet.Context, from int, payload any) {
	m, ok := payload.(StateMsg)
	if !ok {
		return
	}
	// A linear scan, as in the reliable layer: at radio degrees it beats
	// a binary search.
	slot := slices.Index(p.nbrs, from)
	if slot < 0 {
		return
	}
	s := &p.nbr[slot]
	if s.seq == 0 {
		p.heard++
	} else if m.Seq <= s.seq {
		return // stale or duplicate beacon under non-FIFO delivery
	}
	if m.Dom != s.dom {
		if m.Dom {
			p.domNbrs++
		} else {
			p.domNbrs--
		}
	}
	*s = nbrState{id: m.ID, seq: m.Seq, dom: m.Dom, covered: m.Covered}
	p.evaluate(ctx)
}

// evaluate applies the repair rules once the full neighbourhood state is
// known, then re-beacons any change to role or coverage.
func (p *repairProc) evaluate(ctx *simnet.Context) {
	if p.heard != len(p.nbrs) {
		return
	}
	switch {
	case p.isDom && p.lowerDomNeighbor():
		p.isDom = false
		p.flips++
	case !p.isDom && !p.covered() && !p.lowerUncoveredNeighbor():
		p.isDom = true
		p.flips++
	}
	p.beaconIfChanged(ctx)
}

// lowerDomNeighbor reports a known dominator neighbour with a smaller ID.
func (p *repairProc) lowerDomNeighbor() bool {
	for _, s := range p.nbr {
		if s.dom && s.id < p.ownID {
			return true
		}
	}
	return false
}

// lowerUncoveredNeighbor reports a lower-ID neighbour that says it is
// uncovered — that neighbour has promotion priority.
func (p *repairProc) lowerUncoveredNeighbor() bool {
	for _, s := range p.nbr {
		if s.id < p.ownID && !s.dom && !s.covered {
			return true
		}
	}
	return false
}

// RepairMISDistributed runs the distributed repair protocol over graph g,
// starting from the (possibly invalid) dominator assignment oldDom, which
// it only reads, and returns the repaired MIS in ascending order, the
// number of role flips, and the run cost.
func RepairMISDistributed(g *graph.Graph, ids []int, oldDom []bool,
	run func(*graph.Graph, []simnet.Proc) (simnet.Stats, error)) ([]int, int, simnet.Stats, error) {

	if len(ids) != g.N() || len(oldDom) != g.N() {
		return nil, 0, simnet.Stats{}, fmt.Errorf("maintain: ids/oldDom length mismatch with %d nodes", g.N())
	}
	// Every proc, and every proc's per-neighbour state, is cut from one
	// slab: a run allocates the same handful of blocks at any degree.
	rps := make([]repairProc, g.N())
	procs := make([]simnet.Proc, g.N())
	slab := make([]nbrState, 2*g.M())
	for v := range rps {
		nbrs := g.Neighbors(v)
		rps[v] = repairProc{ownID: ids[v], isDom: oldDom[v], nbrs: nbrs, nbr: slab[:len(nbrs):len(nbrs)]}
		slab = slab[len(nbrs):]
		procs[v] = &rps[v]
	}
	stats, err := run(g, procs)
	if err != nil {
		return nil, 0, stats, err
	}
	var set []int
	flips := 0
	for v := range rps {
		if rps[v].isDom {
			set = append(set, v)
		}
		flips += rps[v].flips
	}
	return set, flips, stats, nil
}
