package maintain

import (
	"fmt"
	"sort"

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

type repairProc struct {
	ownID int
	isDom bool

	nbrID      map[int]int  // node index -> ID
	nbrDom     map[int]bool // node index -> freshest heard role
	nbrCovered map[int]bool // node index -> freshest heard coverage
	nbrSeq     map[int]int  // node index -> freshest beacon sequence
	heard      int

	seq         int
	lastDom     bool
	lastCovered bool
	sentOnce    bool

	flips int // role changes performed during repair
}

func newRepairProc(ownID int, isDom bool) *repairProc {
	return &repairProc{
		ownID:      ownID,
		isDom:      isDom,
		nbrID:      make(map[int]int),
		nbrDom:     make(map[int]bool),
		nbrCovered: make(map[int]bool),
		nbrSeq:     make(map[int]int),
	}
}

// covered reports the node's current coverage from its own view.
func (p *repairProc) covered() bool {
	if p.isDom {
		return true
	}
	for _, dom := range p.nbrDom {
		if dom {
			return true
		}
	}
	return false
}

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
	if _, seen := p.nbrID[from]; !seen {
		p.heard++
	} else if m.Seq <= p.nbrSeq[from] {
		return // stale or duplicate beacon under non-FIFO delivery
	}
	p.nbrID[from] = m.ID
	p.nbrSeq[from] = m.Seq
	p.nbrDom[from] = m.Dom
	p.nbrCovered[from] = m.Covered
	p.evaluate(ctx)
}

// evaluate applies the repair rules once the full neighbourhood state is
// known, then re-beacons any change to role or coverage.
func (p *repairProc) evaluate(ctx *simnet.Context) {
	if p.heard != ctx.Degree() {
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
	for w, dom := range p.nbrDom {
		if dom && p.nbrID[w] < p.ownID {
			return true
		}
	}
	return false
}

// lowerUncoveredNeighbor reports a lower-ID neighbour that says it is
// uncovered — that neighbour has promotion priority.
func (p *repairProc) lowerUncoveredNeighbor() bool {
	for w, id := range p.nbrID {
		if id < p.ownID && !p.nbrDom[w] && !p.nbrCovered[w] {
			return true
		}
	}
	return false
}

// RepairMISDistributed runs the distributed repair protocol over graph g,
// starting from the (possibly invalid) dominator assignment oldDom, and
// returns the repaired MIS, the number of role flips, and the run cost.
func RepairMISDistributed(g *graph.Graph, ids []int, oldDom []bool,
	run func(*graph.Graph, []simnet.Proc) (simnet.Stats, error)) ([]int, int, simnet.Stats, error) {

	if len(ids) != g.N() || len(oldDom) != g.N() {
		return nil, 0, simnet.Stats{}, fmt.Errorf("maintain: ids/oldDom length mismatch with %d nodes", g.N())
	}
	procs := make([]simnet.Proc, g.N())
	rps := make([]*repairProc, g.N())
	for i := range procs {
		rps[i] = newRepairProc(ids[i], oldDom[i])
		procs[i] = rps[i]
	}
	stats, err := run(g, procs)
	if err != nil {
		return nil, 0, stats, err
	}
	var set []int
	flips := 0
	for v, p := range rps {
		if p.isDom {
			set = append(set, v)
		}
		flips += p.flips
	}
	sort.Ints(set)
	return set, flips, stats, nil
}
