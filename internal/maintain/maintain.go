// Package maintain implements the WCDS maintenance sketched in the paper's
// Section 4.2 for mobile networks: "the key technique in our approach is to
// maintain the MIS in the unit-disk graph at all times, and to maintain
// information about all MIS-dominators within three-hop distance", with
// repairs applied locally around topology changes.
//
// The paper defers the detailed maintenance protocol to future work; this
// package implements the sketch as a state-machine over network events:
//
//  1. After an epoch of topology mutations (nodes move, switch off/on, or
//     join), the MIS invariants are repaired with local rules — adjacent
//     dominator pairs demote the higher-ID member, undominated nodes
//     promote themselves — processed deterministically until a fixpoint,
//     seeded only with the nodes an event could have affected.
//  2. The additional-dominator (connector) assignments for three-hop
//     dominator pairs are recomputed with the same canonical selection the
//     construction uses, for the owners within three hops of a change, and
//     the diff is reported.
//
// The unit-disk graph itself is updated the same way: only the event
// sites and their old and new neighbours get fresh adjacency lists, in a
// copy-on-write successor of the previous graph.
//
// Repairs are context-aware: a cancelled context aborts the repair and
// rolls the maintainer back to its pre-epoch state, so a long-lived session
// (internal/session) can cancel a delta mid-repair without corrupting the
// maintained invariants. The exported Fixpoint function is the from-scratch
// reference the dirty-set repair is property-tested against: starting from
// the same pre-repair membership on the same snapshot, a full sweep over
// every node reaches the same fixpoint the locality-limited repair does.
//
// Experiment E10 measures how far role changes propagate from the event
// site (the paper's locality claim).
package maintain

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// ErrNotConnected is returned by New when the initial network is not
// connected (the WCDS guarantee only applies to connected graphs; under
// churn, later disconnection is reported as data via Report.Connected).
var ErrNotConnected = errors.New("maintain: initial network must be connected")

// ErrNotUnitDisk is returned by New when the network's graph is not the
// unit-disk graph of its positions (a quasi-unit-disk scene, say): epochs
// relink the nodes around each event with the unit-disk rule and keep
// every other link, which is exact only when the rest already follows it.
var ErrNotUnitDisk = errors.New("maintain: network graph must be the unit-disk graph of its positions")

// Maintainer tracks a network and its maintained WCDS across events.
type Maintainer struct {
	nw     *udg.Network
	inMIS  []bool // implies active: switching a node off demotes it
	active []bool // off nodes keep their slot but have no edges
	// conns[u] lists the connector choices owned by MIS-dominator u (see
	// wcds.Connector). An epoch installs a fresh outer slice and fresh
	// lists for the owners it recomputes, so a snapshot's conns is never
	// written.
	conns [][]wcds.Connector

	// policy selects the repair strategy and, for the distributed
	// protocol, the fault environment it runs under (see RepairPolicy in
	// policy.go). Both strategies restore the same invariants; the
	// resulting MIS may differ on ties.
	policy RepairPolicy
	// repairEpochs counts distributed repair epochs, remixed into the
	// fault plan seed so successive epochs see independent fault streams.
	repairEpochs int
	// RepairMessages accumulates the protocol cost of distributed repairs.
	RepairMessages int

	// rec receives per-stage spans (rebuild, repair, connectors) so a
	// session can attribute repair cost like any other phase.
	rec obs.Recorder

	// backbone is the size of the maintained WCDS, counted when an epoch
	// commits so BackboneSize needs no pass over the slots.
	backbone int

	// ks is the connector kernel's scratch, kept across epochs so a
	// recompute allocates only its output; not part of the maintained
	// state.
	ks wcds.ConnectorScratch
	// sc is the rest of an epoch's working memory, kept the same way.
	sc epochScratch
}

// epochScratch holds an epoch's per-slot working memory, so an epoch
// allocates no array over all slots. Its contents are meaningless between
// uses.
type epochScratch struct {
	wl          worklist      // repairWorklist's heap and in-work marks
	near        marks         // within3's and radiusFrom's visited nodes
	ball        []int         // refreshConnectors' dirty owners
	dist        []int         // radiusFrom's hop counts, valid where near is set
	queue       []int         // radiusFrom's BFS queue
	bfs         graph.Scratch // activeConnected's BFS
	want        []bool        // the lossless reference of a lossy epoch
	wasDom, dom []bool        // finishRepair's dominator masks
}

// marks is a set of node slots that empties in O(1): a slot is in the set
// while its stamp equals gen, so each use bumps gen instead of clearing or
// allocating a per-slot array. The zero value is ready to use.
type marks struct {
	gen   uint64 // never wraps in practice
	stamp []uint64
}

// reset empties the set and sizes it for n slots.
func (s *marks) reset(n int) {
	s.gen++
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint64, n-len(s.stamp))...)
	}
}

func (s *marks) has(v int) bool { return s.stamp[v] == s.gen }
func (s *marks) add(v int)      { s.stamp[v] = s.gen }
func (s *marks) del(v int)      { s.stamp[v] = 0 }

// SetObserver directs per-stage timing spans ("rebuild", which times the
// graph relink, "repair" and "connectors") to rec; nil restores the no-op
// default.
func (m *Maintainer) SetObserver(rec obs.Recorder) {
	if rec == nil {
		rec = obs.Nop
	}
	m.rec = rec
}

// Op is one topology mutation kind.
type Op uint8

// Mutation operations.
const (
	// OpMove relocates node Node to Pos.
	OpMove Op = iota + 1
	// OpOff switches node Node off (loses all links, exempt from
	// domination).
	OpOff
	// OpOn switches node Node back on.
	OpOn
	// OpJoin adds a brand-new node at Pos with protocol ID ID (must be
	// unused). The node is assigned the next dense graph index.
	OpJoin
)

func (op Op) String() string {
	switch op {
	case OpMove:
		return "move"
	case OpOff:
		return "off"
	case OpOn:
		return "on"
	case OpJoin:
		return "join"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Mutation is one topology change inside an epoch.
type Mutation struct {
	Op   Op
	Node int        // OpMove, OpOff, OpOn
	Pos  geom.Point // OpMove, OpJoin
	ID   int        // OpJoin: protocol ID, must be unused
}

// Report describes the effect of one maintenance epoch.
type Report struct {
	// Promoted and Demoted list nodes whose MIS role changed.
	Promoted, Demoted []int
	// Joined lists the dense indices assigned to OpJoin mutations, in
	// mutation order.
	Joined []int
	// ConnectorChanges counts three-hop pairs whose connector assignment
	// changed (added, removed, or reassigned).
	ConnectorChanges int
	// RoleChanged lists every node whose dominator status (MIS or
	// additional) changed.
	RoleChanged []int
	// AffectedRadius is the maximum hop distance, in the post-event graph,
	// from a role-changed node to its nearest event site; 0 when nothing
	// beyond the event sites changed, -1 if a role-changed node became
	// unreachable from every event site.
	AffectedRadius int
	// Connected reports whether the post-event active graph is connected
	// (the WCDS guarantee only applies to connected graphs).
	Connected bool
	// Repair describes how the epoch's MIS repair ran: the strategy that
	// produced the served backbone, its outcome under the
	// Converged/Degraded/Violated taxonomy, and the fault-tolerance cost
	// (attempts, escalations, retransmissions). See RepairInfo.
	Repair RepairInfo
}

// New builds a Maintainer with the canonical Algorithm II state for the
// network's current topology. The network must be connected (errors.Is
// ErrNotConnected otherwise) and its graph must be the unit-disk graph of
// its positions (ErrNotUnitDisk otherwise).
func New(nw *udg.Network) (*Maintainer, error) {
	if !nw.G.Connected() {
		return nil, ErrNotConnected
	}
	if !nw.G.Equal(udg.BuildGraph(nw.Pos, nw.Radius)) {
		return nil, ErrNotUnitDisk
	}
	m := &Maintainer{
		nw:     nw,
		inMIS:  make([]bool, nw.N()),
		active: make([]bool, nw.N()),
		rec:    obs.Nop,
	}
	for i := range m.active {
		m.active[i] = true
	}
	set := mis.Greedy(nw.G, mis.ByID(nw.ID))
	for _, v := range set {
		m.inMIS[v] = true
	}
	m.conns = wcds.ConnectorSelection(nw.G, nw.ID, set)
	m.backbone = countTrue(m.dominatorMask())
	return m, nil
}

// MISDominators returns the current MIS-dominator set, sorted.
func (m *Maintainer) MISDominators() []int {
	var set []int
	for v, in := range m.inMIS {
		if in && m.active[v] {
			set = append(set, v)
		}
	}
	return set
}

// Dominators returns the full maintained WCDS (MIS plus connectors),
// sorted.
func (m *Maintainer) Dominators() []int {
	var out []int
	for v, in := range m.dominatorMask() {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// dominatorMask marks the maintained WCDS: active MIS members and every
// connector.
func (m *Maintainer) dominatorMask() []bool {
	return dominatorMask(nil, m.inMIS, m.active, m.conns, len(m.inMIS))
}

// dominatorMask marks, in mask resized to n nodes, the WCDS of a
// maintained state; nodes past the state's own length are non-dominators.
func dominatorMask(mask, inMIS, active []bool, conns [][]wcds.Connector, n int) []bool {
	mask = append(mask[:0], make([]bool, n)...)
	for v, in := range inMIS {
		mask[v] = in && active[v]
	}
	for _, owned := range conns {
		for _, c := range owned {
			mask[c.V] = true
		}
	}
	return mask
}

// MISSize returns len(MISDominators()) without building the list.
func (m *Maintainer) MISSize() int {
	n := 0
	for v, in := range m.inMIS {
		if in && m.active[v] {
			n++
		}
	}
	return n
}

// BackboneSize returns len(Dominators()) without building the list.
func (m *Maintainer) BackboneSize() int { return m.backbone }

// ActiveCount returns the number of switched-on nodes.
func (m *Maintainer) ActiveCount() int { return countTrue(m.active) }

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// InMIS returns a copy of the MIS membership mask (inactive nodes false).
func (m *Maintainer) InMIS() []bool {
	out := append([]bool(nil), m.inMIS...)
	for v := range out {
		if !m.active[v] {
			out[v] = false
		}
	}
	return out
}

// ActiveMask returns a copy of the on/off mask.
func (m *Maintainer) ActiveMask() []bool { return append([]bool(nil), m.active...) }

// Network exposes the maintained network (positions are live).
func (m *Maintainer) Network() *udg.Network { return m.nw }

// WouldDisconnect predicts whether removing node v (switching it off, or
// moving it out of range of all neighbours) can disconnect the active
// graph: true exactly when v is an articulation point. Callers use this to
// filter churn events cheaply instead of applying and rolling back.
func (m *Maintainer) WouldDisconnect(v int) bool {
	if v < 0 || v >= m.nw.N() || !m.active[v] {
		return false
	}
	for _, cut := range m.nw.G.ArticulationPoints() {
		if cut == v {
			return true
		}
	}
	return false
}

// MoveNode relocates node v and repairs the WCDS. Equivalent to a
// single-mutation ApplyEpoch.
func (m *Maintainer) MoveNode(ctx context.Context, v int, p geom.Point) (Report, error) {
	return m.ApplyEpoch(ctx, []Mutation{{Op: OpMove, Node: v, Pos: p}})
}

// SetActive switches node v on or off (the paper's "turned off or on").
// Off nodes lose all their links and are exempt from domination.
func (m *Maintainer) SetActive(ctx context.Context, v int, on bool) (Report, error) {
	op := OpOff
	if on {
		op = OpOn
	}
	return m.ApplyEpoch(ctx, []Mutation{{Op: op, Node: v}})
}

// AddNode joins a brand-new node at p with protocol ID id and repairs the
// WCDS, returning the node's assigned dense index.
func (m *Maintainer) AddNode(ctx context.Context, p geom.Point, id int) (int, Report, error) {
	rep, err := m.ApplyEpoch(ctx, []Mutation{{Op: OpJoin, Pos: p, ID: id}})
	if err != nil {
		return -1, rep, err
	}
	return rep.Joined[0], rep, nil
}

// snapshot captures the maintainer's full state for rollback. The graph
// and connector pointers suffice: an epoch installs copy-on-write
// successors of both and never writes the old ones.
type snapshot struct {
	pos    []geom.Point
	id     []int
	inMIS  []bool
	active []bool
	conns  [][]wcds.Connector
	g      *graph.Graph
}

func (m *Maintainer) save() snapshot {
	return snapshot{
		pos:    append([]geom.Point(nil), m.nw.Pos...),
		id:     append([]int(nil), m.nw.ID...),
		inMIS:  append([]bool(nil), m.inMIS...),
		active: append([]bool(nil), m.active...),
		conns:  m.conns,
		g:      m.nw.G,
	}
}

func (m *Maintainer) restore(s snapshot) {
	m.nw.Pos, m.nw.ID, m.nw.G = s.pos, s.id, s.g
	m.inMIS, m.active, m.conns = s.inMIS, s.active, s.conns
}

// ApplyEpoch applies a batch of topology mutations, relinks the unit-disk
// graph around the event sites, and repairs the WCDS with the local rules
// seeded only there. A validation failure or a cancelled context rolls the
// maintainer back to its pre-epoch state and returns the error (context
// causes stay visible to errors.Is).
func (m *Maintainer) ApplyEpoch(ctx context.Context, muts []Mutation) (Report, error) {
	if len(muts) == 0 {
		return Report{}, fmt.Errorf("maintain: empty epoch")
	}
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("maintain: epoch cancelled: %w", err)
	}
	snap := m.save()
	preG := m.nw.G

	// Apply the mutations to positions and masks. Event sites and the
	// pre-epoch neighbourhoods seed the repair worklist after the relink.
	// offMIS lists the MIS members the mutations switch off.
	var events, joined, seeds, offMIS []int
	fail := func(err error) (Report, error) {
		m.restore(snap)
		return Report{}, err
	}
	for _, mu := range muts {
		switch mu.Op {
		case OpMove, OpOff, OpOn:
			v := mu.Node
			if v < 0 || v >= m.nw.N() {
				return fail(fmt.Errorf("maintain: node %d out of range", v))
			}
			switch mu.Op {
			case OpMove:
				if !m.active[v] {
					return fail(fmt.Errorf("maintain: node %d is switched off", v))
				}
				m.nw.Pos[v] = mu.Pos
			case OpOff:
				if !m.active[v] {
					return fail(fmt.Errorf("maintain: node %d already in requested state", v))
				}
				if m.inMIS[v] {
					offMIS = append(offMIS, v)
				}
				m.active[v] = false
				m.inMIS[v] = false
			case OpOn:
				if m.active[v] {
					return fail(fmt.Errorf("maintain: node %d already in requested state", v))
				}
				m.active[v] = true
			}
			events = append(events, v)
			if v < preG.N() {
				seeds = append(seeds, preG.Neighbors(v)...)
			}
		case OpJoin:
			for _, id := range m.nw.ID {
				if id == mu.ID {
					return fail(fmt.Errorf("maintain: duplicate node ID %d", mu.ID))
				}
			}
			m.nw.Pos = append(m.nw.Pos, mu.Pos)
			m.nw.ID = append(m.nw.ID, mu.ID)
			m.inMIS = append(m.inMIS, false)
			m.active = append(m.active, true)
			v := m.nw.N() - 1
			events = append(events, v)
			joined = append(joined, v)
		default:
			return fail(fmt.Errorf("maintain: unknown mutation op %d", int(mu.Op)))
		}
	}

	tm := obs.StartTimer("rebuild")
	m.nw.G = m.relink(preG, events)
	tm.Done(m.rec)

	for _, v := range events {
		seeds = append(seeds, v)
		seeds = append(seeds, m.nw.G.Neighbors(v)...)
	}

	rep, err := m.repair(ctx, snap, events, seeds, offMIS)
	if err != nil {
		m.restore(snap)
		return Report{}, err
	}
	rep.Joined = joined
	return rep, nil
}

// relink returns the post-epoch graph as a copy-on-write successor of old:
// the unit-disk graph over active nodes, by BuildGraph's predicate. Only
// the event sites get lists built from scratch, by a scan of the active
// nodes; every other changed edge ends at an old or new neighbour of a
// site, whose list keeps its non-site neighbours and takes the sites now
// in range. All other lists are shared with old. Lists are allocated to
// size, so a long session's graph stays as compact as a fresh build.
func (m *Maintainer) relink(old *graph.Graph, events []int) *graph.Graph {
	n := m.nw.N()
	pos, active := m.nw.Pos, m.active
	r2 := m.nw.Radius * m.nw.Radius
	slot := map[int]int{} // node -> index in nodes: sites first, then their neighbours
	var nodes []int
	add := func(v int) {
		if _, ok := slot[v]; !ok {
			slot[v] = len(nodes)
			nodes = append(nodes, v)
		}
	}
	for _, v := range events {
		add(v)
	}
	sites := len(nodes)
	isSite := func(v int) bool { i, ok := slot[v]; return ok && i < sites }
	lists := make([][]int, sites, 4*sites)
	var buf []int
	for i, v := range nodes {
		if !active[v] {
			continue
		}
		buf = buf[:0]
		p := pos[v]
		for q, on := range active {
			if on && q != v && p.Dist2(pos[q]) <= r2 {
				buf = append(buf, q)
			}
		}
		lists[i] = slices.Clone(buf)
	}
	for i, v := range nodes[:sites] {
		if v < old.N() {
			for _, w := range old.Neighbors(v) {
				add(w)
			}
		}
		for _, w := range lists[i] {
			add(w)
		}
	}
	for _, w := range nodes[sites:] {
		buf = buf[:0]
		if w < old.N() {
			for _, x := range old.Neighbors(w) {
				if !isSite(x) {
					buf = append(buf, x)
				}
			}
		}
		for _, v := range nodes[:sites] {
			if active[v] && pos[v].Dist2(pos[w]) <= r2 {
				buf = append(buf, v)
			}
		}
		slices.Sort(buf)
		lists = append(lists, slices.Clone(buf))
	}
	return old.Patched(n, nodes, lists)
}

// repair restores the MIS invariants with deterministic local rules and
// refreshes the connector assignments, returning the change report.
// offMIS lists the pre-epoch MIS members the mutations switched off.
func (m *Maintainer) repair(ctx context.Context, pre snapshot, events, seeds, offMIS []int) (Report, error) {
	tm := obs.StartTimer("repair")
	var (
		promoted, demoted []int
		info              RepairInfo
		err               error
	)
	if m.policy.Distributed {
		// The escalation ladder (policy.go): distributed protocol under
		// the fault plan, local-rule fallback, fixpoint rebuild. Inactive
		// nodes (isolated in the filtered graph) self-promote as their own
		// components during the protocol; they are stripped on install
		// because the maintenance semantics exempt them.
		promoted, demoted, info, err = m.repairLadder(ctx, seeds)
	} else {
		promoted, demoted, err = repairWorklist(ctx, m.nw.G, m.nw.ID, m.inMIS, m.active, seeds, &m.sc.wl)
		// The local worklist IS the reference repair (property-tested
		// equal to Fixpoint), so the plain path always converges.
		info = RepairInfo{Mode: RepairModeLocal, Outcome: Converged}
	}
	tm.Done(m.rec)
	if err != nil {
		return Report{}, err
	}
	// Roles are compared with the pre-epoch state: a MIS dominator the
	// mutations switched off is demoted.
	rep := m.finishRepair(pre, events, promoted, append(demoted, offMIS...))
	rep.Repair = info
	return rep, nil
}

// repairWorklist restores the MIS invariants with the deterministic local
// worklist rules, mutating inMIS in place. A nil seed list sweeps every
// active node (the from-scratch reference); otherwise only the given dirty
// nodes (plus anything a state change touches) are processed. The work set
// is a min-heap on ID with an in-work mask, so each step takes the
// lowest-ID dirty node in O(log n). The context is observed between rule
// applications so a repair can be cancelled mid-worklist; on cancellation
// inMIS may be partially repaired and the caller must roll back. wl is the
// working memory; its previous contents do not matter.
func repairWorklist(ctx context.Context, g *graph.Graph, ids []int, inMIS, active []bool,
	seeds []int, wl *worklist) (promoted, demoted []int, err error) {

	work := &wl.heap
	*work = idHeap{ids: ids, nodes: work.nodes[:0]}
	inWork := &wl.inWork
	inWork.reset(g.N())
	addDirty := func(v int) {
		if active[v] && !inWork.has(v) {
			inWork.add(v)
			heap.Push(work, v)
		}
	}
	if seeds == nil {
		for v := 0; v < g.N(); v++ {
			addDirty(v)
		}
	} else {
		for _, v := range seeds {
			if v >= 0 && v < g.N() {
				addDirty(v)
			}
		}
	}
	popMin := func() int {
		v := heap.Pop(work).(int)
		inWork.del(v)
		return v
	}
	dominated := func(v int) bool {
		if inMIS[v] {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if inMIS[w] {
				return true
			}
		}
		return false
	}
	steps := 0
	for len(work.nodes) > 0 {
		if steps&31 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, fmt.Errorf("maintain: repair interrupted: %w", cerr)
			}
		}
		steps++
		a := popMin()
		if !active[a] {
			continue
		}
		if inMIS[a] {
			// Independence: on a conflict the higher-ID dominator demotes.
			for _, b := range g.Neighbors(a) {
				if !inMIS[b] {
					continue
				}
				loser := a
				if ids[b] > ids[a] {
					loser = b
				}
				inMIS[loser] = false
				demoted = append(demoted, loser)
				addDirty(loser)
				for _, w := range g.Neighbors(loser) {
					addDirty(w)
				}
				if loser == a {
					break
				}
			}
		}
		if !inMIS[a] && !dominated(a) {
			// Domination: an undominated node promotes itself. Processing
			// in ID order makes adjacent undominated nodes resolve to the
			// lower-ID one.
			inMIS[a] = true
			promoted = append(promoted, a)
			for _, w := range g.Neighbors(a) {
				addDirty(w)
			}
		}
	}
	return promoted, demoted, nil
}

// worklist is repairWorklist's working memory: the heap and the in-work
// marks. The zero value is ready to use.
type worklist struct {
	heap   idHeap
	inWork marks
}

// idHeap is a container/heap of nodes ordered by ID.
type idHeap struct{ ids, nodes []int }

func (h idHeap) Len() int           { return len(h.nodes) }
func (h idHeap) Less(i, j int) bool { return h.ids[h.nodes[i]] < h.ids[h.nodes[j]] }
func (h idHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *idHeap) Push(v any)        { h.nodes = append(h.nodes, v.(int)) }
func (h *idHeap) Pop() any {
	v := h.nodes[len(h.nodes)-1]
	h.nodes = h.nodes[:len(h.nodes)-1]
	return v
}

// Fixpoint runs the documented repair rules over every active node of g to
// a fixpoint, starting from the given MIS membership, and returns the
// repaired mask. It is the from-scratch reference for the dirty-set repair:
// seeding the worklist with the whole graph instead of the event
// neighbourhood must reach the same fixpoint, which the session property
// tests assert after every churn epoch.
func Fixpoint(ctx context.Context, g *graph.Graph, ids []int, inMIS, active []bool) ([]bool, error) {
	if len(ids) != g.N() || len(inMIS) != g.N() || len(active) != g.N() {
		return nil, fmt.Errorf("maintain: ids/inMIS/active length mismatch with %d nodes", g.N())
	}
	out := append([]bool(nil), inMIS...)
	for v := range out {
		if !active[v] {
			out[v] = false
		}
	}
	if _, _, err := repairWorklist(ctx, g, ids, out, active, nil, new(worklist)); err != nil {
		return nil, err
	}
	return out, nil
}

// finishRepair refreshes the connector assignments and assembles the
// change report shared by both repair strategies, comparing roles with
// the pre-epoch state.
func (m *Maintainer) finishRepair(pre snapshot, events, promoted, demoted []int) Report {
	tm := obs.StartTimer("connectors")
	changes := m.refreshConnectors(pre, events, promoted, demoted)
	tm.Done(m.rec)

	n, sc := m.nw.N(), &m.sc
	sc.wasDom = dominatorMask(sc.wasDom, pre.inMIS, pre.active, pre.conns, n)
	sc.dom = dominatorMask(sc.dom, m.inMIS, m.active, m.conns, n)
	rep := Report{
		Promoted:         dedupSorted(promoted),
		Demoted:          dedupSorted(demoted),
		ConnectorChanges: changes,
		Connected:        m.activeConnected(&sc.bfs),
	}
	// A node both demoted and re-promoted during repair ends with its old
	// role; count net changes only.
	for v, dom := range sc.dom {
		wasMIS := v < len(pre.inMIS) && pre.inMIS[v]
		if dom != sc.wasDom[v] || wasMIS != m.inMIS[v] {
			rep.RoleChanged = append(rep.RoleChanged, v)
		}
	}
	m.backbone = countTrue(sc.dom)
	rep.AffectedRadius = m.radiusFrom(events, rep.RoleChanged)
	return rep
}

// refreshConnectors recomputes the connector choices of every owner the
// epoch can have changed and returns how many keys were added, removed or
// reassigned. A key's choice reads only its owner's radius-3 ball (see
// wcds.(*ConnectorScratch).AppendOwned), and every edge or MIS change lies
// at an event site or a promoted or demoted node. So the dirty owners are
// the MIS members, before or after the epoch, within three hops of those
// nodes in the pre-epoch graph or the current one; all other keys stand.
func (m *Maintainer) refreshConnectors(pre snapshot, changed ...[]int) int {
	g, n := m.nw.G, m.nw.N()
	ball := within3(pre.g, changed, m.sc.ball[:0], &m.sc.near)
	ball = within3(g, changed, ball, &m.sc.near)
	slices.Sort(ball)
	ball = slices.Compact(ball)
	m.sc.ball = ball

	next := make([][]wcds.Connector, n)
	copy(next, m.conns)
	var buf []wcds.Connector
	changes := 0
	for _, u := range ball {
		wasOwner := u < len(pre.inMIS) && pre.inMIS[u] && pre.active[u]
		if !wasOwner && !m.inMIS[u] {
			continue
		}
		var owned []wcds.Connector
		if m.inMIS[u] {
			// inMIS implies active, so it is the kernel's dominator mask.
			buf = m.ks.AppendOwned(g, m.nw.ID, m.inMIS, u, buf[:0])
			if len(buf) > 0 {
				owned = slices.Clone(buf)
			}
		}
		changes += connectorDiff(next[u], owned)
		next[u] = owned
	}
	m.conns = next
	return changes
}

// within3 appends to out every node within three hops of a node in src,
// in g; nodes g does not have yet (this epoch's joins) are skipped. seen
// is reset and used as the visited set.
func within3(g *graph.Graph, src [][]int, out []int, seen *marks) []int {
	seen.reset(g.N())
	lo := len(out)
	for _, vs := range src {
		for _, v := range vs {
			if v < g.N() && !seen.has(v) {
				seen.add(v)
				out = append(out, v)
			}
		}
	}
	for hop := 0; hop < 3; hop++ {
		hi := len(out)
		for _, v := range out[lo:hi] {
			for _, w := range g.Neighbors(v) {
				if !seen.has(w) {
					seen.add(w)
					out = append(out, w)
				}
			}
		}
		lo = hi
	}
	return out
}

// connectorDiff counts the keys of two owner lists, each sorted by W, that
// are in one only or map to different choices.
func connectorDiff(a, b []wcds.Connector) int {
	diff := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].W < b[0].W:
			diff, a = diff+1, a[1:]
		case a[0].W > b[0].W:
			diff, b = diff+1, b[1:]
		default:
			if a[0] != b[0] {
				diff++
			}
			a, b = a[1:], b[1:]
		}
	}
	return diff + len(a) + len(b)
}

// activeConnected reports connectivity of the active subgraph, running
// its BFS in s. Inactive nodes have no edges, so the active graph is
// connected exactly when a BFS from one active node visits them all.
func (m *Maintainer) activeConnected(s *graph.Scratch) bool {
	start, count := -1, 0
	for v, on := range m.active {
		if on {
			count++
			if start == -1 {
				start = v
			}
		}
	}
	if count <= 1 {
		return true
	}
	_, visited := m.nw.G.BFSBoundedInto(s, start, m.nw.N())
	return len(visited) == count
}

// radiusFrom returns the maximum hop distance, in the current graph, from
// any changed node to its nearest event site (multi-source BFS).
func (m *Maintainer) radiusFrom(events, changed []int) int {
	if len(changed) == 0 || len(events) == 0 {
		return 0
	}
	g, sc := m.nw.G, &m.sc
	sc.near.reset(g.N())
	if len(sc.dist) < g.N() {
		sc.dist = make([]int, g.N())
	}
	dist, queue := sc.dist, sc.queue[:0]
	for _, v := range events {
		if v >= 0 && v < g.N() && !sc.near.has(v) {
			sc.near.add(v)
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if !sc.near.has(w) {
				sc.near.add(w)
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	radius := 0
	for _, v := range changed {
		if !sc.near.has(v) {
			return -1
		}
		if dist[v] > radius {
			radius = dist[v]
		}
	}
	return radius
}

// Validate checks the maintained invariants: the MIS part is a maximal
// independent set of the active graph and the full dominator set is a WCDS
// (when the active graph is connected).
func (m *Maintainer) Validate() error {
	g := m.nw.G
	set := m.MISDominators()
	if !mis.IsIndependent(g, set) {
		return errors.New("maintain: MIS part not independent")
	}
	for v := 0; v < g.N(); v++ {
		if !m.active[v] {
			continue
		}
		if !m.inMIS[v] && !hasMISNeighbor(g, m.inMIS, v) {
			return fmt.Errorf("maintain: active node %d undominated", v)
		}
	}
	s := graph.GetScratch()
	defer s.Release()
	if m.activeConnected(s) {
		// WCDS check restricted to active nodes: the weakly induced
		// subgraph must connect every active node (inactive nodes have no
		// edges and are exempt).
		weak := wcds.WeaklyInduced(g, m.Dominators())
		start := -1
		for v := 0; v < g.N(); v++ {
			if m.active[v] {
				start = v
				break
			}
		}
		if start >= 0 {
			dist, _ := weak.BFS(start)
			for v := 0; v < g.N(); v++ {
				if m.active[v] && v != start && dist[v] == graph.Unreachable {
					return fmt.Errorf("maintain: weakly induced subgraph does not reach active node %d", v)
				}
			}
		}
	}
	return nil
}

func hasMISNeighbor(g *graph.Graph, inMIS []bool, v int) bool {
	for _, w := range g.Neighbors(v) {
		if inMIS[w] {
			return true
		}
	}
	return false
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
