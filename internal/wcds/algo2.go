package wcds

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
)

// SelectionMode controls how Algorithm II's MIS dominators pick the
// additional dominator for each three-hop peer.
type SelectionMode int

const (
	// Deferred is the canonical mode: a dominator collects the 1-HOP and
	// 2-HOP reports of all its neighbours before selecting, and then picks
	// the lexicographically smallest (v, x) intermediate pair per target.
	// The result is schedule independent and matches Algo2Centralized
	// exactly, on either engine. This matches the complexity analysis in
	// the paper ("a MIS-dominator waits ... before it selects").
	Deferred SelectionMode = iota + 1
	// Eager is the paper's event-driven prose: a dominator fires a
	// SELECTION as soon as a 2-HOP-DOMINATORS message reveals a new
	// three-hop peer. The WCDS is still correct but its additional-
	// dominator set may depend on message timing.
	Eager
)

// Algorithm II message types (Section 4.2). All node references inside
// payloads are protocol IDs; nodes translate neighbour IDs to link
// addresses with the 1-hop knowledge the paper assumes.
type (
	// MISDominatorMsg announces the sender joined the MIS-dominator set.
	MISDominatorMsg struct{}
	// GrayMsg announces the sender was dominated (also used by
	// Algorithm I's marking phase).
	GrayMsg struct{}
	// OneHopDomsMsg carries the sender's 1HopDomList: the IDs of all
	// dominators adjacent to it.
	OneHopDomsMsg struct{ Doms []int }
	// TwoHopEntry names a dominator two hops from the 2-HOP list's owner,
	// plus the intermediate neighbour to reach it.
	TwoHopEntry struct{ Dom, Via int }
	// TwoHopDomsMsg carries the sender's 2HopDomList.
	TwoHopDomsMsg struct{ Entries []TwoHopEntry }
	// SelectionMsg tells gray node v (the receiver) that dominator U
	// selected it as the additional dominator on the path U–v–X–W.
	SelectionMsg struct{ U, W, X int }
	// AdditionalDomMsg is broadcast by the new additional dominator V and
	// forwarded by intermediate X to the far dominator W.
	AdditionalDomMsg struct{ V, U, X, W int }
)

// domVia is one 2HopDomList entry in a node's working state: a dominator ID
// and the minimum intermediate (via) ID that reaches it. The lists are tiny
// — Lemma 1 bounds adjacent dominators at five, and a constant-size disk
// packing bounds the 2-hop set — so they live in small linear-scanned slices
// carved from run-wide arenas instead of maps; at million-node scale the
// per-delivery map overhead used to dominate the protocol's CPU profile.
type domVia struct{ dom, via int }

// domPath is one per-target record of an MIS dominator: a dominator ID dom
// and the intermediate IDs of a self–v–x–dom connector path, nearest
// first. It serves both the Deferred candidates, folded to the
// lexicographically smallest (v, x) as reports arrive, and the 3-hop
// records. Lemma 2 bounds either list at 47 entries, so both are
// linear-scanned slices.
type domPath struct{ dom, v, x int }

// pathListCap is the capacity a per-target list gets on first use. Lemma
// 2 allows 47 entries, but on uniform scenes a dominator keeps a handful,
// so one allocation covers the list instead of a chain of regrowths.
const pathListCap = 8

// appendPath appends e to list, allocating pathListCap on first use.
func appendPath(list []domPath, e domPath) []domPath {
	if list == nil {
		list = make([]domPath, 0, pathListCap)
	}
	return append(list, e)
}

// pathIndex returns the index of dom's entry in list, or -1.
func pathIndex(list []domPath, dom int) int {
	for i := range list {
		if list[i].dom == dom {
			return i
		}
	}
	return -1
}

// algo2Shared is the run-wide read-only ID knowledge every fast-path proc
// points at: one slice header set for the whole run instead of per-node
// copies, which keeps the per-proc struct small enough that a delivery's
// counter updates usually touch a single cache line (the structs are hit in
// random order at million-node scale, so resident size is the profile).
type algo2Shared struct {
	ids    []int   // node index -> protocol ID
	nodeOf []int32 // protocol ID -> node index; non-nil only for dense permutation IDs
}

// algo2Proc is one node of distributed Algorithm II. It holds only the
// 1-hop knowledge the paper assumes: its own ID plus its neighbours' IDs.
// That knowledge arrives one of two ways, and the representation differs:
//
//   - Fast path (Algo2DistributedDetailed): shared points at the caller's
//     ID table, so neighbour-ID lookups are array indexing and the proc
//     holds no maps at all.
//   - Zero-knowledge path (Algo2ZeroKnowledge): shared is nil and nbrIDs is
//     filled incrementally by HELLO beacons before wire runs.
//
// Both paths carve the procs and their 1-hop and 2-hop lists from run-wide
// arenas (newAlgo2Procs). The per-target lists only MIS dominators keep,
// threeHop and candidates, are small slices allocated on first use.
//
// Field order is deliberate: the per-delivery counters and colour state
// lead so the hot handlers stay within the first cache line.
type algo2Proc struct {
	ownID  int
	shared *algo2Shared

	deg           int32 // cached ctx.Degree(), set by wire
	lowerCount    int32 // neighbours with lower ID
	grayLowerRecv int32
	colorsRecv    int32 // colour announcements received (one per neighbour)
	grayNbrs      int32 // neighbours known gray
	oneHopRecv    int32
	twoHopRecv    int32

	mode       SelectionMode
	color      color
	additional bool
	sentOneHop bool
	sentTwoHop bool
	selected   bool

	oneHopDoms []int    // adjacent dominator IDs (deduped, unordered); arena chunk
	twoHopDoms []domVia // dominator ID -> minimum via-ID (deduped, unordered); arena chunk

	threeHop   []domPath   // dominator ID -> (first, second) intermediate IDs (deduped, unordered)
	candidates []domPath   // deferred mode: target W -> minimum (v, x) pair (deduped, unordered)
	nbrIDs     map[int]int // neighbour node index -> protocol ID (discovery path)
	idToNbr    map[int]int // neighbour protocol ID -> node index (discovery path)
}

// Per-node arena chunk sizes for the 1-hop and 2-hop lists. A node that
// outgrows its chunk spills to the heap with identical append semantics,
// so these are tuned to the common case, not to the packing bounds.
const (
	// domArenaCap covers Lemma 1's five adjacent MIS dominators plus
	// slack for additional dominators that join later.
	domArenaCap = 8
	// twoHopArenaCap covers nearly every 2HopDomList on uniform scenes
	// (mean length about 4 at degree 10 and 5.5 at degree 20). A chunk
	// sized by Lemma 2's bound of 23 would cost more memory than the
	// overflows it saves.
	twoHopArenaCap = 8
)

// newAlgo2Procs carves one run's procs and their 1-hop and 2-hop list
// chunks from three run-wide allocations: almost every node ends up
// dominated and hears some 1-HOP report, so per-node lazy lists were
// guaranteed mallocs per node per run. Full slice expressions cap each
// chunk so a node's appends never run into its neighbour's.
func newAlgo2Procs(ids []int, mode SelectionMode, shared *algo2Shared) []algo2Proc {
	n := len(ids)
	a2 := make([]algo2Proc, n)
	oneHop := make([]int, domArenaCap*n)
	twoHop := make([]domVia, twoHopArenaCap*n)
	for i := range a2 {
		o, t := i*domArenaCap, i*twoHopArenaCap
		a2[i] = algo2Proc{
			ownID:      ids[i],
			mode:       mode,
			shared:     shared,
			oneHopDoms: oneHop[o : o : o+domArenaCap],
			twoHopDoms: twoHop[t : t : t+twoHopArenaCap],
		}
	}
	return a2
}

// idOf maps a neighbour's node index to its protocol ID. The kernel only
// delivers along edges, so the fast path indexes the shared table directly
// (and stays small enough to inline into the per-delivery handlers); the
// discovery path keeps the defensive panic on a non-neighbour because there
// the map genuinely encodes who the neighbours are.
func (p *algo2Proc) idOf(from int) int {
	if s := p.shared; s != nil {
		return s.ids[from]
	}
	return p.discoveredIDOf(from)
}

func (p *algo2Proc) discoveredIDOf(from int) int {
	id, ok := p.nbrIDs[from]
	if !ok {
		panic(fmt.Sprintf("wcds: message from unknown neighbour %d", from))
	}
	return id
}

// nbrOf is the reverse lookup: a neighbour's protocol ID to its node index.
// With dense permutation IDs (the udg.RandomIDs case) it is one shared-table
// load; otherwise the fast path scans the adjacency list (constant expected
// degree in a UDG) and the discovery path uses the idToNbr map built by
// wire. Callers send to the result, and Context.Send still panics on a
// non-neighbour, so the defensive neighbour check survives all paths.
func (p *algo2Proc) nbrOf(ctx *simnet.Context, id int) (int, bool) {
	if s := p.shared; s != nil {
		if s.nodeOf != nil {
			return int(s.nodeOf[id]), true
		}
		for _, w := range ctx.Neighbors() {
			if s.ids[w] == id {
				return w, true
			}
		}
		return 0, false
	}
	w, ok := p.idToNbr[id]
	return w, ok
}

// hasOneHopDom reports whether id is a known adjacent dominator.
func (p *algo2Proc) hasOneHopDom(id int) bool {
	for _, d := range p.oneHopDoms {
		if d == id {
			return true
		}
	}
	return false
}

// addOneHopDom records an adjacent dominator, deduplicating.
func (p *algo2Proc) addOneHopDom(id int) {
	if !p.hasOneHopDom(id) {
		p.oneHopDoms = append(p.oneHopDoms, id)
	}
}

// foldTwoHop records that dominator dom is reachable through via, keeping
// the minimum via-ID (the canonical 2HopDomList entry).
func (p *algo2Proc) foldTwoHop(dom, via int) {
	for i := range p.twoHopDoms {
		if p.twoHopDoms[i].dom == dom {
			if via < p.twoHopDoms[i].via {
				p.twoHopDoms[i].via = via
			}
			return
		}
	}
	p.twoHopDoms = append(p.twoHopDoms, domVia{dom: dom, via: via})
}

// hasTwoHop reports whether dom appears in the 2HopDomList.
func (p *algo2Proc) hasTwoHop(dom int) bool {
	for i := range p.twoHopDoms {
		if p.twoHopDoms[i].dom == dom {
			return true
		}
	}
	return false
}

// setThreeHop records the three-hop connector path to dom through first
// intermediate v and second intermediate x, replacing any earlier record.
func (p *algo2Proc) setThreeHop(dom, v, x int) {
	if i := pathIndex(p.threeHop, dom); i >= 0 {
		p.threeHop[i] = domPath{dom: dom, v: v, x: x}
		return
	}
	p.threeHop = appendPath(p.threeHop, domPath{dom: dom, v: v, x: x})
}

// foldCandidate keeps the lexicographically smallest (v, x) connector pair
// per Deferred target, so selection needs no per-target candidate lists.
func (p *algo2Proc) foldCandidate(dom, v, x int) {
	if i := pathIndex(p.candidates, dom); i >= 0 {
		if c := &p.candidates[i]; v < c.v || (v == c.v && x < c.x) {
			c.v, c.x = v, x
		}
		return
	}
	p.candidates = appendPath(p.candidates, domPath{dom: dom, v: v, x: x})
}

// wire finalises the 1-hop knowledge (nbrIDs must be complete on the
// discovery path) and fires the initial MIS rule: "each node which has the
// lowest ID among all its white neighbours colours itself black" — initially
// everyone is white, so the rule fires exactly at local ID minima.
func (p *algo2Proc) wire(ctx *simnet.Context) {
	p.deg = int32(ctx.Degree())
	if s := p.shared; s != nil {
		for _, w := range ctx.Neighbors() {
			if s.ids[w] < p.ownID {
				p.lowerCount++
			}
		}
	} else {
		p.idToNbr = make(map[int]int, len(p.nbrIDs))
		for w, id := range p.nbrIDs {
			p.idToNbr[id] = w
			if id < p.ownID {
				p.lowerCount++
			}
		}
	}
	if p.lowerCount == 0 {
		p.becomeMISDominator(ctx)
	}
}

func (p *algo2Proc) Init(ctx *simnet.Context) {
	// The standard entry point is handed the neighbour IDs directly (the
	// paper's standing assumption); the zero-knowledge pipeline instead
	// fills nbrIDs via HELLO beacons and calls wire itself.
	p.wire(ctx)
}

func (p *algo2Proc) becomeMISDominator(ctx *simnet.Context) {
	p.color = black
	ctx.Broadcast(MISDominatorMsg{})
	// A dominator with no neighbours (isolated node) has nothing to wait
	// for; run the (empty) selection immediately so state is consistent.
	p.maybeSelect(ctx)
}

func (p *algo2Proc) Recv(ctx *simnet.Context, from int, payload any) {
	switch m := payload.(type) {
	case MISDominatorMsg:
		p.colorsRecv++
		p.addOneHopDom(p.idOf(from))
		if p.color == white {
			p.color = gray
			ctx.Broadcast(GrayMsg{})
		}
		p.runChecks(ctx)
	case GrayMsg:
		p.colorsRecv++
		p.grayNbrs++
		if p.color == white && p.idOf(from) < p.ownID {
			p.grayLowerRecv++
			if p.grayLowerRecv == p.lowerCount {
				p.becomeMISDominator(ctx)
			}
		}
		p.runChecks(ctx)
	case OneHopDomsMsg:
		p.oneHopRecv++
		p.recordOneHopReport(ctx, from, m)
		p.runChecks(ctx)
	case TwoHopDomsMsg:
		p.twoHopRecv++
		if p.color == black {
			p.recordTwoHopReport(ctx, from, m)
		}
		p.runChecks(ctx)
	case SelectionMsg:
		// Unicast: this node becomes an additional dominator for the path
		// m.U – self – m.X – m.W and announces it.
		p.additional = true
		ctx.Broadcast(AdditionalDomMsg{V: p.ownID, U: m.U, X: m.X, W: m.W})
	case AdditionalDomMsg:
		p.handleAdditionalDom(ctx, from, m)
	}
}

// recordOneHopReport folds a neighbour's 1HopDomList into this node's
// 2HopDomList, keeping the smallest via-ID per target. Exclusion of
// already-adjacent dominators happens at send/selection time so the list is
// canonical regardless of arrival order.
func (p *algo2Proc) recordOneHopReport(ctx *simnet.Context, from int, m OneHopDomsMsg) {
	me := p.ownID
	via := p.idOf(from)
	for _, dom := range m.Doms {
		if dom == me {
			continue // "different from its own ID"
		}
		p.foldTwoHop(dom, via)
	}
	if p.mode == Eager && p.color == black {
		// Paper's removal rule: a dominator that learns a target is
		// actually two hops away drops the three-hop record.
		for _, dom := range m.Doms {
			if i := pathIndex(p.threeHop, dom); i >= 0 {
				p.threeHop = slices.Delete(p.threeHop, i, i+1)
			}
		}
	}
}

func (p *algo2Proc) recordTwoHopReport(ctx *simnet.Context, from int, m TwoHopDomsMsg) {
	me := p.ownID
	v := p.idOf(from)
	for _, e := range m.Entries {
		if e.Dom == me || me >= e.Dom {
			// Only the lower-ID endpoint of a three-hop dominator pair
			// selects the connector.
			continue
		}
		switch p.mode {
		case Deferred:
			p.foldCandidate(e.Dom, v, e.Via)
		case Eager:
			if p.hasTwoHop(e.Dom) || pathIndex(p.threeHop, e.Dom) >= 0 {
				continue
			}
			p.setThreeHop(e.Dom, v, e.Via)
			ctx.Send(from, SelectionMsg{U: me, W: e.Dom, X: e.Via})
		}
	}
}

func (p *algo2Proc) handleAdditionalDom(ctx *simnet.Context, from int, m AdditionalDomMsg) {
	me := p.ownID
	switch p.idOf(from) {
	case m.V:
		// Direct announcement from the new dominator: it is now an
		// adjacent dominator of ours.
		p.addOneHopDom(m.V)
		if m.X == me {
			// We are the named second intermediate: relay to the far
			// dominator W, which is our neighbour by construction.
			w, ok := p.nbrOf(ctx, m.W)
			if !ok {
				panic(fmt.Sprintf("wcds: node %d asked to relay to non-neighbour ID %d", ctx.Node(), m.W))
			}
			ctx.Send(w, m)
		}
	case m.X:
		if m.W == me {
			// Forwarded copy: record the reverse path to dominator U.
			p.setThreeHop(m.U, m.X, m.V)
		}
	}
}

// runChecks re-evaluates every counter-guarded transition. Every transition
// requires a colour announcement from each neighbour, so the common early
// case (still collecting colours) is a single compare — this runs on every
// delivery, which at million-node scale is tens of millions of calls.
func (p *algo2Proc) runChecks(ctx *simnet.Context) {
	if p.colorsRecv != p.deg {
		return
	}
	p.maybeSendOneHop(ctx)
	p.maybeSendTwoHop(ctx)
	p.maybeSelect(ctx)
}

// maybeSendOneHop: a gray node that has heard a colour announcement from
// every neighbour broadcasts its 1HopDomList. The list is sorted in place
// and sent without a copy: oneHopDoms only ever grows by append, and the
// payload's capacity is capped at its length, so later additional
// dominators land past the payload and never change what was sent.
func (p *algo2Proc) maybeSendOneHop(ctx *simnet.Context) {
	if p.color != gray || p.sentOneHop || p.colorsRecv != p.deg {
		return
	}
	p.sentOneHop = true
	sort.Ints(p.oneHopDoms)
	n := len(p.oneHopDoms)
	ctx.Broadcast(OneHopDomsMsg{Doms: p.oneHopDoms[:n:n]})
}

// maybeSendTwoHop: a gray node that has a 1-HOP report from every gray
// neighbour broadcasts its 2HopDomList, excluding dominators it is itself
// adjacent to.
func (p *algo2Proc) maybeSendTwoHop(ctx *simnet.Context) {
	if p.color != gray || p.sentTwoHop || !p.sentOneHop || p.colorsRecv != p.deg || p.oneHopRecv != p.grayNbrs {
		return
	}
	p.sentTwoHop = true
	entries := make([]TwoHopEntry, 0, len(p.twoHopDoms))
	for _, e := range p.twoHopDoms {
		if p.hasOneHopDom(e.dom) {
			continue
		}
		entries = append(entries, TwoHopEntry{Dom: e.dom, Via: e.via})
	}
	slices.SortFunc(entries, func(a, b TwoHopEntry) int { return cmp.Compare(a.Dom, b.Dom) })
	ctx.Broadcast(TwoHopDomsMsg{Entries: entries})
}

// maybeSelect: in Deferred mode, an MIS dominator with complete reports
// from all (necessarily gray) neighbours selects one additional dominator
// per three-hop target, picking the smallest (v, x) pair, which
// foldCandidate kept. Selections go out in ascending target order.
func (p *algo2Proc) maybeSelect(ctx *simnet.Context) {
	if p.mode != Deferred || p.color != black || p.selected {
		return
	}
	if p.colorsRecv != p.deg || p.oneHopRecv != p.deg || p.twoHopRecv != p.deg {
		return
	}
	p.selected = true
	slices.SortFunc(p.candidates, func(a, b domPath) int { return cmp.Compare(a.dom, b.dom) })
	me := p.ownID
	for _, c := range p.candidates {
		if p.hasTwoHop(c.dom) {
			continue // actually reachable in two hops; no connector needed
		}
		p.setThreeHop(c.dom, c.v, c.x)
		v, ok := p.nbrOf(ctx, c.v)
		if !ok {
			panic(fmt.Sprintf("wcds: node %d selected non-neighbour ID %d", ctx.Node(), c.v))
		}
		ctx.Send(v, SelectionMsg{U: me, W: c.dom, X: c.x})
	}
	p.candidates = nil
}

// Tables is the neighbourhood knowledge one node accumulated during an
// Algorithm II run. The routing layer (Section 4.2's clusterhead unicast)
// is built directly on these lists. All references are protocol IDs.
type Tables struct {
	// ID is the node's own protocol ID.
	ID int
	// IsMISDominator and IsAdditional classify the node in the WCDS.
	IsMISDominator bool
	IsAdditional   bool
	// OneHopDoms lists adjacent dominator IDs (gray nodes' 1HopDomList).
	OneHopDoms []int
	// TwoHopDoms maps a dominator ID two hops away to the intermediate
	// neighbour's ID used to reach it.
	TwoHopDoms map[int]int
	// ThreeHopDoms maps a dominator ID three hops away to the two
	// intermediate IDs (nearest first) on the connector path.
	ThreeHopDoms map[int][2]int
}

// Algo2Distributed runs the full Algorithm II protocol and returns the
// WCDS (MIS dominators plus additional dominators), the run cost, and any
// engine error. The graph must be connected and ids unique. Unlike the
// Detailed variant it never materialises per-node Tables, which matters at
// million-node scale (two maps per node, all immediately garbage).
func Algo2Distributed(g *graph.Graph, ids []int, mode SelectionMode, run Runner) (Result, simnet.Stats, error) {
	res, _, stats, err := algo2Run(g, ids, mode, run, false)
	return res, stats, err
}

// Algo2DistributedDetailed is Algo2Distributed but also returns each node's
// accumulated Tables (indexed by node) for routing and inspection.
func Algo2DistributedDetailed(g *graph.Graph, ids []int, mode SelectionMode, run Runner) (Result, []Tables, simnet.Stats, error) {
	return algo2Run(g, ids, mode, run, true)
}

func algo2Run(g *graph.Graph, ids []int, mode SelectionMode, run Runner, wantTables bool) (Result, []Tables, simnet.Stats, error) {
	procs := make([]simnet.Proc, g.N())
	// The paper's standing assumption: every node already knows the IDs of
	// its radio neighbours. Here that is one shared read-only table rather
	// than a per-node map (see Algo2ZeroKnowledge for the variant that
	// discovers neighbours in-protocol), and the procs themselves live in
	// one contiguous allocation instead of a million heap objects.
	// When the IDs are a dense permutation of 0..n-1 (udg.RandomIDs always
	// is), nodes additionally share the O(1) inverse table; arbitrary
	// unique IDs fall back to adjacency scans in nbrOf.
	var nodeOf []int32
	dense := true
	for _, id := range ids {
		if id < 0 || id >= g.N() {
			dense = false
			break
		}
	}
	if dense {
		nodeOf = make([]int32, g.N())
		for v, id := range ids {
			nodeOf[id] = int32(v)
		}
	}
	a2 := newAlgo2Procs(ids, mode, &algo2Shared{ids: ids, nodeOf: nodeOf})
	for i := range procs {
		procs[i] = &a2[i]
	}
	stats, err := run(g, procs)
	if err != nil {
		return Result{}, nil, stats, err
	}
	res, err := algo2Result(g, a2)
	if err != nil {
		return Result{}, nil, stats, err
	}
	var tables []Tables
	if wantTables {
		tables = make([]Tables, g.N())
		for v := range a2 {
			tables[v] = a2[v].snapshotTables()
		}
	}
	return res, tables, stats, nil
}

// algo2Result classifies every node of a quiesced Algorithm II run: MIS
// dominators, additional dominators, and an error for any node left white.
func algo2Result(g *graph.Graph, a2 []algo2Proc) (Result, error) {
	var misDoms, additional []int
	for v := range a2 {
		p := &a2[v]
		switch {
		case p.color == black:
			misDoms = append(misDoms, v)
		case p.additional:
			additional = append(additional, v)
		case p.color == white:
			return Result{}, fmt.Errorf("wcds: node %d still white after Algorithm II quiesced", v)
		}
	}
	return newResult(g, misDoms, additional), nil
}

// snapshotTables copies the node's lists into an exported Tables value.
func (p *algo2Proc) snapshotTables() Tables {
	t := Tables{
		ID:             p.ownID,
		IsMISDominator: p.color == black,
		IsAdditional:   p.additional,
		TwoHopDoms:     make(map[int]int, len(p.twoHopDoms)),
		ThreeHopDoms:   make(map[int][2]int, len(p.threeHop)),
	}
	if len(p.oneHopDoms) > 0 {
		t.OneHopDoms = make([]int, len(p.oneHopDoms))
		copy(t.OneHopDoms, p.oneHopDoms)
		sort.Ints(t.OneHopDoms)
	}
	for _, e := range p.twoHopDoms {
		if !p.hasOneHopDom(e.dom) {
			t.TwoHopDoms[e.dom] = e.via
		}
	}
	for _, e := range p.threeHop {
		t.ThreeHopDoms[e.dom] = [2]int{e.v, e.x}
	}
	return t
}

// Algo2Centralized is the centralized reference for Algorithm II with
// Deferred selection semantics: greedy-by-ID MIS, then for every
// MIS-dominator pair (u, w) exactly three hops apart with ids[u] < ids[w],
// the connector v from the lexicographically smallest intermediate pair
// (ids[v], ids[x]) on a u–v–x–w path joins the additional-dominator set.
//
// It produces exactly the same dominator sets as Algo2Distributed in
// Deferred mode under any engine and schedule, which the tests verify.
func Algo2Centralized(g *graph.Graph, ids []int) Result {
	set := mis.Greedy(g, mis.ByID(ids))
	isConnector := make([]bool, g.N())
	for _, owned := range ConnectorSelection(g, ids, set) {
		for _, c := range owned {
			isConnector[c.V] = true
		}
	}
	var additional []int
	for v, in := range isConnector {
		if in {
			additional = append(additional, v)
		}
	}
	return newResult(g, set, additional)
}
