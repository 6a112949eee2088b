package wcds

import (
	"fmt"

	"wcdsnet/internal/discovery"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// The zero-knowledge pipeline composes HELLO-beacon neighbour discovery
// with a WCDS protocol in a single run: the node starts knowing ONLY its
// own protocol ID, learns its neighbours' IDs from their beacons, and only
// then enters the algorithm proper. Protocol messages that race ahead of a
// slow receiver's discovery (possible under non-FIFO schedules) are
// buffered and replayed, which is safe because every transition in both
// algorithms is counter-based and order-insensitive.

// neighborAware is the contract a protocol node must satisfy to run behind
// the discovery pipeline.
type neighborAware interface {
	// setNeighborID records one discovered neighbour.
	setNeighborID(node, id int)
	// wire finalises 1-hop knowledge and starts the protocol.
	wire(ctx *simnet.Context)
	// Recv handles a protocol message (post-wire).
	Recv(ctx *simnet.Context, from int, payload any)
}

func (p *algo2Proc) setNeighborID(node, id int) { p.nbrIDs[node] = id }

func (p *algo1Proc) setNeighborID(node, id int) { p.nbrIDs[node] = id }

// wire starts Algorithm I's phase 1 (the election) once neighbours are
// known. The election itself only needs the node's own ID; the neighbour
// IDs feed the phase-3 rank comparisons.
func (p *algo1Proc) wire(ctx *simnet.Context) { p.core.Init(ctx) }

type pipelineProc struct {
	ownID int
	inner neighborAware

	seen      map[int]bool // neighbours whose beacon arrived
	helloRecv int
	started   bool
	buffered  []bufferedMsg
}

type bufferedMsg struct {
	from    int
	payload any
}

func newPipelineProc(ownID int, inner neighborAware) *pipelineProc {
	return &pipelineProc{ownID: ownID, inner: inner, seen: make(map[int]bool)}
}

func (p *pipelineProc) Init(ctx *simnet.Context) {
	ctx.Broadcast(discovery.HelloMsg{ID: p.ownID})
	p.maybeStart(ctx)
}

func (p *pipelineProc) Recv(ctx *simnet.Context, from int, payload any) {
	if m, ok := payload.(discovery.HelloMsg); ok {
		if p.seen[from] {
			return // duplicate beacon; harmless
		}
		p.inner.setNeighborID(from, m.ID)
		p.seen[from] = true
		p.helloRecv++
		p.maybeStart(ctx)
		return
	}
	if !p.started {
		p.buffered = append(p.buffered, bufferedMsg{from: from, payload: payload})
		return
	}
	p.inner.Recv(ctx, from, payload)
}

// maybeStart enters the protocol once every neighbour's beacon has arrived,
// replaying any buffered protocol messages in arrival order.
func (p *pipelineProc) maybeStart(ctx *simnet.Context) {
	if p.started || p.helloRecv != ctx.Degree() {
		return
	}
	p.started = true
	p.inner.wire(ctx)
	for _, bm := range p.buffered {
		p.inner.Recv(ctx, bm.from, bm.payload)
	}
	p.buffered = nil
}

// Algo2ZeroKnowledge runs Algorithm II with in-protocol neighbour
// discovery: node i is given ONLY ids[i]; everything else is learned over
// the air. In Deferred mode the result still equals Algo2Centralized
// exactly, at the cost of one extra HELLO broadcast per node.
func Algo2ZeroKnowledge(g *graph.Graph, ids []int, mode SelectionMode, run Runner) (Result, simnet.Stats, error) {
	procs := make([]simnet.Proc, g.N())
	a2 := newAlgo2Procs(ids, mode, nil)
	pp := make([]*pipelineProc, g.N())
	for i := range procs {
		a2[i].nbrIDs = make(map[int]int)
		pp[i] = newPipelineProc(ids[i], &a2[i])
		procs[i] = pp[i]
	}
	stats, err := run(g, procs)
	if err != nil {
		return Result{}, stats, err
	}
	for v := range pp {
		if !pp[v].started {
			return Result{}, stats, fmt.Errorf("wcds: node %d never completed discovery", v)
		}
	}
	res, err := algo2Result(g, a2)
	return res, stats, err
}

// Algo1ZeroKnowledge runs Algorithm I (election, levels, colour marking)
// with in-protocol neighbour discovery: node i is given only ids[i]. One
// extra HELLO per node precedes the election.
func Algo1ZeroKnowledge(g *graph.Graph, ids []int, run Runner) (Result, simnet.Stats, error) {
	procs := make([]simnet.Proc, g.N())
	a1 := make([]*algo1Proc, g.N())
	pp := make([]*pipelineProc, g.N())
	for i := range procs {
		a1[i] = newAlgo1Proc(ids[i])
		pp[i] = newPipelineProc(ids[i], a1[i])
		procs[i] = pp[i]
	}
	stats, err := run(g, procs)
	if err != nil {
		return Result{}, stats, err
	}
	var set []int
	for v := range pp {
		if !pp[v].started {
			return Result{}, stats, fmt.Errorf("wcds: node %d never completed discovery", v)
		}
		switch a1[v].color {
		case black:
			set = append(set, v)
		case white:
			return Result{}, stats, fmt.Errorf("wcds: node %d still white after zero-knowledge run", v)
		}
	}
	return newResult(g, set, nil), stats, nil
}
