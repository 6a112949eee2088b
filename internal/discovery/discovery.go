// Package discovery implements HELLO-beacon neighbour discovery — the
// substrate assumption behind both WCDS algorithms. The paper states "each
// node is only required to know which nodes are in its vicinity"; this
// package is the protocol that establishes that knowledge.
//
// With k = 1 every node broadcasts a single HELLO carrying its protocol ID
// and learns all radio neighbours (one message per node — the minimum
// possible). With k = 2 every node additionally broadcasts its completed
// neighbour list once, learning the IDs exactly two hops away, which is the
// knowledge radius many clustering protocols (including Algorithm II's
// 1-HOP-DOMINATORS exchange) build on.
package discovery

import (
	"fmt"
	"sort"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// Messages exchanged by the discovery protocol.
type (
	// HelloMsg announces the sender's protocol ID to its radio vicinity.
	HelloMsg struct{ ID int }
	// NeighborListMsg carries the sender's complete 1-hop ID list (k = 2
	// only).
	NeighborListMsg struct {
		ID  int
		IDs []int
	}
)

// Table is the neighbourhood knowledge one node ends up with.
type Table struct {
	// ID is the node's own protocol ID.
	ID int
	// OneHop lists the IDs of all radio neighbours, sorted.
	OneHop []int
	// TwoHop lists the IDs exactly two hops away (not self, not 1-hop),
	// sorted; populated only for k = 2 runs.
	TwoHop []int
}

type proc struct {
	id    int
	k     int
	hello map[int]bool // 1-hop IDs heard
	lists int          // NeighborListMsg received
	two   map[int]bool
	sent2 bool
}

func newProc(id, k int) *proc {
	return &proc{
		id:    id,
		k:     k,
		hello: make(map[int]bool),
		two:   make(map[int]bool),
	}
}

func (p *proc) Init(ctx *simnet.Context) {
	ctx.Broadcast(HelloMsg{ID: p.id})
	p.maybeShareList(ctx)
}

func (p *proc) Recv(ctx *simnet.Context, from int, payload any) {
	switch m := payload.(type) {
	case HelloMsg:
		p.hello[m.ID] = true
		p.maybeShareList(ctx)
	case NeighborListMsg:
		p.lists++
		for _, id := range m.IDs {
			if id != p.id {
				p.two[id] = true
			}
		}
	}
}

// maybeShareList fires the second round once every neighbour's HELLO is in.
func (p *proc) maybeShareList(ctx *simnet.Context) {
	if p.k < 2 || p.sent2 || len(p.hello) != ctx.Degree() {
		return
	}
	p.sent2 = true
	ctx.Broadcast(NeighborListMsg{ID: p.id, IDs: sortedKeys(p.hello)})
}

func (p *proc) table() Table {
	t := Table{ID: p.id, OneHop: sortedKeys(p.hello)}
	if p.k >= 2 {
		for id := range p.two {
			if !p.hello[id] {
				t.TwoHop = append(t.TwoHop, id)
			}
		}
		sort.Ints(t.TwoHop)
	}
	return t
}

// Run executes neighbour discovery with knowledge radius k (1 or 2) and
// returns each node's Table (indexed by node) after running it on eng.
// Extra simnet options (scrambling, loss injection) may be supplied.
func Run(g *graph.Graph, ids []int, k int, eng simnet.Engine, opts ...simnet.Option) ([]Table, simnet.Stats, error) {
	if k != 1 && k != 2 {
		return nil, simnet.Stats{}, fmt.Errorf("discovery: unsupported radius k=%d", k)
	}
	if len(ids) != g.N() {
		return nil, simnet.Stats{}, fmt.Errorf("discovery: %d ids for %d nodes", len(ids), g.N())
	}
	procs := make([]simnet.Proc, g.N())
	dprocs := make([]*proc, g.N())
	for i := range procs {
		dprocs[i] = newProc(ids[i], k)
		procs[i] = dprocs[i]
	}
	stats, err := eng.Run(g, procs, opts...)
	if err != nil {
		return nil, stats, err
	}
	tables := make([]Table, g.N())
	for i, p := range dprocs {
		tables[i] = p.table()
	}
	return tables, stats, nil
}

// Verify checks discovered tables against the ground-truth graph; it
// returns an error naming the first discrepancy. Used in tests and as a
// diagnostic after lossy runs.
func Verify(g *graph.Graph, ids []int, tables []Table, k int) error {
	if len(tables) != g.N() {
		return fmt.Errorf("discovery: %d tables for %d nodes", len(tables), g.N())
	}
	for v := 0; v < g.N(); v++ {
		want := make([]int, 0, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			want = append(want, ids[w])
		}
		sort.Ints(want)
		if !equalSlices(tables[v].OneHop, want) {
			return fmt.Errorf("discovery: node %d 1-hop %v, want %v", v, tables[v].OneHop, want)
		}
		if k >= 2 {
			dist, visited := g.BFSBounded(v, 2)
			var want2 []int
			for _, w := range visited {
				if dist[w] == 2 {
					want2 = append(want2, ids[w])
				}
			}
			sort.Ints(want2)
			if !equalSlices(tables[v].TwoHop, want2) {
				return fmt.Errorf("discovery: node %d 2-hop %v, want %v", v, tables[v].TwoHop, want2)
			}
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func equalSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
