package election

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

func runProcs(t *testing.T, g *graph.Graph, ids []int, async bool, seed int64) []*Proc {
	t.Helper()
	procs := make([]simnet.Proc, g.N())
	eprocs := make([]*Proc, g.N())
	for i := range procs {
		eprocs[i] = NewProc(ids[i])
		procs[i] = eprocs[i]
	}
	var err error
	if async {
		_, err = simnet.EngineAsync.Run(g, procs, simnet.WithScramble(rand.New(rand.NewSource(seed))))
	} else {
		_, err = simnet.RunSync(g, procs)
	}
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return eprocs
}

// checkTree validates the structural invariants of a completed run on a
// connected graph.
func checkTree(t *testing.T, g *graph.Graph, ids []int, eprocs []*Proc) {
	t.Helper()
	n := g.N()
	maxIDNode := 0
	for v := 1; v < n; v++ {
		if ids[v] > ids[maxIDNode] {
			maxIDNode = v
		}
	}
	roots := 0
	for v, p := range eprocs {
		c := p.Core
		if c.LeaderID() != ids[maxIDNode] {
			t.Errorf("node %d: leader ID %d, want %d", v, c.LeaderID(), ids[maxIDNode])
		}
		if c.IsRoot() {
			roots++
			if v != maxIDNode {
				t.Errorf("root is node %d (ID %d), want max-ID node %d", v, ids[v], maxIDNode)
			}
			if c.Level() != 0 {
				t.Errorf("root level = %d", c.Level())
			}
			if !c.RootDone() {
				t.Error("root did not fire completion")
			}
		} else {
			if c.RootDone() {
				t.Errorf("non-root node %d fired root completion", v)
			}
			parent := c.Parent()
			if parent < 0 || !g.HasEdge(v, parent) {
				t.Fatalf("node %d has invalid parent %d", v, parent)
			}
			if c.Level() != eprocs[parent].Core.Level()+1 {
				t.Errorf("node %d: level %d, parent level %d", v, c.Level(), eprocs[parent].Core.Level())
			}
		}
		// Every node knows every neighbour's level, and correctly.
		for _, w := range g.Neighbors(v) {
			if got := c.NeighborLevel(w); got != eprocs[w].Core.Level() {
				t.Errorf("node %d records level %d for neighbour %d, actual %d",
					v, got, w, eprocs[w].Core.Level())
			}
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want exactly 1", roots)
	}
	// Parent pointers must reach the root from everywhere without cycles.
	for v := range eprocs {
		cur, steps := v, 0
		for !eprocs[cur].Core.IsRoot() {
			cur = eprocs[cur].Core.Parent()
			steps++
			if steps > n {
				t.Fatalf("parent chain from %d does not terminate", v)
			}
		}
	}
	// Children lists are consistent with parent pointers.
	for v, p := range eprocs {
		for _, ch := range p.Core.Children() {
			if eprocs[ch].Core.Parent() != v {
				t.Errorf("node %d lists child %d whose parent is %d", v, ch, eprocs[ch].Core.Parent())
			}
		}
	}
}

func TestLineGraphSync(t *testing.T) {
	g := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		_ = g.AddEdge(i, i+1)
	}
	ids := []int{3, 7, 1, 9, 5} // max at node 3
	eprocs := runProcs(t, g, ids, false, 0)
	checkTree(t, g, ids, eprocs)
	wantLevels := []int{3, 2, 1, 0, 1}
	for v, p := range eprocs {
		if p.Core.Level() != wantLevels[v] {
			t.Errorf("node %d level = %d, want %d", v, p.Core.Level(), wantLevels[v])
		}
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New(1)
	eprocs := runProcs(t, g, []int{42}, false, 0)
	c := eprocs[0].Core
	if !c.IsRoot() || c.Level() != 0 || !c.RootDone() {
		t.Errorf("single node: root=%v level=%d done=%v", c.IsRoot(), c.Level(), c.RootDone())
	}
}

func TestTwoNodes(t *testing.T) {
	g := graph.New(2)
	_ = g.AddEdge(0, 1)
	eprocs := runProcs(t, g, []int{5, 9}, false, 0)
	if !eprocs[1].Core.IsRoot() {
		t.Error("node with ID 9 should be root")
	}
	if eprocs[0].Core.Level() != 1 {
		t.Errorf("node 0 level = %d, want 1", eprocs[0].Core.Level())
	}
	checkTree(t, g, []int{5, 9}, eprocs)
}

func TestSyncLevelsAreBFSDepths(t *testing.T) {
	// Under the synchronous engine, the winning wave advances one hop per
	// round, so the adoption tree is a BFS tree of the max-ID node.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 30+rng.Intn(80), 9, 300)
		if err != nil {
			t.Fatal(err)
		}
		eprocs := runProcs(t, nw.G, nw.ID, false, 0)
		checkTree(t, nw.G, nw.ID, eprocs)
		root := -1
		for v, p := range eprocs {
			if p.Core.IsRoot() {
				root = v
			}
		}
		dist, _ := nw.G.BFS(root)
		for v, p := range eprocs {
			if p.Core.Level() != dist[v] {
				t.Fatalf("trial %d: node %d level %d, BFS depth %d", trial, v, p.Core.Level(), dist[v])
			}
		}
	}
}

func TestAsyncRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 20+rng.Intn(60), 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		eprocs := runProcs(t, nw.G, nw.ID, true, int64(trial))
		checkTree(t, nw.G, nw.ID, eprocs)
	}
}

func TestOnReadyFiresOncePerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, err := udg.GenConnectedAvgDegree(rng, 50, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nw.N())
	procs := make([]simnet.Proc, nw.N())
	for i := range procs {
		p := NewProc(nw.ID[i])
		i := i
		p.Core.OnReady = func(ctx *simnet.Context) { counts[i]++ }
		procs[i] = p
	}
	if _, err := simnet.RunSync(nw.G, procs); err != nil {
		t.Fatal(err)
	}
	for v, c := range counts {
		if c != 1 {
			t.Errorf("node %d: OnReady fired %d times", v, c)
		}
	}
}

func TestOnRootCompleteHookOrdering(t *testing.T) {
	// By the time the root completes, every node must already be Ready —
	// the property Algorithm I's colour-marking phase relies on.
	rng := rand.New(rand.NewSource(4))
	nw, err := udg.GenConnectedAvgDegree(rng, 60, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]simnet.Proc, nw.N())
	eprocs := make([]*Proc, nw.N())
	readyCount := 0
	for i := range procs {
		p := NewProc(nw.ID[i])
		p.Core.OnReady = func(ctx *simnet.Context) { readyCount++ }
		p.Core.OnRootComplete = func(ctx *simnet.Context) {
			if readyCount != nw.N() {
				t.Errorf("root completed with only %d/%d nodes ready", readyCount, nw.N())
			}
		}
		eprocs[i] = p
		procs[i] = p
	}
	if _, err := simnet.RunSync(nw.G, procs); err != nil {
		t.Fatal(err)
	}
	done := false
	for _, p := range eprocs {
		done = done || p.Core.RootDone()
	}
	if !done {
		t.Fatal("no root completion observed")
	}
}

func TestDeterministicUnderSyncEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw, err := udg.GenConnectedAvgDegree(rng, 40, 8, 300)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []int {
		eprocs := runProcs(t, nw.G, nw.ID, false, 0)
		levels := make([]int, nw.N())
		for v, p := range eprocs {
			levels[v] = p.Core.Level()
		}
		return levels
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: levels differ across identical runs (%d vs %d)", v, a[v], b[v])
		}
	}
}

func TestMessageCountScalesReasonably(t *testing.T) {
	// The substituted flood-max election is O(n·m) worst case but should be
	// far below that bound on random UDGs. This is a guard, not a proof.
	rng := rand.New(rand.NewSource(6))
	nw, err := udg.GenConnectedAvgDegree(rng, 200, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]simnet.Proc, nw.N())
	for i := range procs {
		procs[i] = NewProc(nw.ID[i])
	}
	stats, err := simnet.RunSync(nw.G, procs)
	if err != nil {
		t.Fatal(err)
	}
	limit := 60 * nw.N()
	if stats.Messages > limit {
		t.Errorf("election used %d messages on n=%d (guard %d)", stats.Messages, nw.N(), limit)
	}
	t.Logf("n=%d m=%d messages=%d rounds=%d", nw.N(), nw.G.M(), stats.Messages, stats.Rounds)
}
