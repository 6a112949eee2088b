package maintain

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// churnEpoch draws one epoch of the session churn mix: 1..4 mutations,
// mostly moves, some leaves, rejoins and brand-new joins near existing
// nodes, each touching a distinct node.
func churnEpoch(rng *rand.Rand, m *Maintainer, nextID *int) []Mutation {
	var on, off []int
	for v, a := range m.active {
		if a {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	pos := m.nw.Pos
	used := map[int]bool{}
	count := 1 + rng.Intn(4)
	var out []Mutation
	for len(out) < count {
		switch k := rng.Intn(10); {
		case k < 6 && len(on) > 0:
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, Mutation{Op: OpMove, Node: v,
				Pos: geom.Point{X: pos[v].X + rng.NormFloat64()*0.4, Y: pos[v].Y + rng.NormFloat64()*0.4}})
		case k < 8 && len(on) > 1:
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, Mutation{Op: OpOff, Node: v})
		case k < 9 && len(off) > 0:
			v := off[rng.Intn(len(off))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, Mutation{Op: OpOn, Node: v})
		default:
			anchor := pos[rng.Intn(len(pos))]
			out = append(out, Mutation{Op: OpJoin, ID: *nextID,
				Pos: geom.Point{X: anchor.X + rng.NormFloat64()*0.3, Y: anchor.Y + rng.NormFloat64()*0.3}})
			*nextID++
		}
	}
	return out
}

// rebuiltGraph is the from-scratch graph an epoch must leave: the full
// unit-disk graph of the positions with every edge of an inactive node
// filtered out.
func rebuiltGraph(nw *udg.Network, active []bool) *graph.Graph {
	full := udg.BuildGraph(nw.Pos, nw.Radius)
	g := graph.New(nw.N())
	for _, e := range full.Edges() {
		if active[e[0]] && active[e[1]] {
			_ = g.AddEdge(e[0], e[1])
		}
	}
	g.SortAdjacency()
	return g
}

// globalDiff counts the connector keys that differ between two global
// selections.
func globalDiff(a, b [][]wcds.Connector) int {
	diff := 0
	for u := 0; u < max(len(a), len(b)); u++ {
		var x, y []wcds.Connector
		if u < len(a) {
			x = a[u]
		}
		if u < len(b) {
			y = b[u]
		}
		diff += connectorDiff(x, y)
	}
	return diff
}

// TestLocalEpochsMatchGlobal drives long seeded churn through local and
// lossy maintainers and checks after every epoch that the relinked graph
// is the from-scratch graph (lists, order and edge count), that the
// connector state is the global selection over the repaired MIS, and that
// ConnectorChanges is the global diff. Cancelled and rejected epochs must
// leave the previous graph object and connector state in place.
func TestLocalEpochsMatchGlobal(t *testing.T) {
	policies := []struct {
		name   string
		policy RepairPolicy
		epochs int
	}{
		{"local", RepairPolicy{}, 400},
		{"lossy", RepairPolicy{Distributed: true, Reliable: true,
			Faults: &simnet.FaultPlan{Seed: 3, DropRate: 0.1}}, 120},
	}
	for _, pc := range policies {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := New(newNetwork(t, rng, 80, 8))
			if err != nil {
				t.Fatal(err)
			}
			m.SetRepairPolicy(pc.policy)
			nextID := m.nw.N()
			cancelled, rejected := 0, 0
			for ep := 0; ep < pc.epochs; ep++ {
				beforeG, beforeConns := m.nw.G, m.conns
				wantBefore := wcds.ConnectorSelection(m.nw.G, m.nw.ID, m.MISDominators())
				muts := churnEpoch(rng, m, &nextID)
				ctx := context.Background()
				if ep%9 == 4 {
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				if ep%9 == 7 {
					// A second leave of a node the epoch already switched off.
					muts = append(muts, Mutation{Op: OpOff, Node: 0}, Mutation{Op: OpOff, Node: 0})
				}
				rep, err := m.ApplyEpoch(ctx, muts)
				switch {
				case ep%9 == 7:
					if err == nil {
						t.Fatalf("%s seed %d epoch %d: double leave accepted", pc.name, seed, ep)
					}
					rejected++
				case err != nil && ep%9 == 4:
					// An epoch whose worklist is empty commits before any
					// cancellation check; the others must roll back.
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s seed %d epoch %d: err = %v, want context.Canceled", pc.name, seed, ep, err)
					}
					cancelled++
				case err != nil:
					t.Fatalf("%s seed %d epoch %d: %v", pc.name, seed, ep, err)
				default:
					if want := rebuiltGraph(m.nw, m.active); !m.nw.G.Equal(want) {
						t.Fatalf("%s seed %d epoch %d: relinked graph differs from the rebuild (m=%d, want %d)",
							pc.name, seed, ep, m.nw.G.M(), want.M())
					}
					want := wcds.ConnectorSelection(m.nw.G, m.nw.ID, m.MISDominators())
					if !reflect.DeepEqual(m.conns, want) {
						t.Fatalf("%s seed %d epoch %d: connectors differ from the global selection", pc.name, seed, ep)
					}
					if d := globalDiff(wantBefore, want); rep.ConnectorChanges != d {
						t.Fatalf("%s seed %d epoch %d: ConnectorChanges = %d, global diff %d",
							pc.name, seed, ep, rep.ConnectorChanges, d)
					}
					continue
				}
				if m.nw.G != beforeG || !reflect.DeepEqual(m.conns, beforeConns) ||
					(len(beforeConns) > 0 && &m.conns[0] != &beforeConns[0]) {
					t.Fatalf("%s seed %d epoch %d: failed epoch did not restore the graph and connectors", pc.name, seed, ep)
				}
				if !reflect.DeepEqual(m.conns, wantBefore) {
					t.Fatalf("%s seed %d epoch %d: restored connectors differ from the global selection", pc.name, seed, ep)
				}
			}
			if cancelled == 0 || rejected == 0 || m.nw.N() <= 80 {
				t.Fatalf("%s seed %d: churn exercised too little (cancelled %d, rejected %d, n %d)",
					pc.name, seed, cancelled, rejected, m.nw.N())
			}
		}
	}
}

// TestEpochLeavesPreviousGraphIntact checks the copy-on-write contract: the
// pre-epoch graph keeps its lists and edge count after an epoch commits.
func TestEpochLeavesPreviousGraphIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, err := New(newNetwork(t, rng, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	nextID := m.nw.N()
	for ep := 0; ep < 50; ep++ {
		pre := m.nw.G
		want := pre.Clone()
		if _, err := m.ApplyEpoch(context.Background(), churnEpoch(rng, m, &nextID)); err != nil {
			t.Fatal(err)
		}
		if !pre.Equal(want) {
			t.Fatalf("epoch %d wrote into the previous graph", ep)
		}
	}
}

func TestNewRejectsNonUnitDiskGraph(t *testing.T) {
	nw, err := udg.New([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 1, Y: 0}}, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A path instead of the triangle the positions give.
	nw.G, _ = graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if _, err := New(nw); !errors.Is(err, ErrNotUnitDisk) {
		t.Fatalf("err = %v, want ErrNotUnitDisk", err)
	}
}

// BenchmarkApplyEpoch grows a session to about 1,500 nodes by seeded joins
// and times epochs of the session churn mix under the local and the lossy
// repair policy.
func BenchmarkApplyEpoch(b *testing.B) {
	for _, pc := range []struct {
		name   string
		policy RepairPolicy
	}{
		{"local", RepairPolicy{}},
		{"lossy", RepairPolicy{Distributed: true, Reliable: true,
			Faults: &simnet.FaultPlan{Seed: 5, DropRate: 0.1}}},
	} {
		b.Run(pc.name, func(b *testing.B) {
			m, rng, nextID := grownMaintainer(b, 1500)
			m.SetRepairPolicy(pc.policy)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ApplyEpoch(ctx, churnEpoch(rng, m, &nextID)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// grownMaintainer starts a maintainer on a connected 100-node piece of a
// degree-10 scene of n nodes and joins the rest in breadth-first order,
// ten per epoch, so every join lands in range of the session.
func grownMaintainer(b *testing.B, n int) (*Maintainer, *rand.Rand, int) {
	rng := rand.New(rand.NewSource(77))
	scene, err := udg.GenConnectedAvgDegree(rng, n, 10, 300)
	if err != nil {
		b.Fatal(err)
	}
	_, order := scene.G.BFSBounded(0, n)
	const start = 100
	pos := make([]geom.Point, start)
	ids := make([]int, start)
	for i, v := range order[:start] {
		pos[i], ids[i] = scene.Pos[v], scene.ID[v]
	}
	nw, err := udg.New(pos, ids, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(nw)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for lo := start; lo < len(order); lo += 10 {
		var muts []Mutation
		for _, v := range order[lo:min(lo+10, len(order))] {
			muts = append(muts, Mutation{Op: OpJoin, Pos: scene.Pos[v], ID: scene.ID[v]})
		}
		if _, err := m.ApplyEpoch(ctx, muts); err != nil {
			b.Fatal(err)
		}
	}
	return m, rng, n
}
