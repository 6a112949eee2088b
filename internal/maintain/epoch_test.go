package maintain

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"wcdsnet/internal/geom"
)

func TestApplyEpochJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := New(newNetwork(t, rng, 50, 8))
	if err != nil {
		t.Fatal(err)
	}
	anchor := m.Network().Pos[3]
	rep, err := m.ApplyEpoch(context.Background(),
		[]Mutation{{Op: OpJoin, Pos: geom.Point{X: anchor.X + 0.1, Y: anchor.Y}, ID: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joined) != 1 || rep.Joined[0] != 50 {
		t.Fatalf("Joined = %v, want [50]", rep.Joined)
	}
	if m.Network().N() != 51 || !m.ActiveMask()[50] {
		t.Fatal("joined node missing or inactive")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("post-join state invalid: %v", err)
	}
}

func TestApplyEpochDuplicateIDRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := New(newNetwork(t, rng, 30, 8))
	if err != nil {
		t.Fatal(err)
	}
	existing := m.Network().ID[5]
	n := m.Network().N()
	if _, err := m.ApplyEpoch(context.Background(), []Mutation{{Op: OpJoin, Pos: m.Network().Pos[5], ID: existing}}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if m.Network().N() != n {
		t.Fatal("failed join left node behind")
	}
}

func TestApplyEpochBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := New(newNetwork(t, rng, 80, 9))
	if err != nil {
		t.Fatal(err)
	}
	nw := m.Network()
	muts := []Mutation{
		{Op: OpMove, Node: 2, Pos: geom.Point{X: nw.Pos[2].X + 0.3, Y: nw.Pos[2].Y}},
		{Op: OpOff, Node: 17},
		{Op: OpJoin, Pos: nw.Pos[40], ID: 99_999},
		{Op: OpMove, Node: 8, Pos: geom.Point{X: nw.Pos[8].X, Y: nw.Pos[8].Y - 0.2}},
	}
	rep, err := m.ApplyEpoch(context.Background(), muts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joined) != 1 || rep.Joined[0] != 80 {
		t.Fatalf("Joined = %v", rep.Joined)
	}
	if m.ActiveMask()[17] {
		t.Fatal("node 17 still active")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("post-epoch state invalid: %v", err)
	}
}

func TestApplyEpochCancelRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, err := New(newNetwork(t, rng, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	beforeDoms := m.Dominators()
	beforeN := m.Network().N()
	beforePos := append([]geom.Point(nil), m.Network().Pos...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	muts := []Mutation{
		{Op: OpMove, Node: 1, Pos: geom.Point{X: beforePos[1].X + 1, Y: beforePos[1].Y}},
		{Op: OpJoin, Pos: beforePos[2], ID: 77_777},
	}
	_, err = m.ApplyEpoch(ctx, muts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if m.Network().N() != beforeN {
		t.Fatal("rollback did not remove joined node")
	}
	if !reflect.DeepEqual(m.Network().Pos, beforePos) {
		t.Fatal("rollback did not restore positions")
	}
	if !reflect.DeepEqual(m.Dominators(), beforeDoms) {
		t.Fatal("rollback did not restore dominators")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("post-rollback state invalid: %v", err)
	}
	// The same epoch with a live context must now succeed.
	if _, err := m.ApplyEpoch(context.Background(), muts); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("post-retry state invalid: %v", err)
	}
}

func TestFixpointMatchesIncrementalRepair(t *testing.T) {
	// The locality-limited dirty-set repair must reach the same fixpoint
	// as the from-scratch full sweep started from the same pre-epoch
	// membership on the same post-epoch snapshot.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(newNetwork(t, rng, 70, 8))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 15; step++ {
			preMIS := m.InMIS()
			v := rng.Intn(m.Network().N())
			if !m.ActiveMask()[v] {
				continue
			}
			old := m.Network().Pos[v]
			target := geom.Point{X: old.X + rng.NormFloat64()*0.4, Y: old.Y + rng.NormFloat64()*0.4}
			if _, err := m.MoveNode(context.Background(), v, target); err != nil {
				t.Fatal(err)
			}
			// preMIS indices all exist post-epoch (moves never add nodes).
			want, err := Fixpoint(context.Background(), m.Network().G, m.Network().ID,
				preMIS, m.ActiveMask())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, m.InMIS()) {
				t.Fatalf("seed %d step %d: incremental repair diverged from fixpoint", seed, step)
			}
		}
	}
}

func TestFixpointCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, err := New(newNetwork(t, rng, 40, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fixpoint(ctx, m.Network().G, m.Network().ID, m.InMIS(), m.ActiveMask()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
