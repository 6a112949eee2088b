package session

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wcdsnet/internal/maintain"
	"wcdsnet/internal/simnet"
)

// faultCfg builds a fault-bearing session config: distributed repair under a
// seeded lossy plan through the reliable layer.
func faultCfg(seed int64, drop float64) Config {
	return Config{Repair: maintain.RepairPolicy{
		Distributed: true,
		Faults:      &simnet.FaultPlan{Seed: seed, DropRate: drop, ReorderRate: 0.2, DupRate: 0.05},
		Reliable:    true,
	}}
}

// TestFaultBearingChurnProperty is the PR's acceptance gate: a session whose
// epochs repair distributedly over a lossy simnet (up to 30% drop) through
// the reliable layer completes a 12-epoch seeded churn replay with zero
// Violated epochs, every event carrying a repair report, and every Converged
// epoch's backbone equal to the lossless fixpoint of its pre-epoch state.
func TestFaultBearingChurnProperty(t *testing.T) {
	seedsPerRate := 3
	epochs := 12
	if testing.Short() {
		seedsPerRate, epochs = 1, 6
	}
	for _, drop := range []float64{0.1, 0.3} {
		for seed := int64(1); seed <= int64(seedsPerRate); seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, err := New("fault", newNet(t, rng, 50, 8), faultCfg(seed, drop))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				preMIS := s.Maintainer().InMIS()
				ev, err := s.Apply(context.Background(), RandomEpoch(rng, s))
				if err != nil {
					t.Fatalf("drop=%g seed=%d epoch %d: %v", drop, seed, e, err)
				}
				if ev.Repair == nil {
					t.Fatalf("drop=%g seed=%d epoch %d: event carries no repair report", drop, seed, e)
				}
				if ev.Repair.Outcome == "violated" {
					t.Fatalf("drop=%g seed=%d epoch %d: violated under the reliable layer", drop, seed, e)
				}
				m := s.Maintainer()
				if err := m.Validate(); err != nil {
					t.Fatalf("drop=%g seed=%d epoch %d: invalid backbone served: %v", drop, seed, e, err)
				}
				if ev.Repair.Outcome != "converged" {
					continue
				}
				g := m.Network().G
				for len(preMIS) < g.N() {
					preMIS = append(preMIS, false)
				}
				want, err := maintain.Fixpoint(context.Background(), g, m.Network().ID, preMIS, m.ActiveMask())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, m.InMIS()) {
					t.Fatalf("drop=%g seed=%d epoch %d: converged epoch differs from lossless fixpoint", drop, seed, e)
				}
			}
			s.Close(nil)
		}
	}
}

// TestFaultBearingEscalationRungProperty forces the second rung (a 1-round
// protocol budget exhausts every attempt) across the same churn replay: the
// ladder must serve every epoch through the local fallback, labelled
// degraded, never violated, always valid.
func TestFaultBearingEscalationRungProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := faultCfg(31, 0.3)
	cfg.Repair.MaxRounds = 1
	s, err := New("starved", newNet(t, rng, 50, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	sawDegraded := false
	for e := 0; e < 12; e++ {
		ev, err := s.Apply(context.Background(), RandomEpoch(rng, s))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if ev.Repair == nil {
			t.Fatalf("epoch %d: no repair report", e)
		}
		if ev.Repair.Outcome == "violated" {
			t.Fatalf("epoch %d: local fallback must not violate", e)
		}
		if ev.Repair.Outcome == "degraded" && ev.Repair.Mode == "local" {
			sawDegraded = true
			if ev.Repair.Escalations < 1 {
				t.Fatalf("epoch %d: degraded local epoch reports no escalation", e)
			}
		}
		if err := s.Maintainer().Validate(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if !sawDegraded {
		t.Fatal("starved budget never surfaced a degraded epoch")
	}
}

// TestFaultBearingCancellationNoLeak cancels a fault-bearing session's stream
// while epochs (and their retry ladders) are in flight: the pump and every
// repair goroutine must unwind, the session must survive with a valid
// backbone, and nothing may leak.
func TestFaultBearingCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(17))
	mgr := NewManager(ManagerOptions{SweepInterval: 10 * time.Millisecond})
	s, err := mgr.Open(newNet(t, rng, 50, 8), faultCfg(17, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []Delta, 4)
	out := s.Stream(ctx, in, 4)

	// Pre-generate move-only epochs from the initial positions (the feeder
	// goroutine must not read live maintainer state while the pump applies
	// epochs), then feed until the pump stops taking them; cancel mid-flight
	// after the first event so the cancellation lands inside the repair
	// ladder of a later epoch with high probability.
	nw := s.Maintainer().Network()
	epochs := make([][]Delta, 50)
	for i := range epochs {
		v := rng.Intn(nw.N())
		p := nw.Pos[v]
		epochs[i] = []Delta{{Op: OpMove, Node: &v,
			X: p.X + rng.NormFloat64()*0.4, Y: p.Y + rng.NormFloat64()*0.4}}
	}
	go func() {
		defer close(in)
		for _, e := range epochs {
			select {
			case in <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	first := true
	for res := range out {
		if res.Err != nil && !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, ErrBadDelta) {
			t.Fatalf("stream error: %v", res.Err)
		}
		if first {
			first = false
			cancel()
		}
	}
	cancel()
	if _, ok := mgr.Get(s.ID()); !ok {
		t.Fatal("stream cancellation must not close the session")
	}
	if err := s.Maintainer().Validate(); err != nil {
		t.Fatalf("backbone invalid after cancellation: %v", err)
	}
	mgr.Shutdown(nil)
	waitGoroutines(t, base)
}

// TestRepairReportPlainSession: sessions without a fault-bearing policy still
// label every epoch — local mode, converged — so stream consumers can rely
// on the field unconditionally.
func TestRepairReportPlainSession(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s, err := New("plain", newNet(t, rng, 30, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	ev, err := s.Apply(context.Background(), RandomEpoch(rng, s))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Repair == nil || ev.Repair.Mode != "local" || ev.Repair.Outcome != "converged" {
		t.Fatalf("plain session repair report = %+v", ev.Repair)
	}
}
