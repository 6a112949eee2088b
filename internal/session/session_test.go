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
	"wcdsnet/internal/udg"
)

func newNet(t *testing.T, rng *rand.Rand, n int, deg float64) *udg.Network {
	t.Helper()
	nw, err := udg.GenConnectedAvgDegree(rng, n, deg, 300)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestChurnFixpointEquivalence is the subsystem's correctness gate: for
// random churn traces across size/degree cells, after every epoch the
// incrementally-repaired state must (a) satisfy the maintained WCDS
// invariants and (b) equal the from-scratch repair fixpoint — the full
// sweep of the documented rules started from the same pre-epoch MIS on the
// same post-epoch snapshot. MIS equality implies connector equality since
// connectors are the canonical deterministic selection over the MIS.
func TestChurnFixpointEquivalence(t *testing.T) {
	cells := []struct {
		n   int
		deg float64
	}{{40, 6}, {60, 8}, {90, 10}}
	const seedsPerCell = 7 // 21 seeds total ≥ the 20 the gate requires
	epochs := 12
	if testing.Short() {
		epochs = 5
	}
	for _, cell := range cells {
		for seed := 0; seed < seedsPerCell; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*cell.n + seed)))
			s, err := New("test", newNet(t, rng, cell.n, cell.deg), Config{})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				preMIS := s.Maintainer().InMIS()
				deltas := RandomEpoch(rng, s)
				ev, err := s.Apply(context.Background(), deltas)
				if err != nil {
					t.Fatalf("cell %dx%.0f seed %d epoch %d: %v", cell.n, cell.deg, seed, e, err)
				}
				if ev.Seq != e+1 || ev.Deltas != len(deltas) {
					t.Fatalf("event bookkeeping: %+v", ev)
				}
				m := s.Maintainer()
				if err := m.Validate(); err != nil {
					t.Fatalf("cell %dx%.0f seed %d epoch %d: invalid state: %v", cell.n, cell.deg, seed, e, err)
				}
				// Pad the pre-epoch mask for nodes joined this epoch.
				g := m.Network().G
				for len(preMIS) < g.N() {
					preMIS = append(preMIS, false)
				}
				want, err := maintain.Fixpoint(context.Background(), g, m.Network().ID, preMIS, m.ActiveMask())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, m.InMIS()) {
					t.Fatalf("cell %dx%.0f seed %d epoch %d: incremental repair diverged from from-scratch fixpoint",
						cell.n, cell.deg, seed, e)
				}
			}
			s.Close(nil)
		}
	}
}

func TestApplyBadDeltaRollsBackAndContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := New("t", newNet(t, rng, 30, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	bad := 999
	if _, err := s.Apply(context.Background(), []Delta{{Op: OpMove, Node: &bad}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	v := 0
	p := s.Maintainer().Network().Pos[0]
	ev, err := s.Apply(context.Background(), []Delta{{Op: OpMove, Node: &v, X: p.X + 0.1, Y: p.Y}})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 {
		t.Fatalf("failed epoch consumed a sequence number: seq = %d", ev.Seq)
	}
}

func TestApplyAfterCloseFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, err := New("t", newNet(t, rng, 20, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close(nil)
	if !errors.Is(s.Err(), ErrClosed) {
		t.Fatalf("Err() = %v", s.Err())
	}
	v := 0
	if _, err := s.Apply(context.Background(), []Delta{{Op: OpLeave, Node: &v}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestAutoAssignedJoinIDsAreUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := New("t", newNet(t, rng, 20, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	p := s.Maintainer().Network().Pos[0]
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(context.Background(), []Delta{{Op: OpJoin, X: p.X + 0.01*float64(i+1), Y: p.Y}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for _, id := range s.Maintainer().Network().ID {
		if seen[id] {
			t.Fatalf("duplicate protocol ID %d", id)
		}
		seen[id] = true
	}
}

// waitGoroutines waits for the goroutine count to drop back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

func TestStreamClientDisconnectNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(6))
	mgr := NewManager(ManagerOptions{SweepInterval: 10 * time.Millisecond})
	s, err := mgr.Open(newNet(t, rng, 40, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []Delta, 2)
	out := s.Stream(ctx, in, 2)
	v := 1
	p := s.Maintainer().Network().Pos[v]
	in <- []Delta{{Op: OpMove, Node: &v, X: p.X + 0.05, Y: p.Y}}
	res := <-out
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cancel() // client disconnect: pump must exit without the channel closing
	for range out {
	}
	if _, ok := mgr.Get(s.ID()); !ok {
		t.Fatal("disconnect must not close the session itself")
	}
	mgr.Shutdown(nil)
	waitGoroutines(t, base)
}

func TestTTLExpiryClosesSessionNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(7))
	mgr := NewManager(ManagerOptions{SweepInterval: 5 * time.Millisecond})
	s, err := mgr.Open(newNet(t, rng, 30, 8), Config{TTL: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan []Delta)
	out := s.Stream(context.Background(), in, 1)
	select {
	case <-s.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("TTL never expired")
	}
	if !errors.Is(s.Err(), ErrExpired) {
		t.Fatalf("close cause = %v, want ErrExpired", s.Err())
	}
	for range out { // pump must shut down on expiry
	}
	if mgr.Active() != 0 {
		t.Fatalf("expired session still registered: %d active", mgr.Active())
	}
	mgr.Shutdown(nil)
	waitGoroutines(t, base)
}

func TestIdleEvictionNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(8))
	mgr := NewManager(ManagerOptions{SweepInterval: 5 * time.Millisecond})
	s, err := mgr.Open(newNet(t, rng, 30, 8), Config{IdleTimeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("idle session never evicted")
	}
	if !errors.Is(s.Err(), ErrExpired) {
		t.Fatalf("close cause = %v, want ErrExpired", s.Err())
	}
	mgr.Shutdown(nil)
	waitGoroutines(t, base)
}

func TestManagerDrainCancelsInFlightNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(9))
	mgr := NewManager(ManagerOptions{})
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := mgr.Open(newNet(t, rng, 40, 8), Config{})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		in := make(chan []Delta)
		_ = s.Stream(context.Background(), in, 1) // idle pump blocked on in
	}
	mgr.Shutdown(nil)
	for _, s := range sessions {
		if !errors.Is(s.Err(), ErrDrained) {
			t.Fatalf("close cause = %v, want ErrDrained", s.Err())
		}
	}
	if mgr.Active() != 0 {
		t.Fatal("sessions survived shutdown")
	}
	waitGoroutines(t, base)
}

func TestManagerSessionCap(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	mgr := NewManager(ManagerOptions{MaxSessions: 1})
	defer mgr.Shutdown(nil)
	if _, err := mgr.Open(newNet(t, rng, 20, 8), Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(newNet(t, rng, 20, 8), Config{}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestApplyCancelledMidEpochKeepsSessionUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, err := New("t", newNet(t, rng, 50, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := 2
	p := s.Maintainer().Network().Pos[v]
	if _, err := s.Apply(ctx, []Delta{{Op: OpMove, Node: &v, X: p.X + 0.3, Y: p.Y}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := s.Maintainer().Validate(); err != nil {
		t.Fatalf("state corrupted by cancellation: %v", err)
	}
	if ev, err := s.Apply(context.Background(), []Delta{{Op: OpMove, Node: &v, X: p.X + 0.3, Y: p.Y}}); err != nil || ev.Seq != 1 {
		t.Fatalf("retry failed: ev=%+v err=%v", ev, err)
	}
}

// The manager's janitor can close a session between a Get and a Stream.
// Stream on a closed session must not touch the WaitGroup Close waits on
// (Add racing Wait-at-zero is documented misuse); the caller just sees an
// empty, already-closed result channel.
func TestStreamAfterCloseReturnsClosedChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, err := New("t", newNet(t, rng, 20, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close(nil)
	out := s.Stream(context.Background(), make(chan []Delta), 1)
	select {
	case _, ok := <-out:
		if ok {
			t.Fatal("stream on a closed session delivered a result")
		}
	case <-time.After(time.Second):
		t.Fatal("stream on a closed session did not close its channel")
	}
}
