package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"wcdsnet/internal/maintain"
	"wcdsnet/internal/simnet"
)

// TestLossyEpochEventsPinned replays a seeded 300-epoch churn trace on a
// 200-node, degree-8 session under three lossy repair policies and pins a
// hash of every event's JSON (wall time zeroed). Any change to the repair
// protocol's rules, beacon order, fault fates or classification moves a
// hash; a change to how fast an epoch runs must not. Every epoch must also
// leave a valid backbone (Maintainer.Validate). It does not skip under
// -short, so the race-enabled churn step runs it too.
func TestLossyEpochEventsPinned(t *testing.T) {
	lossy := func(drop float64, reliable bool, engine simnet.Engine) maintain.RepairPolicy {
		return maintain.RepairPolicy{
			Distributed: true,
			Faults:      &simnet.FaultPlan{Seed: 9, DropRate: drop},
			Reliable:    reliable,
			Engine:      engine,
		}
	}
	for _, tc := range []struct {
		name   string
		policy maintain.RepairPolicy
		want   string
	}{
		{"reliable-sync", lossy(0.1, true, simnet.EngineSync), "28dbc869ee55d158"},
		{"reliable-event", lossy(0.1, true, simnet.EngineEvent), "61525da3394d5c8b"},
		{"unreliable-sync", lossy(0.3, false, simnet.EngineSync), "7acde0097098dd2c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			s, err := New("pinned", newNet(t, rng, 200, 8), Config{Repair: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(nil)
			h := sha256.New()
			escalations := 0
			for e := 0; e < 300; e++ {
				ev, err := s.Apply(context.Background(), RandomEpoch(rng, s))
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if err := s.Maintainer().Validate(); err != nil {
					t.Fatalf("epoch %d: invariants violated: %v", e, err)
				}
				escalations += ev.Repair.Escalations
				ev.ElapsedMicros = 0
				line, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(line, '\n'))
			}
			if !tc.policy.Reliable && escalations == 0 {
				t.Fatal("unreliable run at 30% drop never escalated")
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
				t.Errorf("event hash = %s, want %s (%d escalations)", got, tc.want, escalations)
			}
		})
	}
}
