package wcdsnet

import (
	"reflect"
	"testing"
)

// The tentpole acceptance property: the event-driven single-scheduler
// engine is EXACT. Across seeds × selection modes × drop rates × reliable
// on/off, a Deferred-mode Algorithm II run on the event engine produces the
// identical WCDS fixpoint as the synchronous reference engine and the async
// engine (the event engine under a per-link seeded scramble) — Deferred
// selection is
// schedule-independent, so equality (not just validity) is the invariant.
// Eager mode is schedule-dependent by design; those cells assert validity.
// Runs under -race in CI.
func TestEventEngineEquivalenceProperty(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	engines := []Engine{EngineSync, EngineAsync, EngineEvent}
	for seed := int64(0); seed < int64(seeds); seed++ {
		nw := runTestNetwork(t, 50, 100+seed)
		want, _, err := Run(nw, AlgoII) // centralized = lossless fixpoint
		if err != nil {
			t.Fatal(err)
		}

		// Lossless cells: every engine, scrambled and native schedules.
		for _, eng := range engines {
			for _, scramble := range []bool{false, true} {
				opts := []Option{WithEngine(eng)}
				if scramble {
					opts = append(opts, WithScheduleSeed(seed*31+7))
				}
				res, st, err := Run(nw, AlgoII, opts...)
				if err != nil {
					t.Fatalf("seed %d %v scramble=%v: %v", seed, eng, scramble, err)
				}
				if !reflect.DeepEqual(res.Dominators, want.Dominators) {
					t.Fatalf("seed %d %v scramble=%v: dominators diverged from fixpoint",
						seed, eng, scramble)
				}
				if st.Messages == 0 {
					t.Fatalf("seed %d %v: distributed run sent nothing", seed, eng)
				}
			}

			// Eager is schedule-dependent: assert structural validity only.
			res, _, err := Run(nw, AlgoII, WithEngine(eng), WithSelection(Eager))
			if err != nil {
				t.Fatalf("seed %d %v eager: %v", seed, eng, err)
			}
			if !IsWCDS(nw, res.Dominators) {
				t.Fatalf("seed %d %v eager: invalid WCDS", seed, eng)
			}
		}

		// Faulty cells: drop rates with and without the reliable layer.
		// Reliable runs must converge to the exact fixpoint; unreliable
		// lossy runs are expected to diverge or fail and are not asserted.
		for _, rate := range []float64{0.1, 0.3} {
			plan := FaultPlan{Seed: seed, DropRate: rate}
			for _, eng := range engines {
				res, st, err := Run(nw, AlgoII, WithEngine(eng),
					WithFaults(plan), WithReliable(ReliableOptions{}), WithMaxRounds(20000))
				if err != nil {
					t.Fatalf("seed %d %v drop=%v reliable: %v", seed, eng, rate, err)
				}
				if !reflect.DeepEqual(res.Dominators, want.Dominators) {
					t.Fatalf("seed %d %v drop=%v reliable: diverged from fixpoint", seed, eng, rate)
				}
				if st.Retransmits == 0 {
					t.Fatalf("seed %d %v drop=%v: lossy run reports zero retransmissions", seed, eng, rate)
				}
			}
		}

		// Algorithm I: the spanning-tree ranking is schedule-dependent under
		// the asynchronous model, so the async/event cells assert the
		// paper's structural guarantee (Theorems 4, 5, 8 hold for any
		// spanning tree) rather than equality.
		for _, eng := range engines {
			res, _, err := Run(nw, AlgoI, WithEngine(eng))
			if err != nil {
				t.Fatalf("seed %d AlgoI %v: %v", seed, eng, err)
			}
			if !IsWCDS(nw, res.Dominators) {
				t.Fatalf("seed %d AlgoI %v: invalid WCDS", seed, eng)
			}
		}
	}
}
