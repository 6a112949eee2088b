package wcdsnet

import (
	"context"
	"errors"
	"testing"
)

// One error taxonomy across every engine and outcome: budget blow-outs wrap
// ErrBudgetExceeded on all three engine configurations, and cancellations
// keep context.Canceled visible to errors.Is — never the other way around.
func TestRunErrorTaxonomyUniform(t *testing.T) {
	nw := runTestNetwork(t, 80, 5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	engines := []struct {
		name   string
		opts   []Option
		budget Option
	}{
		// The sync engine's natural budget is the round clock.
		{"sync", []Option{Distributed()}, WithMaxRounds(1)},
		// Plain async runs have no round clock; the delivery budget is the
		// one that catches them.
		{"async", []Option{WithEngine(EngineAsync), WithScheduleSeed(7)}, WithMaxDeliveries(5)},
		// The reliable layer rides the sync engine here; its retransmission
		// epochs consume the same round budget.
		{"reliable", []Option{WithReliable(ReliableOptions{})}, WithMaxRounds(1)},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name+"/budget", func(t *testing.T) {
			opts := append(append([]Option{}, eng.opts...), eng.budget)
			_, _, err := Run(nw, AlgoII, opts...)
			if err == nil {
				t.Fatal("tiny budget converged; cannot exercise the sentinel")
			}
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("budget blow-out does not wrap ErrBudgetExceeded: %v", err)
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget blow-out mislabelled as cancellation: %v", err)
			}
		})
		t.Run(eng.name+"/cancel", func(t *testing.T) {
			opts := append(append([]Option{}, eng.opts...), WithContext(cancelled))
			_, _, err := Run(nw, AlgoII, opts...)
			if err == nil {
				t.Fatal("run under a cancelled context reported success")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation does not wrap context.Canceled: %v", err)
			}
			if errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("cancellation mislabelled as budget exhaustion: %v", err)
			}
		})
	}
}

// WithPhases attributes every transmission to its paper phase, and the
// breakdown reconciles exactly with the engine's own message counter.
func TestRunWithPhases(t *testing.T) {
	nw := runTestNetwork(t, 60, 11)

	checkPhases := func(t *testing.T, st RunStats, want ...string) {
		t.Helper()
		if len(st.Phases) == 0 {
			t.Fatal("WithPhases produced no phase spans")
		}
		total := 0
		names := map[string]bool{}
		for _, sp := range st.Phases {
			total += sp.Messages
			names[sp.Name] = true
		}
		if total != st.Messages {
			t.Fatalf("phase messages sum to %d, stats report %d", total, st.Messages)
		}
		for _, name := range want {
			if !names[name] {
				t.Errorf("phase %q missing from breakdown %v", name, names)
			}
		}
	}

	_, st2, err := Run(nw, AlgoII, WithPhases())
	if err != nil {
		t.Fatalf("AlgoII: %v", err)
	}
	checkPhases(t, st2, "mis", "recruit")

	_, st1, err := Run(nw, AlgoI, WithPhases())
	if err != nil {
		t.Fatalf("AlgoI: %v", err)
	}
	checkPhases(t, st1, "election", "levels", "mis")

	// Under the reliable layer the ack overhead appears as its own phase.
	_, str, err := Run(nw, AlgoII, WithPhases(), WithReliable(ReliableOptions{}))
	if err != nil {
		t.Fatalf("reliable AlgoII: %v", err)
	}
	checkPhases(t, str, "mis", "recruit", "reliable")

	// Without WithPhases the breakdown stays nil — the zero-cost default.
	_, plain, err := Run(nw, AlgoII, Distributed())
	if err != nil {
		t.Fatalf("plain distributed: %v", err)
	}
	if plain.Phases != nil {
		t.Fatalf("plain run collected phases: %v", plain.Phases)
	}
}
