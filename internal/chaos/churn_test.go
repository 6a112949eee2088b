package chaos

import (
	"strings"
	"testing"

	"wcdsnet/internal/simnet"
)

// A small reliable churn sweep must be entirely clean: no violated epochs,
// and every converged label independently re-verified against the lossless
// fixpoint by the audit.
func TestChurnSweepReliableIsClean(t *testing.T) {
	rep, err := RunChurn(ChurnConfig{
		Seeds:     2,
		BaseSeed:  1,
		N:         40,
		AvgDegree: 8,
		Epochs:    8,
		DropRates: []float64{0.1, 0.3},
		Reliable:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("reliable churn sweep failed: %s", rep.Summary())
	}
	if rep.Epochs != 2*2*8 {
		t.Errorf("epochs = %d, want %d", rep.Epochs, 2*2*8)
	}
	if rep.Converged+rep.Degraded != rep.Epochs {
		t.Errorf("outcome partition broken: %s", rep.Summary())
	}
	for _, c := range rep.Cells {
		if c.Detail != "" {
			t.Errorf("clean cell carries detail %q", c.Detail)
		}
	}
}

// The async engine path through the same sweep must also be clean.
func TestChurnSweepAsyncReliable(t *testing.T) {
	rep, err := RunChurn(ChurnConfig{
		Seeds:     2,
		BaseSeed:  5,
		N:         40,
		AvgDegree: 8,
		Epochs:    6,
		DropRates: []float64{0.2},
		Reliable:  true,
		Engine:    simnet.EngineAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("async churn sweep failed: %s", rep.Summary())
	}
}

// A starved per-attempt budget forces the escalation ladder's local
// fallback: the sweep must stay violation-free (degraded epochs are honest,
// not violations) and report the escalations it cost.
func TestChurnSweepStarvedBudgetDegradesNotViolates(t *testing.T) {
	rep, err := RunChurn(ChurnConfig{
		Seeds:     2,
		BaseSeed:  9,
		N:         40,
		AvgDegree: 8,
		Epochs:    6,
		DropRates: []float64{0.3},
		Reliable:  true,
		MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("starved sweep produced violations: %s", rep.Summary())
	}
	if rep.Degraded == 0 {
		t.Fatal("starved sweep reported no degraded epochs")
	}
	esc := 0
	for _, c := range rep.Cells {
		esc += c.Escalations
	}
	if esc == 0 {
		t.Error("starved sweep reported no escalations")
	}
}

func TestChurnSummaryMentionsViolations(t *testing.T) {
	rep := &ChurnReport{Cells: make([]ChurnCell, 3), Epochs: 9, Converged: 8, Violations: 1}
	if s := rep.Summary(); !strings.Contains(s, "1 VIOLATIONS") {
		t.Errorf("summary %q", s)
	}
	if !rep.Failed() {
		t.Error("report with violations must fail")
	}
}
