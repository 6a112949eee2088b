package wcdsnet

import (
	"context"
	"errors"
	"testing"
)

func runTestNetwork(t *testing.T, n int, seed int64) *Network {
	t.Helper()
	nw, err := GenerateNetwork(seed, n, 6)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	return nw
}

// mustRun is Run for tests that expect success.
func mustRun(t *testing.T, nw *Network, a Algorithm, opts ...Option) (Result, RunStats) {
	t.Helper()
	res, st, err := Run(nw, a, opts...)
	if err != nil {
		t.Fatalf("Run(%v): %v", a, err)
	}
	return res, st
}

func TestRunValidation(t *testing.T) {
	nw := runTestNetwork(t, 30, 3)
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil network", func() error { _, _, err := Run(nil, AlgoII); return err }},
		{"unknown algorithm", func() error { _, _, err := Run(nw, Algorithm(9)); return err }},
		{"negative budget", func() error { _, _, err := Run(nw, AlgoII, WithMaxRounds(-1)); return err }},
		{"centralized eager", func() error { _, _, err := Run(nw, AlgoII, WithSelection(Eager)); return err }},
		{"bad fault plan", func() error {
			_, _, err := Run(nw, AlgoII, WithFaults(FaultPlan{DropRate: 2}))
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: error does not wrap ErrInvalidInput: %v", c.name, err)
		}
	}
}

func TestRunBudgetExceededSentinel(t *testing.T) {
	nw := runTestNetwork(t, 80, 5)
	_, _, err := Run(nw, AlgoII, WithMaxRounds(1))
	if err == nil {
		t.Fatal("one-round budget converged; cannot exercise the sentinel")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget blow-out does not wrap ErrBudgetExceeded: %v", err)
	}
	if errors.Is(err, ErrInvalidInput) {
		t.Fatalf("budget blow-out mislabelled as invalid input: %v", err)
	}
}

func TestRunBatchFacade(t *testing.T) {
	spec := &BatchSpec{
		Sizes:   []int{30},
		Degrees: []float64{6},
		Seeds:   []int64{1, 2},
		Workloads: []BatchWorkload{
			{Kind: "backbone", Algorithm: "II"},
		},
	}
	rep, err := RunBatch(context.Background(), spec, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if rep.Scenarios != 2 || rep.Failed != 0 {
		t.Fatalf("report: %d scenarios, %d failed", rep.Scenarios, rep.Failed)
	}
	one, err := RunBatch(context.Background(), spec, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatalf("RunBatch(1): %v", err)
	}
	if rep.Digest() != one.Digest() {
		t.Fatal("1-worker and 2-worker digests differ")
	}

	if _, err := RunBatch(context.Background(), &BatchSpec{}, BatchOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty spec not rejected as invalid input: %v", err)
	}
}
