package wcds

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// The paper's protocols assume reliable local broadcast. These tests inject
// message loss and assert the failure is DETECTABLE: either the runner
// reports undecided nodes, or — if by luck every lost message was
// redundant — the result is still a correct WCDS. A silent wrong answer is
// the only unacceptable outcome.

func TestAlgo2UnderMessageLossFailsDetectably(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	detected, lucky := 0, 0
	for trial := 0; trial < 20; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 60, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		runner := EngineRunner(simnet.EngineSync, simnet.WithDropRate(rand.New(rand.NewSource(int64(trial))), 0.3))
		res, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, runner)
		if err != nil {
			detected++
			continue
		}
		// The engine quiesced with every node decided; the result must
		// then be internally consistent even though connectors may be
		// missing (SELECTION messages can be lost after the MIS formed).
		if !mis.IsIndependent(nw.G, res.MISDominators) {
			t.Fatalf("trial %d: silent corruption: dependent MIS %v", trial, res.MISDominators)
		}
		lucky++
	}
	if detected == 0 {
		t.Error("30% loss never produced a detectable failure across 20 trials; injection suspect")
	}
	t.Logf("loss outcomes: %d detected failures, %d lucky completions", detected, lucky)
}

func TestAlgo1UnderMessageLossFailsDetectably(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	detected := 0
	for trial := 0; trial < 10; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 50, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		runner := EngineRunner(simnet.EngineSync, simnet.WithDropRate(rand.New(rand.NewSource(int64(trial))), 0.3))
		res, _, err := Algo1Distributed(nw.G, nw.ID, runner)
		if err != nil {
			detected++
			continue
		}
		if !mis.IsIndependent(nw.G, res.Dominators) {
			t.Fatalf("trial %d: silent corruption of the MIS", trial)
		}
	}
	if detected == 0 {
		t.Error("Algorithm I never detectably failed under 30% loss; the election should stall")
	}
	t.Logf("Algorithm I: %d/10 runs detectably failed under loss", detected)
}

func TestAlgo2LowLossOftenStillCorrect(t *testing.T) {
	// At very low loss rates most runs either fail detectably or produce
	// the exact canonical result — spot-check the latter path.
	rng := rand.New(rand.NewSource(3))
	exact := 0
	for trial := 0; trial < 20; trial++ {
		nw, err := udg.GenConnectedAvgDegree(rng, 40, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		runner := EngineRunner(simnet.EngineSync, simnet.WithDropRate(rand.New(rand.NewSource(int64(trial))), 0.005))
		res, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, runner)
		if err != nil {
			continue
		}
		want := Algo2Centralized(nw.G, nw.ID)
		if equalInts(res.MISDominators, want.MISDominators) &&
			equalInts(res.AdditionalDominators, want.AdditionalDominators) {
			exact++
		}
	}
	if exact == 0 {
		t.Error("0.5% loss never allowed an exact completion across 20 trials")
	}
	t.Logf("low loss: %d/20 runs completed with the exact canonical result", exact)
}
