package simnet

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// On a line flooded from one end, the token needs exactly n-1 causal hops to
// reach the far end: the Lamport estimate must report that depth even though
// the async engine has no global rounds.
func TestAsyncLamportRoundEstimateFloodLine(t *testing.T) {
	const n = 12
	g := lineGraph(t, n)
	stats, err := EngineAsync.Run(g, floodProcs(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 {
		t.Errorf("async Rounds = %d, must stay 0 (digest safety)", stats.Rounds)
	}
	// Init broadcasts carry stamp 1; each hop deepens the chain by one, and
	// the far end's own rebroadcast bounces a stamp back one hop — the same
	// eccentricity+1 the sync engine counts as Rounds on this flood.
	if stats.RoundEstimate != n {
		t.Errorf("RoundEstimate = %d, want %d", stats.RoundEstimate, n)
	}
}

// The sync engine's estimate is just its round counter, so the two engines
// agree on causally-identical executions.
func TestSyncRoundEstimateEqualsRounds(t *testing.T) {
	g := lineGraph(t, 10)
	stats, err := RunSync(g, floodProcs(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RoundEstimate != stats.Rounds {
		t.Errorf("sync RoundEstimate = %d, Rounds = %d", stats.RoundEstimate, stats.Rounds)
	}
}

// Scrambled delivery reorders messages but cannot shorten causal chains: the
// estimate stays at least the flood eccentricity.
func TestAsyncLamportEstimateUnderScramble(t *testing.T) {
	const n = 15
	g := lineGraph(t, n)
	for seed := int64(0); seed < 5; seed++ {
		stats, err := EngineAsync.Run(g, floodProcs(n, 0), WithScramble(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		if stats.RoundEstimate < n-1 {
			t.Errorf("seed %d: RoundEstimate = %d < eccentricity %d", seed, stats.RoundEstimate, n-1)
		}
	}
}

// A budget-exhaustion error from the async engine must carry the logical
// round estimate so the operator can see how deep the run got.
func TestAsyncBudgetErrorCarriesEstimate(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: -1},
		&pingPong{peer: 0, bounces: -1},
	}
	_, err := EngineAsync.Run(g, procs, WithMaxDeliveries(100))
	if !errors.Is(err, ErrMaxDeliveries) {
		t.Fatalf("err = %v, want ErrMaxDeliveries", err)
	}
	if !strings.Contains(err.Error(), "logical round estimate") {
		t.Errorf("budget error lacks the round estimate: %v", err)
	}
}
