package simnet

import (
	"math/rand"
	"testing"
)

// countReached counts floodProcs that got the token.
func countReached(procs []Proc) int {
	reached := 0
	for _, p := range procs {
		if p.(*floodProc).reached {
			reached++
		}
	}
	return reached
}

func TestDropRateZeroIsLossless(t *testing.T) {
	g := lineGraph(t, 20)
	procs := floodProcs(20, 0)
	stats, err := RunSync(g, procs, WithDropRate(rand.New(rand.NewSource(1)), 0))
	if err != nil {
		t.Fatal(err)
	}
	if countReached(procs) != 20 {
		t.Error("zero drop rate must behave losslessly")
	}
	if stats.Deliveries != 2*g.M() {
		t.Errorf("deliveries = %d, want %d", stats.Deliveries, 2*g.M())
	}
}

func TestDropRateOneDeliversNothing(t *testing.T) {
	g := lineGraph(t, 10)
	procs := floodProcs(10, 0)
	stats, err := RunSync(g, procs, WithDropRate(rand.New(rand.NewSource(1)), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deliveries != 0 {
		t.Errorf("deliveries = %d, want 0 at drop rate 1", stats.Deliveries)
	}
	if countReached(procs) != 1 {
		t.Errorf("only the origin should hold the token, got %d", countReached(procs))
	}
	// The origin still transmitted.
	if stats.Messages != 1 {
		t.Errorf("messages = %d, want 1", stats.Messages)
	}
}

func TestDropRatePartialLossSync(t *testing.T) {
	// On a line, each hop has a single delivery chance per direction; with
	// heavy loss the flood stalls partway but the engine still terminates
	// cleanly.
	g := lineGraph(t, 50)
	procs := floodProcs(50, 0)
	_, err := RunSync(g, procs, WithDropRate(rand.New(rand.NewSource(7)), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	reached := countReached(procs)
	if reached == 0 || reached == 50 {
		t.Errorf("expected partial coverage under 50%% loss on a line, got %d/50", reached)
	}
}

func TestDropRatePartialLossAsync(t *testing.T) {
	g := lineGraph(t, 50)
	procs := floodProcs(50, 0)
	_, err := EngineAsync.Run(g, procs, WithDropRate(rand.New(rand.NewSource(7)), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if countReached(procs) == 0 {
		t.Error("origin at least must hold the token")
	}
}

func TestDroppedMessagesStillCountAsTransmissions(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: 5},
		&pingPong{peer: 0, bounces: 5},
	}
	stats, err := RunSync(g, procs, WithDropRate(rand.New(rand.NewSource(3)), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Errorf("messages = %d, want 1 (initial send, then silence)", stats.Messages)
	}
	if stats.Deliveries != 0 {
		t.Errorf("deliveries = %d", stats.Deliveries)
	}
}
