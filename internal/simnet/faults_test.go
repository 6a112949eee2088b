package simnet

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// mustCompile compiles plan for n nodes, failing the test on error.
func mustCompile(t *testing.T, plan FaultPlan, n int) *faultState {
	t.Helper()
	f, err := compileFaults(&plan, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A node's fault stream depends on (seed, v) alone: compiling the same plan
// for a larger network leaves every existing node's draws unchanged.
func TestFaultStreamsIndependentOfNetworkSize(t *testing.T) {
	plan := FaultPlan{Seed: 0x5eed, DropRate: 0.15}
	small, large := mustCompile(t, plan, 50), mustCompile(t, plan, 500)
	for v := 0; v < 50; v++ {
		for k := 0; k < 1000; k++ {
			a, b := small.streams[v].Uint64(), large.streams[v].Uint64()
			if a != b {
				t.Fatalf("node %d draw %d: %#x at n=50, %#x at n=500", v, k, a, b)
			}
		}
	}
}

func TestDropFractionWithinFiveSigma(t *testing.T) {
	const draws, rate = 100_000, 0.15
	f := mustCompile(t, FaultPlan{Seed: 42, DropRate: rate}, 8)
	sigma := math.Sqrt(rate * (1 - rate) / draws)
	for v := 0; v < 8; v++ {
		drops := 0
		for k := 0; k < draws; k++ {
			if f.dropSample(v) {
				drops++
			}
		}
		if got := float64(drops) / draws; math.Abs(got-rate) > 5*sigma {
			t.Errorf("sender %d: drop fraction %.5f, want %.2f ± %.5f", v, got, rate, 5*sigma)
		}
	}
}

func TestDelayDrawsCoverTheirWindow(t *testing.T) {
	for _, w := range []struct{ min, max int }{
		{3, 9}, {0, 1}, {5, 5}, {math.MaxInt - 3, math.MaxInt},
	} {
		f := mustCompile(t, FaultPlan{Seed: 9, DelayMin: w.min, DelayMax: w.max}, 1)
		seen := make(map[int]bool)
		for k := 0; k < 2000; k++ {
			d := f.delaySample(0)
			if d < w.min || d > w.max {
				t.Fatalf("window [%d, %d]: drew %d", w.min, w.max, d)
			}
			seen[d] = true
		}
		if len(seen) != w.max-w.min+1 {
			t.Errorf("window [%d, %d]: %d of %d values drawn", w.min, w.max, len(seen), w.max-w.min+1)
		}
	}

	// Windows too wide to enumerate: every draw stays inside, and both
	// halves of the window are reached. [0, MaxInt] is 2^63 values wide,
	// one more than an int holds.
	for _, w := range []struct{ min, max int }{{0, math.MaxInt}, {1, math.MaxInt}} {
		f := mustCompile(t, FaultPlan{Seed: 9, DelayMin: w.min, DelayMax: w.max}, 1)
		low, high := false, false
		for k := 0; k < 2000; k++ {
			d := f.delaySample(0)
			if d < w.min || d > w.max {
				t.Fatalf("window [%d, %d]: drew %d", w.min, w.max, d)
			}
			if d <= math.MaxInt/2 {
				low = true
			} else {
				high = true
			}
		}
		if !low || !high {
			t.Errorf("window [%d, %d]: draws reached low half %v, high half %v", w.min, w.max, low, high)
		}
	}
}

func TestFaultDrawsDoNotAllocate(t *testing.T) {
	f := mustCompile(t, FaultPlan{Seed: 1, DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.3, DelayMin: 1, DelayMax: 6}, 4)
	allocs := testing.AllocsPerRun(100, func() {
		f.dropSample(1)
		f.dupSample(2)
		f.reorderSample(3)
		f.delaySample(0)
	})
	if allocs != 0 {
		t.Errorf("fault draws allocate %.1f times per round", allocs)
	}
}

// Compiling a drop-only plan costs the faultState and one contiguous stream
// slice, whatever the network size.
func TestCompileFaultsIsConstantPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n, runs = 100_000, 5
	plan := FaultPlan{Seed: 7, DropRate: 0.15}
	// A collection cycle mid-measurement counts the runtime's own mallocs
	// against the run; the five runs allocate about 8 MB, so hold GC off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := compileFaults(&plan, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("compileFaults allocates %.1f times, want at most 2", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := compileFaults(&plan, n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perNode := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n); perNode > 32 {
		t.Errorf("compileFaults allocates %.1f B per node, want at most 32", perNode)
	}
}
