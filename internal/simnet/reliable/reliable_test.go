package reliable

import (
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// floodProc floods a token; countProc counts per-sender deliveries so tests
// can assert exactly-once semantics through the layer.

type tokenMsg struct{}

type floodProc struct {
	origin  bool
	reached bool
}

func (p *floodProc) Init(ctx *simnet.Context) {
	if p.origin {
		p.reached = true
		ctx.Broadcast(tokenMsg{})
	}
}

func (p *floodProc) Recv(ctx *simnet.Context, from int, payload any) {
	if _, ok := payload.(tokenMsg); !ok {
		return
	}
	if p.reached {
		return
	}
	p.reached = true
	ctx.Broadcast(tokenMsg{})
}

func floodProcs(n, origin int) []simnet.Proc {
	procs := make([]simnet.Proc, n)
	for i := range procs {
		procs[i] = &floodProc{origin: i == origin}
	}
	return procs
}

func reached(procs []simnet.Proc) int {
	count := 0
	for _, p := range procs {
		if p.(*floodProc).reached {
			count++
		}
	}
	return count
}

type countProc struct {
	fromCounts map[int]int
}

func (p *countProc) Init(ctx *simnet.Context) {
	p.fromCounts = make(map[int]int)
	ctx.Broadcast(tokenMsg{})
}

func (p *countProc) Recv(ctx *simnet.Context, from int, payload any) {
	p.fromCounts[from]++
}

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func run(t *testing.T, async bool, g *graph.Graph, procs []simnet.Proc, opts ...simnet.Option) (simnet.Stats, error) {
	t.Helper()
	if async {
		return simnet.EngineAsync.Run(g, procs, opts...)
	}
	return simnet.RunSync(g, procs, opts...)
}

func TestLosslessRunAddsZeroRetransmissions(t *testing.T) {
	const n = 15
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		inner := floodProcs(n, 0)
		wrapped, col := Wrap(inner, Options{})
		st, err := run(t, async, g, wrapped)
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if reached(inner) != n {
			t.Errorf("async=%v: flood did not cover", async)
		}
		s := col.Stats()
		if s.Retransmits != 0 {
			t.Errorf("async=%v: lossless run retransmitted %d frames", async, s.Retransmits)
		}
		if s.DupsSuppressed != 0 || s.Abandoned != 0 {
			t.Errorf("async=%v: lossless run: %+v", async, s)
		}
		// Every data delivery is acked once.
		if s.Acks != 2*g.M() {
			t.Errorf("async=%v: acks = %d, want %d", async, s.Acks, 2*g.M())
		}
		col.MergeInto(&st)
		if st.Retransmits != 0 || st.Acks != s.Acks {
			t.Errorf("async=%v: MergeInto mismatch: %+v", async, st)
		}
	}
}

func TestFloodSurvivesHeavyLoss(t *testing.T) {
	const n = 30
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		inner := floodProcs(n, 0)
		wrapped, col := Wrap(inner, Options{})
		_, err := run(t, async, g, wrapped, simnet.WithFaults(simnet.FaultPlan{Seed: 7, DropRate: 0.3}))
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if got := reached(inner); got != n {
			t.Errorf("async=%v: reached %d/%d under 30%% loss with retransmission", async, got, n)
		}
		s := col.Stats()
		if s.Retransmits == 0 {
			t.Errorf("async=%v: heavy loss produced zero retransmissions", async)
		}
		if s.Abandoned != 0 {
			t.Errorf("async=%v: abandoned %d frames within the default budget", async, s.Abandoned)
		}
	}
}

func TestExactlyOnceDeliveryUnderDuplication(t *testing.T) {
	const n = 6
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		inner := make([]simnet.Proc, n)
		for i := range inner {
			inner[i] = &countProc{}
		}
		wrapped, col := Wrap(inner, Options{})
		_, err := run(t, async, g, wrapped, simnet.WithFaults(simnet.FaultPlan{Seed: 3, DupRate: 1}))
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		// Each node broadcast exactly once; despite every link copy being
		// duplicated, each receiver must see each neighbour's token once.
		for i, p := range inner {
			for from, count := range p.(*countProc).fromCounts {
				if count != 1 {
					t.Errorf("async=%v: node %d saw %d copies from %d", async, i, count, from)
				}
			}
			if len(p.(*countProc).fromCounts) != g.Degree(i) {
				t.Errorf("async=%v: node %d heard %d senders, want %d",
					async, i, len(p.(*countProc).fromCounts), g.Degree(i))
			}
		}
		if s := col.Stats(); s.DupsSuppressed == 0 {
			t.Errorf("async=%v: no duplicates suppressed at dup rate 1", async)
		}
	}
}

func TestRetryBudgetExhaustionIsDetectable(t *testing.T) {
	const n = 5
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		inner := floodProcs(n, 0)
		wrapped, col := Wrap(inner, Options{MaxRetries: 4})
		// Total blackout: nothing is ever delivered, so the origin's frame
		// must be abandoned after its budget and the run must still
		// terminate cleanly.
		_, err := run(t, async, g, wrapped, simnet.WithFaults(simnet.FaultPlan{Seed: 1, DropRate: 1}))
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		s := col.Stats()
		if s.Abandoned == 0 {
			t.Errorf("async=%v: total loss never abandoned a frame", async)
		}
		if s.Retransmits != 4 {
			t.Errorf("async=%v: retransmits = %d, want exactly MaxRetries=4", async, s.Retransmits)
		}
		if got := reached(inner); got != 1 {
			t.Errorf("async=%v: reached = %d, want only the origin", async, got)
		}
	}
}

func TestCrashedNodeRecoversAfterRestart(t *testing.T) {
	const n = 5
	g := lineGraph(t, n)
	inner := floodProcs(n, 0)
	wrapped, col := Wrap(inner, Options{})
	// Node 2 is dark for rounds [0, 12): the flood stalls against it, the
	// reliable layer keeps retrying, and after the restart the token crosses
	// and covers the far side.
	st, err := simnet.RunSync(g, wrapped, simnet.WithCrash(2, 0, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got := reached(inner); got != n {
		t.Errorf("reached = %d/%d after the crashed relay restarted", got, n)
	}
	if s := col.Stats(); s.Retransmits == 0 {
		t.Error("crossing a crash window must cost retransmissions")
	}
	if st.Dropped == 0 {
		t.Error("crash window dropped nothing")
	}
}

func TestMixedTrafficPassesThrough(t *testing.T) {
	// A frame not wrapped in Data/Ack (from a node outside the layer) must
	// reach the inner protocol untouched.
	g := lineGraph(t, 2)
	counter := &countProc{}
	wrapped, _ := Wrap([]simnet.Proc{counter}, Options{})
	procs := []simnet.Proc{wrapped[0], rawSender{}}
	if _, err := simnet.RunSync(g, procs); err != nil {
		t.Fatal(err)
	}
	if counter.fromCounts[1] != 1 {
		t.Errorf("raw frame did not pass through: %v", counter.fromCounts)
	}
}

type rawSender struct{}

func (rawSender) Init(ctx *simnet.Context) { ctx.Send(0, tokenMsg{}) }

func (rawSender) Recv(ctx *simnet.Context, from int, payload any) {}

func TestBackoffScheduleRespected(t *testing.T) {
	// With Backoff(n) = 3 constant and total loss, retransmissions happen on
	// ticks 3 and 6, and the frame is abandoned on the pass after its last
	// backoff expired: exactly 7 tick passes, deterministic under RunSync.
	g := lineGraph(t, 2)
	inner := floodProcs(2, 0)
	wrapped, col := Wrap(inner, Options{
		MaxRetries: 2,
		Backoff:    func(int) int { return 3 },
	})
	st, err := simnet.RunSync(g, wrapped, simnet.WithFaults(simnet.FaultPlan{DropRate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2", s.Retransmits)
	}
	if st.Ticks != 7 {
		t.Errorf("ticks = %d, want 7 under constant backoff 3", st.Ticks)
	}
}

func TestDeterministicUnderSyncEngine(t *testing.T) {
	g := lineGraph(t, 25)
	runOnce := func() (simnet.Stats, Stats) {
		inner := floodProcs(25, 0)
		wrapped, col := Wrap(inner, Options{})
		st, err := simnet.RunSync(g, wrapped, simnet.WithFaults(simnet.FaultPlan{Seed: 11, DropRate: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		return st, col.Stats()
	}
	st1, s1 := runOnce()
	st2, s2 := runOnce()
	if st1 != st2 || s1 != s2 {
		t.Errorf("identical faulty sync runs diverged:\n%+v %+v\n%+v %+v", st1, s1, st2, s2)
	}
}

func TestWrapRandomizedSchedules(t *testing.T) {
	// Scramble + loss + duplication together, several seeds: coverage must
	// hold every time. Run with -race.
	const n = 20
	g := lineGraph(t, n)
	for seed := int64(0); seed < 6; seed++ {
		inner := floodProcs(n, 0)
		wrapped, col := Wrap(inner, Options{})
		_, err := simnet.EngineAsync.Run(g, wrapped,
			simnet.WithScramble(rand.New(rand.NewSource(seed))),
			simnet.WithFaults(simnet.FaultPlan{Seed: seed, DropRate: 0.2, DupRate: 0.2, ReorderRate: 0.2}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := reached(inner); got != n {
			t.Errorf("seed %d: reached %d/%d", seed, got, n)
		}
		if s := col.Stats(); s.Abandoned != 0 {
			t.Errorf("seed %d: abandoned %d frames", seed, s.Abandoned)
		}
	}
}
