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

// burstMsg is frame k of a node's burst.
type burstMsg struct{ k int }

// burstProc broadcasts a burst of frames at Init and records how often each
// (sender, frame) pair reached it.
type burstProc struct {
	frames int
	got    map[[2]int]int
}

func (p *burstProc) Init(ctx *simnet.Context) {
	p.got = make(map[[2]int]int)
	for k := 0; k < p.frames; k++ {
		ctx.Broadcast(burstMsg{k})
	}
}

func (p *burstProc) Recv(ctx *simnet.Context, from int, payload any) {
	p.got[[2]int{from, payload.(burstMsg).k}]++
}

// starGraph is a hub (node 0) joined to every other node, with the leaves
// chained in a path so each leaf has two or three neighbours.
func starGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
		if v+1 < n {
			if err := g.AddEdge(v, v+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestWideBurstUnderLossAndDuplication runs the layer where its dense state
// spans more than one word: the hub's waiting bitset covers 71 neighbour
// slots (two words), and 130 frames per sender carry sequence numbers past
// 127, so every receiver's seen overflow spans two words too. Under 30%
// loss plus duplication every frame must arrive exactly once, the inner
// outcome must equal the lossless run's, and nothing may be abandoned.
func TestWideBurstUnderLossAndDuplication(t *testing.T) {
	const n, frames = 72, 130
	g := starGraph(t, n)
	if g.Degree(0) < 70 {
		t.Fatalf("hub degree %d, want >= 70", g.Degree(0))
	}
	outcome := func(eng simnet.Engine, plan *simnet.FaultPlan) ([]map[[2]int]int, Stats) {
		inner := make([]simnet.Proc, n)
		for i := range inner {
			inner[i] = &burstProc{frames: frames}
		}
		wrapped, col := Wrap(inner, Options{})
		var opts []simnet.Option
		if plan != nil {
			opts = append(opts, simnet.WithFaults(*plan))
		}
		if _, err := eng.Run(g, wrapped, opts...); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		got := make([]map[[2]int]int, n)
		for i, p := range inner {
			got[i] = p.(*burstProc).got
		}
		return got, col.Stats()
	}
	for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineAsync} {
		want, _ := outcome(eng, nil)
		got, s := outcome(eng, &simnet.FaultPlan{Seed: 9, DropRate: 0.3, DupRate: 0.2})
		for v := 0; v < n; v++ {
			if len(got[v]) != g.Degree(v)*frames {
				t.Fatalf("%v: node %d heard %d distinct frames, want %d", eng, v, len(got[v]), g.Degree(v)*frames)
			}
			for key, c := range got[v] {
				if c != 1 {
					t.Fatalf("%v: node %d got frame %v %d times", eng, v, key, c)
				}
				if want[v][key] != 1 {
					t.Fatalf("%v: node %d got frame %v the lossless run did not deliver", eng, v, key)
				}
			}
		}
		if s.Retransmits == 0 || s.DupsSuppressed == 0 || s.Abandoned != 0 {
			t.Errorf("%v: layer counters %+v: want retransmits and suppressed duplicates, no abandonment", eng, s)
		}
	}
}

// TestLateAndDuplicateAcksChangeNothing drives the ack path directly on a
// degree-71 sender: a repeated ack must not count twice, the last ack must
// retire the frame, and acks for a retired or abandoned frame (or a
// sequence never sent) must change nothing and not panic.
func TestLateAndDuplicateAcksChangeNothing(t *testing.T) {
	const deg = 71
	nbrs := make([]int, deg)
	for i := range nbrs {
		nbrs[i] = 10 + 2*i
	}
	wrapped, col := Wrap([]simnet.Proc{&countProc{}}, Options{MaxRetries: 3})
	p := &col.procs[0]
	if wrapped[0] != simnet.Proc(p) {
		t.Fatal("Wrap does not hand out its slab procs")
	}
	p.nbrs, p.seen = nbrs, make([]uint64, deg)
	newFrame := func() *outstanding {
		o := getOutstanding()
		o.to, o.attempts = simnet.ToAll, 1
		o.reset(deg)
		o.waitAll(deg)
		p.bySeq = append(p.bySeq, o)
		return o
	}
	// The Ack branch never touches the context.
	ack := func(from, seq int) { p.Recv(nil, from, Ack{Seq: seq}) }

	acked := newFrame()
	if len(acked.waiting) != 2 || acked.pending != deg {
		t.Fatalf("waiting spans %d words with %d pending, want 2 and %d", len(acked.waiting), acked.pending, deg)
	}
	ack(nbrs[70], 0)
	ack(nbrs[70], 0) // duplicate
	ack(11, 0)       // not a neighbour
	if acked.pending != deg-1 {
		t.Fatalf("pending = %d after one ack, a duplicate and a stranger, want %d", acked.pending, deg-1)
	}
	for _, v := range nbrs[:deg-1] {
		ack(v, 0)
		ack(v, 0)
	}
	if p.bySeq[0] != nil {
		t.Fatal("fully acked frame still live")
	}
	ack(nbrs[3], 0) // late ack for a retired frame
	ack(nbrs[3], 7) // sequence never sent
	ack(nbrs[3], -1)

	given := newFrame()
	given.attempts = 1 + p.opt.MaxRetries // budget spent
	if p.Tick(nil) {                      // abandons frame 1; nothing is due
		t.Fatal("tick reported work left with only an exhausted frame")
	}
	if s := col.Stats(); s.Abandoned != 1 || p.bySeq[1] != nil {
		t.Fatalf("exhausted frame not abandoned: %+v", s)
	}
	ack(nbrs[5], 1) // ack arriving after abandonment
	ack(nbrs[5], 1)
	if s := col.Stats(); s != (Stats{Abandoned: 1}) || p.bySeq[1] != nil {
		t.Errorf("late acks moved the layer: %+v", s)
	}
	if p.Tick(nil) {
		t.Error("tick after abandonment reported work left")
	}
}

// silentProc sends nothing, so a run of it measures the layer's own setup.
type silentProc struct{}

func (silentProc) Init(*simnet.Context)           {}
func (silentProc) Recv(*simnet.Context, int, any) {}

// TestWrapIsConstantPerNode pins the layer's setup cost: Wrap carves every
// wrapper from one slab (a constant number of allocations for 10,000
// nodes), and Init allocates at most two objects per node — the slot-indexed
// seen words and the send hook — with no per-node maps.
func TestWrapIsConstantPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 10000
	procs := make([]simnet.Proc, n)
	for i := range procs {
		procs[i] = silentProc{}
	}
	// Three objects (wrapper table, slab, Collector); the slack of one
	// absorbs the runtime's own occasional allocation during a large one.
	if allocs := testing.AllocsPerRun(5, func() { Wrap(procs, Options{}) }); allocs > 4 {
		t.Errorf("Wrap: %v allocs for %d procs, want a constant <= 4", allocs, n)
	}

	g := lineGraph(t, n)
	bare := testing.AllocsPerRun(3, func() {
		if _, err := simnet.RunSync(g, procs); err != nil {
			t.Fatal(err)
		}
	})
	wrapped := testing.AllocsPerRun(3, func() {
		w, _ := Wrap(procs, Options{})
		if _, err := simnet.RunSync(g, w); err != nil {
			t.Fatal(err)
		}
	})
	// The constant covers Wrap itself and the engine's ticker bookkeeping.
	if extra := wrapped - bare; extra > 2*n+16 {
		t.Errorf("wrapped run: %v allocs over the bare run's %v, want <= 2 per node (%d)", extra, bare, 2*n+16)
	}
}
