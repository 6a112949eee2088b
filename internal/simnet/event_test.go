package simnet

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestEngineEnum(t *testing.T) {
	cases := []struct {
		eng   Engine
		name  string
		valid bool
	}{
		{EngineSync, "sync", true},
		{EngineAsync, "async", true},
		{EngineEvent, "event", true},
		{Engine(7), "Engine(7)", false},
	}
	for _, c := range cases {
		if got := c.eng.String(); got != c.name {
			t.Errorf("Engine(%d).String() = %q, want %q", int(c.eng), got, c.name)
		}
		if got := c.eng.Valid(); got != c.valid {
			t.Errorf("Engine(%d).Valid() = %v, want %v", int(c.eng), got, c.valid)
		}
	}
}

// Engine.Run must dispatch to the matching engine: the sync engine reports
// a round clock, the async-model engines report Rounds == 0 with a Lamport
// RoundEstimate instead.
func TestEngineRunDispatch(t *testing.T) {
	const n = 8
	for _, eng := range []Engine{EngineSync, EngineAsync, EngineEvent} {
		g := lineGraph(t, n)
		procs := floodProcs(n, 0)
		stats, err := eng.Run(g, procs)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if countReached(procs) != n {
			t.Errorf("%v: flood did not cover the line", eng)
		}
		if eng == EngineSync && stats.Rounds == 0 {
			t.Errorf("sync dispatch lost the round clock: %+v", stats)
		}
		if eng != EngineSync && stats.Rounds != 0 {
			t.Errorf("%v: Rounds = %d, want 0 (async model)", eng, stats.Rounds)
		}
	}
}

func TestRunEventFloodLine(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	stats, err := RunEvent(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if !p.(*floodProc).reached {
			t.Errorf("node %d not reached", i)
		}
	}
	// Every node broadcasts exactly once; every link carries a copy in each
	// direction.
	if stats.Messages != n {
		t.Errorf("Messages = %d, want %d", stats.Messages, n)
	}
	if stats.Deliveries != 2*g.M() {
		t.Errorf("Deliveries = %d, want %d", stats.Deliveries, 2*g.M())
	}
	if stats.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0 (no synchronous round clock)", stats.Rounds)
	}
	// The token's causal chain spans the line, so the Lamport estimate is at
	// least the graph diameter.
	if stats.RoundEstimate < n-1 {
		t.Errorf("RoundEstimate = %d, want >= %d", stats.RoundEstimate, n-1)
	}
}

// RunEvent's schedule is fully deterministic: repeated runs with equal
// inputs must produce identical Stats, INCLUDING RoundEstimate —
// with and without scramble, and under a probabilistic fault plan.
func TestRunEventDeterministicStats(t *testing.T) {
	const n = 30
	g := lineGraph(t, n)
	variants := []struct {
		name string
		opts func() []Option
	}{
		{"fifo", func() []Option { return nil }},
		{"scrambled", func() []Option {
			return []Option{WithScramble(rand.New(rand.NewSource(7)))}
		}},
		{"faulty", func() []Option {
			return []Option{WithFaults(FaultPlan{Seed: 11, DropRate: 0.2, DupRate: 0.2, ReorderRate: 0.3, DelayMax: 2})}
		}},
	}
	for _, v := range variants {
		run := func() Stats {
			procs := floodProcs(n, 0)
			st, err := RunEvent(g, procs, v.opts()...)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			return st
		}
		want := run()
		if want.Messages == 0 {
			t.Fatalf("%s: degenerate run: %+v", v.name, want)
		}
		for i := 0; i < 5; i++ {
			if got := run(); got != want {
				t.Fatalf("%s: run %d stats %+v differ from %+v", v.name, i, got, want)
			}
		}
	}
}

func TestRunEventPingPong(t *testing.T) {
	const bounces = 5
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: bounces},
		&pingPong{peer: 0, bounces: bounces},
	}
	stats, err := RunEvent(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != bounces+1 || stats.Deliveries != bounces+1 {
		t.Errorf("Messages/Deliveries = %d/%d, want %d/%d",
			stats.Messages, stats.Deliveries, bounces+1, bounces+1)
	}
	// A strictly sequential exchange: the Lamport estimate counts every hop.
	if stats.RoundEstimate != bounces+1 {
		t.Errorf("RoundEstimate = %d, want %d", stats.RoundEstimate, bounces+1)
	}
}

// The event engine's quiescence semantics match the sync engine's:
// a ticker reporting pending work gets pendingFor+1 passes (the last one
// silent), an idle network terminates after exactly one pass.
func TestRunEventTickerQuiescence(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{&countdownTicker{pendingFor: 3}, idleProc{}}
	stats, err := RunEvent(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	if got := procs[0].(*countdownTicker).ticks; got != 4 {
		t.Errorf("node ticked %d times, want 4", got)
	}
	if stats.Ticks != 4 {
		t.Errorf("stats.Ticks = %d, want 4", stats.Ticks)
	}

	procs = []Proc{&countdownTicker{}, idleProc{}}
	stats, err = RunEvent(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ticks != 1 {
		t.Errorf("idle network: stats.Ticks = %d, want exactly one silent pass", stats.Ticks)
	}
}

// Budget errors carry the logical-round-estimate annotation.
func TestRunEventBudgetErrorsAnnotated(t *testing.T) {
	g := lineGraph(t, 2)

	_, err := RunEvent(g, []Proc{&stubbornTicker{}, &stubbornTicker{}}, WithMaxRounds(10))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("stubborn ticker: err = %v, want ErrMaxRounds", err)
	}
	if !strings.Contains(err.Error(), "logical round estimate") {
		t.Errorf("ErrMaxRounds not annotated: %v", err)
	}

	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: -1},
		&pingPong{peer: 0, bounces: -1},
	}
	_, err = RunEvent(g, procs, WithMaxDeliveries(100))
	if !errors.Is(err, ErrMaxDeliveries) {
		t.Fatalf("endless ping-pong: err = %v, want ErrMaxDeliveries", err)
	}
	if !strings.Contains(err.Error(), "logical round estimate") {
		t.Errorf("ErrMaxDeliveries not annotated: %v", err)
	}
}

// Per-sender fault streams depend only on (seed, sender, k-th send), and a
// flood transmits at most once per node in adjacency order, so a drop-only
// plan produces the IDENTICAL drop pattern under the event engine as under
// the sync engine (extending TestDropDeterministicAcrossEnginesAndRuns).
func TestRunEventDropMatchesSync(t *testing.T) {
	const n = 40
	g := lineGraph(t, n)
	reach := func(eng Engine) (int, int) {
		procs := floodProcs(n, 0)
		stats, err := eng.Run(g, procs, WithFaults(FaultPlan{Seed: 5, DropRate: 0.3}))
		if err != nil {
			t.Fatal(err)
		}
		return countReached(procs), stats.Dropped
	}
	sr, sd := reach(EngineSync)
	if sd == 0 {
		t.Fatal("30% drop never fired; injection suspect")
	}
	if er, ed := reach(EngineEvent); er != sr || ed != sd {
		t.Errorf("event run diverged from sync: reached %d/%d, dropped %d/%d", er, sr, ed, sd)
	}
}

func TestRunEventDuplicationCountedAndHarmless(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	stats, err := RunEvent(g, procs, WithFaults(FaultPlan{Seed: 2, DupRate: 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if countReached(procs) != n {
		t.Error("duplication must not lose coverage")
	}
	if stats.Duplicated != 2*g.M() {
		t.Errorf("Duplicated = %d, want %d", stats.Duplicated, 2*g.M())
	}
	if stats.Deliveries != 4*g.M() {
		t.Errorf("Deliveries = %d, want %d (each link copy twice)", stats.Deliveries, 4*g.M())
	}
}

// Delay and reorder requeue copies at random positions; neither may lose
// coverage, and requeued copies must not redraw their fault fate (a redraw
// under a high drop rate would eventually discard every scattered copy).
func TestRunEventDelayReorderKeepCoverage(t *testing.T) {
	const n = 20
	g := lineGraph(t, n)
	for _, plan := range []FaultPlan{
		{Seed: 3, ReorderRate: 0.5},
		{Seed: 4, DelayMin: 1, DelayMax: 3},
		{Seed: 9, DelayMax: 2, ReorderRate: 0.5, DropRate: 0.0},
	} {
		procs := floodProcs(n, 0)
		if _, err := RunEvent(g, procs, WithFaults(plan)); err != nil {
			t.Fatalf("%+v: %v", plan, err)
		}
		if countReached(procs) != n {
			t.Errorf("%+v: lost coverage", plan)
		}
	}
}

func TestRunEventCrashBlocksFlood(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	stats, err := RunEvent(g, procs, WithFaults(FaultPlan{Crashes: []CrashWindow{{Node: 5}}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := countReached(procs); got != 5 {
		t.Errorf("reached = %d, want 5 (nodes 0..4)", got)
	}
	if stats.Dropped == 0 {
		t.Error("crash produced no dropped deliveries")
	}
}

// TestEventEngineSteadyStateAllocs pins the drain loop's allocation profile:
// a full RunEvent costs a small constant number of allocations (config,
// engine, SoA clocks, contexts — the queue's backing array comes from the
// shared pool), and that constant does NOT grow with the node or delivery
// count. This is the property that makes million-node runs feasible.
func TestEventEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short stacking")
	}
	measure := func(n int) float64 {
		g := lineGraph(t, n)
		procs := floodProcs(n, 0)
		reset := func() {
			for i, p := range procs {
				fp := p.(*floodProc)
				fp.reached = false
				fp.origin = i == 0
			}
		}
		// Warm the envelope pool so the measured runs recycle capacity.
		if _, err := RunEvent(g, procs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			reset()
			if _, err := RunEvent(g, procs); err != nil {
				t.Error(err)
			}
		})
	}
	small := measure(64)
	large := measure(1024)
	// The absolute pin: a handful of per-run setup allocations. The payload
	// (tokenMsg{}) is zero-sized, so even interface boxing is free.
	const maxPerRun = 16
	if small > maxPerRun || large > maxPerRun {
		t.Errorf("allocs per run: n=64 %.1f, n=1024 %.1f, want <= %d", small, large, maxPerRun)
	}
	// The scaling pin: 16x the nodes (and deliveries) must not add
	// per-delivery allocations. Allow slack for pool misses under GC.
	if large > small+4 {
		t.Errorf("allocs scale with size: n=64 %.1f vs n=1024 %.1f", small, large)
	}
}

// pushAt must be an O(1) placement: the new entry takes slot i, the entry
// that held it moves to the tail, and every other pending entry stays put.
func TestEventQueuePushAtMovesOneEntry(t *testing.T) {
	const n = 6
	for i := 0; i <= n; i++ {
		q := eventQueue{}
		q.push(envelope{from: -1}) // popped below, so head is non-zero
		for k := 0; k < n; k++ {
			q.push(envelope{from: k})
		}
		q.pop()
		q.pushAt(i, envelope{from: 99})

		want := make([]int, 0, n+1)
		for k := 0; k < n; k++ {
			want = append(want, k)
		}
		if i < n {
			want[i] = 99
			want = append(want, i)
		} else {
			want = append(want, 99)
		}
		got := make([]int, 0, n+1)
		for q.len() > 0 {
			env, _ := q.pop()
			got = append(got, env.from)
		}
		if !slices.Equal(got, want) {
			t.Errorf("pushAt(%d): queue %v, want %v", i, got, want)
		}
	}
}

// orderRecorder logs the senders of the broadcasts it receives, in order.
type orderRecorder struct {
	sender bool
	heard  []int
}

func (p *orderRecorder) Init(ctx *Context) {
	if p.sender {
		ctx.Broadcast(tokenMsg{})
	}
}

func (p *orderRecorder) Recv(ctx *Context, from int, payload any) {
	p.heard = append(p.heard, from)
}

// Under a scramble each link's copy of a broadcast is placed on its own, so
// two receivers of the same two broadcasts can hear them in opposite
// orders. A scramble that moved whole transmissions never could: both
// receivers would see the same order on every seed.
func TestScramblePerLinkInterleaving(t *testing.T) {
	g := ringGraph(4) // senders 0 and 2 share receivers 1 and 3
	opposite := 0
	for seed := int64(0); seed < 64; seed++ {
		procs := []Proc{&orderRecorder{sender: true}, &orderRecorder{}, &orderRecorder{sender: true}, &orderRecorder{}}
		if _, err := RunEvent(g, procs, WithScramble(rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatal(err)
		}
		a, b := procs[1].(*orderRecorder).heard, procs[3].(*orderRecorder).heard
		if len(a) != 2 || len(b) != 2 {
			t.Fatalf("seed %d: receivers heard %v and %v, want two broadcasts each", seed, a, b)
		}
		if a[0] != b[0] {
			opposite++
		}
	}
	if opposite == 0 {
		t.Error("no seed delivered the two broadcasts in opposite orders at the two receivers")
	}
}

// EngineAsync replays from its seed: equal seeds give identical traces, and
// a run without a scramble option is the seed-0 schedule.
func TestAsyncReplaysFromSeed(t *testing.T) {
	g := ringGraph(24)
	trace := func(opts ...Option) []Event {
		var evs []Event
		procs := make([]Proc, g.N())
		for i := range procs {
			procs[i] = &relayOnce{}
		}
		opts = append(opts, WithTrace(func(ev Event) { evs = append(evs, ev) }))
		if _, err := EngineAsync.Run(g, procs, opts...); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	seeded := func(seed int64) []Event { return trace(WithScramble(rand.New(rand.NewSource(seed)))) }
	if a, b := seeded(5), seeded(5); !slices.Equal(a, b) {
		t.Error("two async runs with seed 5 differ")
	}
	if a, b := trace(), seeded(0); !slices.Equal(a, b) {
		t.Error("an async run without a scramble is not the seed-0 schedule")
	}
	if a, b := seeded(5), seeded(6); slices.Equal(a, b) {
		t.Error("seeds 5 and 6 gave the same schedule")
	}
}
