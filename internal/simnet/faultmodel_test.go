package simnet

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"wcdsnet/internal/graph"
)

// --- Ticker machinery -------------------------------------------------------

// countdownTicker reports pending work for the first `pendingFor` ticks.
type countdownTicker struct {
	pendingFor int
	ticks      int
}

func (p *countdownTicker) Init(ctx *Context)                        {}
func (p *countdownTicker) Recv(ctx *Context, from int, payload any) {}
func (p *countdownTicker) Tick(ctx *Context) bool {
	p.ticks++
	return p.ticks <= p.pendingFor
}

func TestTickerFiresOnQuiescence(t *testing.T) {
	const pendingFor = 3
	for _, async := range []bool{false, true} {
		g := lineGraph(t, 2)
		procs := []Proc{&countdownTicker{pendingFor: pendingFor}, idleProc{}}
		var (
			stats Stats
			err   error
		)
		if async {
			stats, err = EngineAsync.Run(g, procs)
		} else {
			stats, err = RunSync(g, procs)
		}
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		// The node reports pending work for `pendingFor` passes; the run ends
		// after the first fully silent pass.
		if got := procs[0].(*countdownTicker).ticks; got != pendingFor+1 {
			t.Errorf("async=%v: node ticked %d times, want %d", async, got, pendingFor+1)
		}
		if stats.Ticks != pendingFor+1 {
			t.Errorf("async=%v: stats.Ticks = %d, want %d", async, stats.Ticks, pendingFor+1)
		}
	}
}

func TestTickerWithoutPendingWorkTerminatesImmediately(t *testing.T) {
	for _, async := range []bool{false, true} {
		g := lineGraph(t, 3)
		procs := []Proc{&countdownTicker{}, idleProc{}, &countdownTicker{}}
		var (
			stats Stats
			err   error
		)
		if async {
			stats, err = EngineAsync.Run(g, procs)
		} else {
			stats, err = RunSync(g, procs)
		}
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if stats.Ticks != 1 {
			t.Errorf("async=%v: stats.Ticks = %d, want exactly one (silent) pass", async, stats.Ticks)
		}
	}
}

// TestTickBudgetTightFailsGenerousPasses pins the configurable quiescence
// budget: tick passes consume WithMaxRounds in both engines, so a
// never-satisfied retry timer is bounded instead of spinning forever.
func TestTickBudgetTightFailsGenerousPasses(t *testing.T) {
	for _, async := range []bool{false, true} {
		run := func(opts ...Option) error {
			g := lineGraph(t, 2)
			procs := []Proc{&countdownTicker{pendingFor: 40}, idleProc{}}
			var err error
			if async {
				_, err = EngineAsync.Run(g, procs, opts...)
			} else {
				_, err = RunSync(g, procs, opts...)
			}
			return err
		}
		if err := run(WithMaxRounds(5)); !errors.Is(err, ErrMaxRounds) {
			t.Errorf("async=%v: tight budget: err = %v, want ErrMaxRounds", async, err)
		}
		if err := run(WithMaxRounds(200)); err != nil {
			t.Errorf("async=%v: generous budget: err = %v, want nil", async, err)
		}
	}
}

// --- probabilistic faults ---------------------------------------------------

func TestDelayStretchesRounds(t *testing.T) {
	const n = 12
	g := lineGraph(t, n)

	base := floodProcs(n, 0)
	baseStats, err := RunSync(g, base)
	if err != nil {
		t.Fatal(err)
	}

	delayed := floodProcs(n, 0)
	stats, err := RunSync(g, delayed, WithDelay(2, 2), WithFaultSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if countReached(delayed) != n {
		t.Error("pure delay must not lose coverage")
	}
	// Every hop takes 1+2 rounds instead of 1.
	if stats.Rounds <= baseStats.Rounds {
		t.Errorf("delayed rounds = %d, want > lossless %d", stats.Rounds, baseStats.Rounds)
	}
	if stats.Deliveries != baseStats.Deliveries {
		t.Errorf("delay changed delivery count: %d vs %d", stats.Deliveries, baseStats.Deliveries)
	}
}

// TestHugeDelayDoesNotOverflow feeds delay windows near math.MaxInt, which
// clients can send, to every engine. The synchronous engine must not
// overflow its ring size or a copy's due round: with the default budget
// every copy lands past it (ErrMaxRounds); with an unbounded budget the run
// either finishes or runs out of representable rounds. The other engines
// only scatter delayed copies and must flood the line.
func TestHugeDelayDoesNotOverflow(t *testing.T) {
	const n = 6
	g := lineGraph(t, n)
	plans := []FaultPlan{
		{Seed: 1, DelayMax: math.MaxInt - 1},
		{Seed: 2, DelayMin: 1, DelayMax: math.MaxInt},
		{Seed: 3, DelayMax: math.MaxInt},
		{Seed: 4, DelayMin: math.MaxInt, DelayMax: math.MaxInt, DupRate: 1, ReorderRate: 1},
	}
	for i, plan := range plans {
		if _, err := RunSync(g, floodProcs(n, 0), WithFaults(plan)); !errors.Is(err, ErrMaxRounds) {
			t.Errorf("plan %d: RunSync err = %v, want ErrMaxRounds", i, err)
		}
		_, err := RunSync(g, floodProcs(n, 0), WithFaults(plan), WithMaxRounds(math.MaxInt))
		if err != nil && !errors.Is(err, ErrMaxRounds) {
			t.Errorf("plan %d: unbounded RunSync err = %v", i, err)
		}
		for _, run := range []func(*graph.Graph, []Proc, ...Option) (Stats, error){RunEvent, EngineAsync.Run} {
			procs := floodProcs(n, 0)
			if _, err := run(g, procs, WithFaults(plan)); err != nil {
				t.Errorf("plan %d: %v", i, err)
			}
			if countReached(procs) != n {
				t.Errorf("plan %d: delay lost coverage", i)
			}
		}
	}
}

func TestDuplicationCountedAndHarmlessToFlood(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	stats, err := RunSync(g, procs, WithDuplication(1.0), WithFaultSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if countReached(procs) != n {
		t.Error("duplication must not lose coverage")
	}
	// Every per-link copy is duplicated exactly once at rate 1.
	if stats.Duplicated != 2*g.M() {
		t.Errorf("Duplicated = %d, want %d", stats.Duplicated, 2*g.M())
	}
	if stats.Deliveries != 4*g.M() {
		t.Errorf("Deliveries = %d, want %d (each link copy twice)", stats.Deliveries, 4*g.M())
	}
}

func TestReorderKeepsCoverage(t *testing.T) {
	const n = 20
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		procs := floodProcs(n, 0)
		var err error
		if async {
			_, err = EngineAsync.Run(g, procs, WithReorder(0.5), WithFaultSeed(3))
		} else {
			_, err = RunSync(g, procs, WithReorder(0.5), WithFaultSeed(3))
		}
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if countReached(procs) != n {
			t.Errorf("async=%v: reordering lost coverage", async)
		}
	}
}

// Per-sender fault streams depend only on (seed, sender, k-th send), so a
// flood — where each node transmits at most once, in a fixed neighbour
// order — sees the IDENTICAL drop pattern under both engines and across
// repeated runs.
func TestDropDeterministicAcrossEnginesAndRuns(t *testing.T) {
	const n = 40
	g := lineGraph(t, n)
	reach := func(async bool) (int, int) {
		procs := floodProcs(n, 0)
		var (
			stats Stats
			err   error
		)
		if async {
			stats, err = EngineAsync.Run(g, procs, WithFaults(FaultPlan{Seed: 5, DropRate: 0.3}))
		} else {
			stats, err = RunSync(g, procs, WithFaults(FaultPlan{Seed: 5, DropRate: 0.3}))
		}
		if err != nil {
			t.Fatal(err)
		}
		return countReached(procs), stats.Dropped
	}
	sr, sd := reach(false)
	if sd == 0 {
		t.Fatal("30% drop never fired; injection suspect")
	}
	if ar, ad := reach(true); ar != sr || ad != sd {
		t.Errorf("async run diverged: reached %d/%d, dropped %d/%d", ar, sr, ad, sd)
	}
	if r2, d2 := reach(false); r2 != sr || d2 != sd {
		t.Errorf("repeat sync run diverged: reached %d/%d, dropped %d/%d", r2, sr, d2, sd)
	}
}

// --- scheduled faults -------------------------------------------------------

func TestCrashBlocksFloodBothEngines(t *testing.T) {
	const n = 10
	for _, async := range []bool{false, true} {
		g := lineGraph(t, n)
		procs := floodProcs(n, 0)
		var (
			stats Stats
			err   error
		)
		// Node 5 is down from time 0 and never restarts: the token cannot
		// cross it on a line.
		if async {
			stats, err = EngineAsync.Run(g, procs, WithCrash(5, 0, 0))
		} else {
			stats, err = RunSync(g, procs, WithCrash(5, 0, 0))
		}
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if got := countReached(procs); got != 5 {
			t.Errorf("async=%v: reached = %d, want 5 (nodes 0..4)", async, got)
		}
		if stats.Dropped == 0 {
			t.Errorf("async=%v: crash produced no dropped deliveries", async)
		}
	}
}

func TestPartitionForeverSplitsFlood(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	_, err := RunSync(g, procs, WithPartition(0, 0, []int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if got := countReached(procs); got != 5 {
		t.Errorf("reached = %d, want 5 behind a permanent partition", got)
	}
}

func TestPartitionHealsInTime(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	// The token needs 5 rounds to reach the cut edge 4–5; a partition healing
	// at round 4 never blocks it.
	_, err := RunSync(g, procs, WithPartition(0, 4, []int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if got := countReached(procs); got != n {
		t.Errorf("reached = %d, want full coverage after the partition healed", got)
	}
}

// blocked agrees with the plan's partition semantics read off directly:
// overlapping windows, repeated members and windows that open late or heal
// all compose, and a pair is cut while some active window holds exactly one
// of its nodes.
func TestPartitionWindowsCompose(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var plan FaultPlan
		for w := 1 + rng.Intn(5); w > 0; w-- {
			win := PartitionWindow{From: rng.Intn(6), Until: rng.Intn(12)}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				win.Group = append(win.Group, rng.Intn(n))
			}
			plan.Partitions = append(plan.Partitions, win)
		}
		f, err := compileFaults(&plan, n)
		if err != nil {
			t.Fatal(err)
		}
		holds := func(g []int, v int) bool {
			for _, u := range g {
				if u == v {
					return true
				}
			}
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for at := 0; at < 14; at++ {
					want := false
					for _, w := range plan.Partitions {
						want = want || (w.active(at) && holds(w.Group, u) != holds(w.Group, v))
					}
					if got := f.blocked(u, v, at, at); got != want {
						t.Fatalf("plan %+v: blocked(%d, %d, t=%d) = %v, want %v", plan.Partitions, u, v, at, got, want)
					}
				}
			}
		}
	}
}

// The partition index costs memory in proportion to the plan's groups and
// the node count, never windows × nodes: plans arrive from service clients,
// and many one-node windows must stay as cheap as their JSON.
func TestPartitionIndexFollowsGroups(t *testing.T) {
	const n, windows = 20_000, 5_000
	plan := FaultPlan{Partitions: make([]PartitionWindow, windows)}
	for i := range plan.Partitions {
		plan.Partitions[i] = PartitionWindow{From: i, Group: []int{i % n}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := compileFaults(&plan, n); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// n slice headers, one short list per named node and the plan copy.
	const budget = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("compiling %d one-node windows over %d nodes allocates %d B, want at most %d", windows, n, got, budget)
	}
}

func TestLinkDownOneWay(t *testing.T) {
	g := lineGraph(t, 2)
	down := LinkWindow{A: 0, B: 1, Start: 0, OneWay: true}

	// Forward direction 0→1 is dead.
	procs := []Proc{&pingPong{peer: 1, starter: true, bounces: 3}, &pingPong{peer: 0, bounces: 3}}
	if _, err := RunSync(g, procs, WithLinkDown(down)); err != nil {
		t.Fatal(err)
	}
	if procs[1].(*pingPong).count != 0 {
		t.Error("one-way down link 0→1 still delivered")
	}

	// Reverse direction 1→0 still works.
	procs = []Proc{&pingPong{peer: 1, bounces: 0}, &pingPong{peer: 0, starter: true, bounces: 0}}
	if _, err := RunSync(g, procs, WithLinkDown(down)); err != nil {
		t.Fatal(err)
	}
	if procs[0].(*pingPong).count != 1 {
		t.Error("reverse direction of a one-way window was blocked")
	}
}

func TestLinkDownBothWays(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{&pingPong{peer: 1, starter: true, bounces: 3}, &pingPong{peer: 0, bounces: 3}}
	stats, err := RunSync(g, procs, WithLinkDown(LinkWindow{A: 1, B: 0, Start: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deliveries != 0 {
		t.Errorf("deliveries = %d over a dead link", stats.Deliveries)
	}
}

func TestFlapWindows(t *testing.T) {
	ws := Flap(0, 1, 0, 2, 2, 10)
	want := []LinkWindow{
		{A: 0, B: 1, Start: 2, Until: 4},
		{A: 0, B: 1, Start: 6, Until: 8},
	}
	if len(ws) != len(want) {
		t.Fatalf("Flap windows = %v, want %v", ws, want)
	}
	for i := range ws {
		if ws[i] != want[i] {
			t.Errorf("window %d = %v, want %v", i, ws[i], want[i])
		}
	}
	if got := Flap(0, 1, 0, 2, 0, 10); len(got) != 0 {
		t.Errorf("zero downtime flap produced windows: %v", got)
	}
}

// --- plan validation --------------------------------------------------------

func TestInvalidFaultPlansRejected(t *testing.T) {
	g := lineGraph(t, 3)
	cases := []FaultPlan{
		{DropRate: 1.5},
		{DropRate: -0.1},
		{DupRate: 2},
		{ReorderRate: -1},
		{DelayMin: 3, DelayMax: 1},
		{Crashes: []CrashWindow{{Node: 9}}},
		{Partitions: []PartitionWindow{{Group: nil}}},
		{Partitions: []PartitionWindow{{Group: []int{-1}}}},
		{LinkDowns: []LinkWindow{{A: 0, B: 7}}},
	}
	for i, plan := range cases {
		procs := make([]Proc, 3)
		for j := range procs {
			procs[j] = idleProc{}
		}
		if _, err := RunSync(g, procs, WithFaults(plan)); err == nil {
			t.Errorf("case %d: invalid plan %+v accepted by RunSync", i, plan)
		}
		if _, err := EngineAsync.Run(g, procs, WithFaults(plan)); err == nil {
			t.Errorf("case %d: invalid plan %+v accepted by EngineAsync", i, plan)
		}
	}
}

func TestEmptyPlanInjectsNothing(t *testing.T) {
	g := lineGraph(t, 8)
	procs := floodProcs(8, 0)
	stats, err := RunSync(g, procs, WithFaults(FaultPlan{Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 || stats.Duplicated != 0 || countReached(procs) != 8 {
		t.Errorf("empty plan injected faults: %+v", stats)
	}
}

func completeGraphFM(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}
