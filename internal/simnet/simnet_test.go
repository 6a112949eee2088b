package simnet

import (
	"errors"
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
)

// floodProc implements network-wide flooding: the origin broadcasts a token
// in Init and every node rebroadcasts the first token it hears.
type floodProc struct {
	origin  bool
	reached bool
}

type tokenMsg struct{}

func (p *floodProc) Init(ctx *Context) {
	if p.origin {
		p.reached = true
		ctx.Broadcast(tokenMsg{})
	}
}

func (p *floodProc) Recv(ctx *Context, from int, payload any) {
	if _, ok := payload.(tokenMsg); !ok {
		return
	}
	if p.reached {
		return
	}
	p.reached = true
	ctx.Broadcast(tokenMsg{})
}

func floodProcs(n, origin int) []Proc {
	procs := make([]Proc, n)
	for i := range procs {
		procs[i] = &floodProc{origin: i == origin}
	}
	return procs
}

// pingPong bounces a counter between two adjacent nodes `bounces` times;
// bounces < 0 means forever (for budget-exhaustion tests).
type pingPong struct {
	peer    int
	starter bool
	bounces int
	count   int
}

type pingMsg struct{ n int }

func (p *pingPong) Init(ctx *Context) {
	if p.starter {
		ctx.Send(p.peer, pingMsg{n: 0})
	}
}

func (p *pingPong) Recv(ctx *Context, from int, payload any) {
	m, ok := payload.(pingMsg)
	if !ok {
		return
	}
	p.count++
	if p.bounces >= 0 && m.n >= p.bounces {
		return
	}
	ctx.Send(p.peer, pingMsg{n: m.n + 1})
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

func TestRunSyncFloodLine(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 0)
	stats, err := RunSync(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if !p.(*floodProc).reached {
			t.Errorf("node %d not reached", i)
		}
	}
	if stats.Messages != n {
		t.Errorf("messages = %d, want %d (one broadcast each)", stats.Messages, n)
	}
	// On a line flooded from one end, the token advances one hop per round;
	// node n-1 first hears it in round n-1, and its own rebroadcast drains
	// in round n. Rounds = eccentricity(origin) + 1.
	if stats.Rounds != n {
		t.Errorf("rounds = %d, want %d", stats.Rounds, n)
	}
	// Every edge carries the token in both directions over the run:
	// each node broadcasts once, so deliveries = sum of degrees = 2*M.
	if stats.Deliveries != 2*g.M() {
		t.Errorf("deliveries = %d, want %d", stats.Deliveries, 2*g.M())
	}
}

func TestAsyncFloodLine(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	procs := floodProcs(n, 3)
	stats, err := EngineAsync.Run(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if !p.(*floodProc).reached {
			t.Errorf("node %d not reached", i)
		}
	}
	if stats.Messages != n {
		t.Errorf("messages = %d, want %d", stats.Messages, n)
	}
	if stats.Rounds != 0 {
		t.Errorf("async rounds = %d, want 0", stats.Rounds)
	}
}

func TestRunSyncDeterministic(t *testing.T) {
	g := lineGraph(t, 20)
	run := func() Stats {
		stats, err := RunSync(g, floodProcs(20, 5))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical sync runs differ: %+v vs %+v", a, b)
	}
}

func TestRunSyncScrambledFloodStillCovers(t *testing.T) {
	g := lineGraph(t, 15)
	for seed := int64(0); seed < 5; seed++ {
		procs := floodProcs(15, 0)
		_, err := RunSync(g, procs, WithScramble(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range procs {
			if !p.(*floodProc).reached {
				t.Errorf("seed %d: node %d not reached", seed, i)
			}
		}
	}
}

func TestAsyncScrambled(t *testing.T) {
	g := lineGraph(t, 15)
	procs := floodProcs(15, 14)
	_, err := EngineAsync.Run(g, procs, WithScramble(rand.New(rand.NewSource(9))))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if !p.(*floodProc).reached {
			t.Errorf("node %d not reached", i)
		}
	}
}

func TestPingPongCounts(t *testing.T) {
	g := lineGraph(t, 2)
	const bounces = 10
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: bounces},
		&pingPong{peer: 0, bounces: bounces},
	}
	stats, err := RunSync(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	// Messages: initial send + bounces resends.
	if stats.Messages != bounces+1 {
		t.Errorf("messages = %d, want %d", stats.Messages, bounces+1)
	}
	total := procs[0].(*pingPong).count + procs[1].(*pingPong).count
	if total != bounces+1 {
		t.Errorf("handled = %d, want %d", total, bounces+1)
	}
}

func TestValidationErrors(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := RunSync(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := RunSync(g, make([]Proc, 2)); err == nil {
		t.Error("proc count mismatch accepted")
	}
	if _, err := RunSync(g, make([]Proc, 3)); err == nil {
		t.Error("nil procs accepted")
	}
	if _, err := EngineAsync.Run(g, make([]Proc, 2)); err == nil {
		t.Error("async proc count mismatch accepted")
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: -1},
		&pingPong{peer: 0, bounces: -1},
	}
	_, err := RunSync(g, procs, WithMaxRounds(50))
	if !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestMaxDeliveriesExceededSync(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: -1},
		&pingPong{peer: 0, bounces: -1},
	}
	_, err := RunSync(g, procs, WithMaxDeliveries(30))
	if !errors.Is(err, ErrMaxDeliveries) {
		t.Errorf("err = %v, want ErrMaxDeliveries", err)
	}
}

func TestMaxDeliveriesExceededAsync(t *testing.T) {
	g := lineGraph(t, 2)
	procs := []Proc{
		&pingPong{peer: 1, starter: true, bounces: -1},
		&pingPong{peer: 0, bounces: -1},
	}
	_, err := EngineAsync.Run(g, procs, WithMaxDeliveries(30))
	if !errors.Is(err, ErrMaxDeliveries) {
		t.Errorf("err = %v, want ErrMaxDeliveries", err)
	}
}

// badSender sends to a node that is not its neighbour.
type badSender struct{}

func (badSender) Init(ctx *Context) { ctx.Send(2, tokenMsg{}) }

func (badSender) Recv(ctx *Context, from int, payload any) {}

type idleProc struct{}

func (idleProc) Init(ctx *Context)                        {}
func (idleProc) Recv(ctx *Context, from int, payload any) {}

func TestSendToNonNeighbourPanicsSync(t *testing.T) {
	g := lineGraph(t, 3) // 0-1-2; node 0 is not adjacent to 2
	procs := []Proc{badSender{}, idleProc{}, idleProc{}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on send to non-neighbour")
		}
	}()
	_, _ = RunSync(g, procs)
}

// directReplier answers a token with SendDirect to node to, or to the
// token's sender for to == -1.
type directReplier struct{ to int }

func (directReplier) Init(ctx *Context) {}

func (r directReplier) Recv(ctx *Context, from int, payload any) {
	if _, ok := payload.(tokenMsg); !ok {
		return
	}
	if r.to == -1 {
		r.to = from
	}
	ctx.SendDirect(r.to, struct{}{})
}

// starter broadcasts one token; directStarter SendDirects one to node to.
type starter struct{}

func (starter) Init(ctx *Context)                        { ctx.Broadcast(tokenMsg{}) }
func (starter) Recv(ctx *Context, from int, payload any) {}

type directStarter struct{ to int }

func (s directStarter) Init(ctx *Context)                      { ctx.SendDirect(s.to, tokenMsg{}) }
func (directStarter) Recv(ctx *Context, from int, payload any) {}

// TestSendDirectNeighbourCheck: inside Recv, SendDirect skips the
// neighbour scan for the frame's sender only. A send to any other
// non-neighbour still panics, on every engine, and so does one from Init,
// where no frame is being handled.
func TestSendDirectNeighbourCheck(t *testing.T) {
	g := lineGraph(t, 3) // 0-1-2
	panics := func(run func(*graph.Graph, []Proc) (Stats, error), procs []Proc) (p bool) {
		defer func() { p = recover() != nil }()
		_, _ = run(g, procs)
		return false
	}
	for _, eng := range []Engine{EngineSync, EngineEvent, EngineAsync} {
		run := func(g *graph.Graph, procs []Proc) (Stats, error) { return eng.Run(g, procs) }
		if panics(run, []Proc{directReplier{to: -1}, starter{}, idleProc{}}) {
			t.Errorf("%v: reply to the sender panicked", eng)
		}
		if !panics(run, []Proc{directReplier{to: 2}, starter{}, idleProc{}}) {
			t.Errorf("%v: SendDirect from Recv to a non-neighbour did not panic", eng)
		}
		if !panics(run, []Proc{idleProc{}, idleProc{}, directStarter{to: 0}}) {
			t.Errorf("%v: SendDirect from Init to a non-neighbour did not panic", eng)
		}
	}
}

func TestIdleProtocolTerminates(t *testing.T) {
	g := lineGraph(t, 5)
	procs := make([]Proc, 5)
	for i := range procs {
		procs[i] = idleProc{}
	}
	stats, err := RunSync(g, procs)
	if err != nil || stats.Messages != 0 || stats.Rounds != 0 {
		t.Errorf("sync idle: stats=%+v err=%v", stats, err)
	}
	stats, err = EngineAsync.Run(g, procs)
	if err != nil || stats.Messages != 0 {
		t.Errorf("async idle: stats=%+v err=%v", stats, err)
	}
}

func TestTraceEventsSync(t *testing.T) {
	g := lineGraph(t, 4)
	var sends, delivers int
	_, err := RunSync(g, floodProcs(4, 0), WithTrace(func(ev Event) {
		switch ev.Kind {
		case EventSend:
			sends++
		case EventDeliver:
			delivers++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sends != 4 {
		t.Errorf("traced sends = %d, want 4", sends)
	}
	if delivers != 2*g.M() {
		t.Errorf("traced deliveries = %d, want %d", delivers, 2*g.M())
	}
}

func TestContextAccessors(t *testing.T) {
	g := lineGraph(t, 3)
	var degrees [3]int
	procs := make([]Proc, 3)
	for i := range procs {
		i := i
		procs[i] = &inspectProc{onInit: func(ctx *Context) {
			if ctx.Node() != i {
				t.Errorf("ctx.Node() = %d, want %d", ctx.Node(), i)
			}
			degrees[i] = ctx.Degree()
			if len(ctx.Neighbors()) != ctx.Degree() {
				t.Error("Neighbors()/Degree() disagree")
			}
		}}
	}
	if _, err := RunSync(g, procs); err != nil {
		t.Fatal(err)
	}
	if degrees != [3]int{1, 2, 1} {
		t.Errorf("degrees = %v", degrees)
	}
}

type inspectProc struct {
	onInit func(ctx *Context)
}

func (p *inspectProc) Init(ctx *Context) { p.onInit(ctx) }

func (p *inspectProc) Recv(ctx *Context, from int, payload any) {}

func TestAsyncEquivalentCoverageOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			_ = g.AddEdge(i, rng.Intn(i))
		}
		syncProcs := floodProcs(n, 0)
		asyncProcs := floodProcs(n, 0)
		syncStats, err := RunSync(g, syncProcs)
		if err != nil {
			t.Fatal(err)
		}
		asyncStats, err := EngineAsync.Run(g, asyncProcs)
		if err != nil {
			t.Fatal(err)
		}
		// Flooding sends exactly one broadcast per node under any schedule.
		if syncStats.Messages != n || asyncStats.Messages != n {
			t.Fatalf("trial %d: messages sync=%d async=%d want %d",
				trial, syncStats.Messages, asyncStats.Messages, n)
		}
	}
}
