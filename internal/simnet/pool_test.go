package simnet

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wcdsnet/internal/graph"
)

// poolFlood is a tiny flooding protocol used to cycle envelope batches
// through the pool: every node broadcasts its first received value + 1
// until a TTL runs out.
type poolFlood struct {
	best int
	ttl  int
}

func (p *poolFlood) Init(ctx *Context) {
	if ctx.Node() == 0 {
		p.best = 1
		ctx.Broadcast(1)
	}
}

func (p *poolFlood) Recv(ctx *Context, from int, payload any) {
	v := payload.(int)
	if v > p.best && p.ttl < 6 {
		p.best = v
		p.ttl++
		ctx.Broadcast(v + 1)
	}
}

func ringGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	g.SortAdjacency()
	return g
}

// TestSyncPoolingDeterministic runs the same protocol many times in
// sequence and in parallel: pooled batch reuse must not change a single
// counter between runs, and zeroed batches must not leak state across runs.
func TestSyncPoolingDeterministic(t *testing.T) {
	g := ringGraph(40)
	run := func() Stats {
		procs := make([]Proc, g.N())
		for i := range procs {
			procs[i] = &poolFlood{}
		}
		st, err := RunSync(g, procs)
		if err != nil {
			t.Errorf("RunSync: %v", err)
		}
		return st
	}
	want := run()
	if want.Messages == 0 || want.Deliveries == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}
	for i := 0; i < 30; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d stats %+v differ from first run %+v", i, got, want)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := run(); got != want {
					t.Errorf("parallel run stats %+v differ from %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// relayOnce is schedule-independent by construction: every node broadcasts
// at Init and relays exactly the first message it receives, so the message
// count is exactly 2n under any engine, schedule or queue layout.
type relayOnce struct{ relayed bool }

func (p *relayOnce) Init(ctx *Context) { ctx.Broadcast(ctx.Node()) }

func (p *relayOnce) Recv(ctx *Context, from int, payload any) {
	if !p.relayed {
		p.relayed = true
		ctx.Broadcast(payload)
	}
}

// TestAsyncPoolingDelivers runs the async engine repeatedly (serially and
// concurrently) so inbox backing arrays cycle through the pool; every run
// must deliver the same message count for this schedule-independent
// protocol.
func TestAsyncPoolingDelivers(t *testing.T) {
	g := ringGraph(24)
	run := func(seed int64) Stats {
		procs := make([]Proc, g.N())
		for i := range procs {
			procs[i] = &relayOnce{}
		}
		var opts []Option
		if seed != 0 {
			opts = append(opts, WithScramble(rand.New(rand.NewSource(seed))))
		}
		st, err := RunAsync(g, procs, opts...)
		if err != nil {
			t.Errorf("RunAsync: %v", err)
		}
		return st
	}
	want := run(0)
	for i := 0; i < 10; i++ {
		got := run(int64(i))
		if got.Messages != want.Messages || got.Deliveries != want.Deliveries {
			t.Fatalf("async run %d cost (%d msgs, %d deliveries) differs from (%d, %d)",
				i, got.Messages, got.Deliveries, want.Messages, want.Deliveries)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got := run(int64(100 + 10*w + i))
				if got.Messages != want.Messages {
					t.Errorf("concurrent async run cost %d differs from %d", got.Messages, want.Messages)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// tokenRelay broadcasts at Init and relays the first token it hears: on a
// ring every round carries 2n copies, so the receiver ordering and the
// round buckets work at full batch size.
type tokenRelay struct{ relayed bool }

func (p *tokenRelay) Init(ctx *Context) { ctx.Broadcast(tokenMsg{}) }

func (p *tokenRelay) Recv(ctx *Context, from int, payload any) {
	if !p.relayed {
		p.relayed = true
		ctx.Broadcast(tokenMsg{})
	}
}

// TestSyncEngineSteadyStateAllocs pins the synchronous engine's allocation
// profile, as TestEventEngineSteadyStateAllocs does for RunEvent: once the
// engine pool is warm, a full RunSync costs a small constant number of
// allocations (config, contexts) that does not grow with the node count,
// the number of rounds (a flood along a line) or the batch size (a relay
// wave around a ring). The token payload is zero-sized, so boxing is free.
func TestSyncEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short stacking")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	measure := func(n int) float64 {
		line, ring := lineGraph(t, n), ringGraph(n)
		flood := floodProcs(n, 0)
		relays := make([]Proc, n)
		for i := range relays {
			relays[i] = &tokenRelay{}
		}
		run := func() {
			for i, p := range flood {
				*p.(*floodProc) = floodProc{origin: i == 0}
			}
			for _, p := range relays {
				*p.(*tokenRelay) = tokenRelay{}
			}
			if _, err := RunSync(line, flood); err != nil {
				t.Error(err)
			}
			if _, err := RunSync(ring, relays); err != nil {
				t.Error(err)
			}
		}
		run() // warm the engine pool
		return testing.AllocsPerRun(20, run)
	}
	small := measure(64)
	large := measure(1024)
	t.Logf("allocs per measurement: n=64 %.1f, n=1024 %.1f", small, large)
	// Two runs per measurement, each a handful of setup allocations.
	const maxPerRun = 8
	if small > maxPerRun || large > maxPerRun {
		t.Errorf("allocs per run: n=64 %.1f, n=1024 %.1f, want <= %d", small, large, maxPerRun)
	}
	// 16x the nodes, rounds and batch size must not add allocations.
	// Allow slack for pool misses under GC.
	if large > small+4 {
		t.Errorf("allocs scale with size: n=64 %.1f vs n=1024 %.1f", small, large)
	}
}

// TestOrderByReceiverIsStableSort checks the sync engine's radix ordering
// against a stable comparison sort on random batches, across graph sizes
// that need one pass, several passes and the digit-width cap, and batch
// sizes from empty to larger than the graph.
func TestOrderByReceiverIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 100, 5000, 1 << 20} {
		e := &syncEngine{toBits: bits.Len(uint(n - 1))}
		for _, m := range []int{0, 1, 2, 7, 300, 5000} {
			batch := make([]syncCopy, m)
			for i := range batch {
				// tx records the append position, so stability is visible.
				batch[i] = syncCopy{to: int32(rng.Intn(n)), tx: int32(i)}
			}
			want := slices.Clone(batch)
			slices.SortStableFunc(want, func(a, b syncCopy) int { return int(a.to - b.to) })
			if got := e.orderByReceiver(batch); !slices.Equal(got, want) {
				t.Fatalf("n=%d m=%d: radix order differs from a stable sort by receiver", n, m)
			}
		}
	}
}
