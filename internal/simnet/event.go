package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"wcdsnet/internal/graph"
)

// Engine names one of the kernel's simulation engines. It is the value the
// facade's WithEngine option, the batch engine and the service wire schema
// all dispatch on, so engine selection is encoded in exactly one enum
// instead of a scatter of bools.
type Engine int

const (
	// EngineSync is the deterministic synchronous-round engine (RunSync).
	EngineSync Engine = iota
	// EngineAsync is the event engine under a per-link seeded scramble:
	// RunEvent with every broadcast split into per-link copies placed at
	// seeded-random queue positions, so each link's delivery interleaves on
	// its own. The seed is the caller's WithScramble RNG, or 0 when none is
	// given, so every async run replays from its seed.
	EngineAsync
	// EngineEvent is the event-driven single-scheduler engine (RunEvent) in
	// its native deterministic FIFO order — one goroutine, a pooled event
	// queue, no per-node goroutine or channel.
	EngineEvent
)

func (e Engine) String() string {
	switch e {
	case EngineSync:
		return "sync"
	case EngineAsync:
		return "async"
	case EngineEvent:
		return "event"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Valid reports whether e names a known engine.
func (e Engine) Valid() bool {
	return e == EngineSync || e == EngineAsync || e == EngineEvent
}

// ParseEngine maps an engine's wire name (its String value: "sync",
// "async", "event") back onto the Engine value; ok is false for anything
// else, including "".
func ParseEngine(s string) (eng Engine, ok bool) {
	switch s {
	case "sync":
		return EngineSync, true
	case "async":
		return EngineAsync, true
	case "event":
		return EngineEvent, true
	}
	return EngineSync, false
}

// NormalizeEngine canonicalises the paired mode/engine wire enums of the
// backbone and batch surfaces. Mode predates the event engine and carries
// the extra "centralized" value; engine names the simulation engine of a
// distributed run. Either may be given, in any case: each is filled from
// the other and contradictions are rejected. The normalized pair has
// mode == engine for every distributed mode, and engine == "" exactly when
// mode is "centralized" (the default).
func NormalizeEngine(mode, engine string) (string, string, error) {
	mode, engine = strings.ToLower(mode), strings.ToLower(engine)
	if _, ok := ParseEngine(mode); !ok && mode != "" && mode != "centralized" {
		return "", "", fmt.Errorf("unknown mode %q (want centralized, sync, async or event)", mode)
	}
	if _, ok := ParseEngine(engine); !ok && engine != "" {
		return "", "", fmt.Errorf("unknown engine %q (want sync, async or event)", engine)
	}
	switch {
	case engine == "" && (mode == "" || mode == "centralized"):
		return "centralized", "", nil
	case engine == "":
		return mode, mode, nil
	case mode == "":
		return engine, engine, nil
	case mode == "centralized":
		return "", "", fmt.Errorf("engine %q contradicts centralized mode", engine)
	case mode != engine:
		return "", "", fmt.Errorf("mode %q and engine %q disagree", mode, engine)
	}
	return mode, engine, nil
}

// Run dispatches to the engine's entry point, so callers holding an Engine
// value need no switch of their own.
func (e Engine) Run(g *graph.Graph, procs []Proc, opts ...Option) (Stats, error) {
	switch e {
	case EngineAsync:
		return runEvent(g, procs, opts, true)
	case EngineEvent:
		return RunEvent(g, procs, opts...)
	default:
		return RunSync(g, procs, opts...)
	}
}

// ScheduleScramble returns the schedule option for a run on eng with the
// given schedule seed. It is the one scramble rule, applied for every
// surface by wcds.RunSpec: async runs always scramble, with seed (0 when
// the caller gave none); event runs scramble only for a non-zero seed and
// otherwise keep their deterministic FIFO order; sync runs keep their fixed
// round order.
func ScheduleScramble(eng Engine, seed int64) Option {
	if eng == EngineAsync || (eng == EngineEvent && seed != 0) {
		return WithScramble(rand.New(rand.NewSource(seed)))
	}
	return func(*config) {}
}

// RunEvent executes the protocol on the event-driven single-scheduler
// engine: one goroutine drains a pooled FIFO event queue of transmissions,
// delivering each to its receivers and running their handlers inline. It
// implements the fully asynchronous model — no synchronous round clock,
// quiescence ticks as conservative timeouts, Lamport-clock RoundEstimate,
// Rounds always 0 — without a goroutine per node, per-node channels or
// per-message synchronization, which is what makes million-node runs
// feasible (see cmd/bench's millionNode phase).
//
// Two engineering choices carry the scale:
//
//   - Unscrambled, the queue stores TRANSMISSIONS, not per-link copies: a
//     broadcast is one queue entry expanded to its per-link deliveries
//     when it is popped (one radio transmission reaches every neighbour at
//     once, so this is also the faithful reading of the wireless model).
//     The queue is O(n) where a per-link queue would be O(n·degree).
//   - Node state is struct-of-arrays with int32 entries (the per-node
//     Lamport clocks), the queue's backing array is pooled and head-indexed,
//     and the drain loop allocates nothing: steady-state cost per delivery
//     is a few loads and stores (pinned by TestEventEngineSteadyStateAllocs).
//     Observing a run (WithObserver) keeps that loop: without faults or a
//     trace hook, an observed run adds only its phase ledger as a
//     per-delivery hook, fed the phase index each queue entry carries.
//
// The schedule is deterministic: FIFO in send order, with each
// transmission's per-link deliveries in adjacency order. Two RunEvent runs
// with equal inputs and options produce identical Stats, including
// RoundEstimate. WithScramble switches to the per-link schedule EngineAsync
// runs under: a broadcast enters the queue as one copy per neighbour and
// every copy lands at its own seeded-random position, so two receivers may
// see two broadcasts in opposite orders. Each placement is O(1) (see
// eventQueue.pushAt), and a scrambled run replays exactly from its seed.
// The full fault model applies: probabilistic fates are drawn per sender
// at delivery, delay/reorder manifest as requeueing at a random position
// (the asynchronous model already permits unbounded delay), and scheduled
// faults are evaluated against the deliveries+ticks logical clock.
func RunEvent(g *graph.Graph, procs []Proc, opts ...Option) (Stats, error) {
	return runEvent(g, procs, opts, false)
}

// runEvent is RunEvent; async runs default the scramble to seed 0 when the
// options carry none (EngineAsync).
func runEvent(g *graph.Graph, procs []Proc, opts []Option, async bool) (Stats, error) {
	if err := validate(g, procs); err != nil {
		return Stats{}, err
	}
	if g.N() == 0 {
		return Stats{}, nil
	}
	cfg, err := buildConfig(g.N(), opts)
	if err != nil {
		return Stats{}, err
	}
	if async && cfg.scramble == nil {
		cfg.scramble = rand.New(rand.NewSource(0))
	}

	buf := getEnvBatch()
	if cap(buf) < g.N() {
		// Size the queue for one outstanding transmission per node up
		// front: the Init wave alone enqueues up to n broadcasts, and at
		// million-node scale growing there by doubling would copy and zero
		// hundreds of megabytes before the drain loop even starts.
		putEnvBatch(buf)
		buf = make([]envelope, 0, g.N())
	}
	nodes := make([]nodeState, g.N())
	for i, p := range procs {
		nodes[i].proc = p
	}
	eng := &eventEngine{
		cfg:     cfg,
		led:     cfg.led,
		g:       g,
		nodes:   nodes,
		tickers: tickerNodes(procs),
		queue:   eventQueue{buf: buf},
	}
	defer eng.queue.release()
	defer eng.led.flush()
	if cfg.faults != nil && (cfg.faults.plan.DelayMax > 0 || cfg.faults.plan.ReorderRate > 0) {
		eng.reorderRNG = rand.New(rand.NewSource(splitmix64(cfg.faults.plan.Seed, 1<<32)))
	}

	ctxs := make([]Context, g.N())
	for i := range ctxs {
		ctxs[i] = Context{node: i, g: g, bk: eng}
	}
	for i := range procs {
		procs[i].Init(&ctxs[i])
	}

	err = eng.drain(ctxs)
	est := 0
	for i := range eng.nodes {
		if l := int(eng.nodes[i].lam); l > est {
			est = l
		}
	}
	stats := Stats{
		Messages:      eng.messages,
		Deliveries:    eng.deliveries,
		RoundEstimate: est,
		Ticks:         eng.ticks,
		Dropped:       eng.dropped,
		Duplicated:    eng.duplicated,
	}
	if err != nil && (errors.Is(err, ErrMaxRounds) || errors.Is(err, ErrMaxDeliveries)) {
		err = fmt.Errorf("%w (logical round estimate %d)", err, est)
	}
	return stats, err
}

// cancelCheckInterval is how many deliveries pass between context checks on
// the drain loop (plus one check at every quiescence). Cancellation latency
// is therefore bounded by the cost of this many handler invocations, while
// the per-delivery hot path stays free of the ctx.Err mutex.
const cancelCheckInterval = 4096

// nodeState interleaves the engine's per-node hot state: the handler to
// dispatch to and the node's Lamport clock (behind Stats.RoundEstimate).
// Deliveries land in random node order, so at million-node scale every
// per-node array is a cache-miss stream; packing the two fields one load
// apart means a delivery pays one miss here instead of two. The clock is
// int32 — a causal chain overflowing it would need 2^31 sequential
// deliveries, which ErrMaxDeliveries rules out long before.
type nodeState struct {
	proc Proc
	lam  int32
}

type eventEngine struct {
	cfg     *config
	led     *ledger // nil when the run is not observed
	g       *graph.Graph
	nodes   []nodeState
	tickers []int
	queue   eventQueue

	reorderRNG *rand.Rand // fault-injected delay/reorder insertions

	messages   int
	deliveries int
	dropped    int
	duplicated int
	ticks      int

	lastPassMessages int
	passActive       bool
}

// now is the logical clock scheduled faults are evaluated against:
// deliveries plus tick passes, monotone and advancing even while the
// network is silent.
func (e *eventEngine) now() int {
	return e.deliveries + e.ticks
}

// drain is the scheduler loop: pop a transmission, expand it to its
// per-link deliveries, run the receivers' handlers inline; on an empty
// queue run a quiescence tick pass or finish.
func (e *eventEngine) drain(ctxs []Context) error {
	// The fault-free, untraced configuration — every large-scale run, and
	// every observed run without faults — takes a specialized delivery
	// loop: with no fates to draw, a delivery is just the counters, the
	// Lamport update, the ledger hook of an observed run and the handler
	// call, with no per-link function call or fault branching.
	if e.cfg.faults == nil && e.cfg.trace == nil {
		return e.drainFast(ctxs)
	}
	nextCheck := e.deliveries + cancelCheckInterval
	for {
		env, ok := e.queue.pop()
		if !ok {
			if err := e.cfg.ctx.Err(); err != nil {
				return cancelErr(-1, err)
			}
			cont, err := e.tickPass(ctxs)
			if err != nil || !cont {
				return err
			}
			continue
		}
		if e.deliveries >= nextCheck {
			if err := e.cfg.ctx.Err(); err != nil {
				return cancelErr(-1, err)
			}
			nextCheck = e.deliveries + cancelCheckInterval
		}
		if env.to == ToAll {
			// Deliver the broadcast link by link in adjacency order. The
			// neighbour slice is shared with protocol code but never
			// mutated by it (Context.Neighbors documents the contract).
			for _, to := range e.g.Neighbors(env.from) {
				if err := e.deliverLink(ctxs, env, to, false); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.deliverLink(ctxs, env, env.to, env.sampled); err != nil {
			return err
		}
	}
}

// drainFast is drain without faults or tracing. The delivery
// counter lives in a local (written back before every exit and before every
// tickPass, the only paths that read it mid-run — envelope sentAt stamps
// taken from the stale counter are consumed exclusively by fault logic,
// which this path has none of), and the hot per-node arrays are hoisted out
// of the loop, which measurably matters across tens of millions of
// deliveries.
func (e *eventEngine) drainFast(ctxs []Context) error {
	nodes := e.nodes
	led := e.led
	maxDeliveries := e.cfg.maxDeliveries
	deliveries := e.deliveries
	nextCheck := deliveries + cancelCheckInterval
	for {
		env, ok := e.queue.pop()
		if !ok {
			e.deliveries = deliveries
			if err := e.cfg.ctx.Err(); err != nil {
				return cancelErr(-1, err)
			}
			cont, err := e.tickPass(ctxs)
			if err != nil || !cont {
				return err
			}
			continue
		}
		if deliveries >= nextCheck {
			e.deliveries = deliveries
			if err := e.cfg.ctx.Err(); err != nil {
				return cancelErr(-1, err)
			}
			nextCheck = deliveries + cancelCheckInterval
		}
		lam := int32(env.lam)
		if env.to == ToAll {
			// Deliver the broadcast link by link in adjacency order. The
			// neighbour slice is shared with protocol code but never
			// mutated by it (Context.Neighbors documents the contract).
			for _, to := range e.g.Neighbors(env.from) {
				deliveries++
				if deliveries > maxDeliveries {
					e.deliveries = deliveries
					return ErrMaxDeliveries
				}
				s := &nodes[to]
				if lam > s.lam {
					s.lam = lam
				}
				if led != nil {
					led.deliver(env.phase, int(s.lam))
				}
				s.proc.Recv(&ctxs[to], env.from, env.payload)
			}
			continue
		}
		to := env.to
		deliveries++
		if deliveries > maxDeliveries {
			e.deliveries = deliveries
			return ErrMaxDeliveries
		}
		s := &nodes[to]
		if lam > s.lam {
			s.lam = lam
		}
		if led != nil {
			led.deliver(env.phase, int(s.lam))
		}
		s.proc.Recv(&ctxs[to], env.from, env.payload)
	}
}

// deliverLink carries one per-link copy of a transmission: draws the
// sender-side probabilistic fates (unless they were already drawn and this
// is a requeued copy), applies scheduled faults, and runs the receiver's
// handler.
func (e *eventEngine) deliverLink(ctxs []Context, env envelope, to int, sampled bool) error {
	f := e.cfg.faults
	if f != nil && !sampled {
		if f.dropSample(env.from) {
			e.dropped++
			return nil
		}
		// Delay and reorder have no round clock to ride on; both manifest
		// as requeueing at a random position among the pending
		// transmissions. The copy is marked sampled so its fate is
		// not drawn again when it surfaces.
		scatter := f.delaySample(env.from) > 0 || f.reorderSample(env.from)
		dup := f.dupSample(env.from)
		if dup {
			e.duplicated++
		}
		if scatter {
			copyEnv := env
			copyEnv.to = to
			copyEnv.sampled = true
			e.requeueScattered(copyEnv, dup)
			return nil
		}
		if dup {
			copyEnv := env
			copyEnv.to = to
			copyEnv.sampled = true
			e.queue.push(copyEnv) // the extra copy always trails
		}
	}
	if f != nil && f.blocked(env.from, to, env.sentAt, e.now()) {
		e.dropped++
		return nil
	}
	e.deliveries++
	if e.deliveries > e.cfg.maxDeliveries {
		return ErrMaxDeliveries
	}
	s := &e.nodes[to]
	if int32(env.lam) > s.lam {
		s.lam = int32(env.lam)
	}
	if e.cfg.trace != nil {
		e.cfg.trace(Event{Kind: EventDeliver, From: env.from, To: to, Round: -1, Payload: env.payload})
	}
	if e.led != nil {
		e.led.deliver(env.phase, int(s.lam))
	}
	s.proc.Recv(&ctxs[to], env.from, env.payload)
	return nil
}

// requeueScattered inserts a delayed/reordered per-link copy (and its
// optional duplicate) at a random queue position.
func (e *eventEngine) requeueScattered(env envelope, dup bool) {
	rng := e.cfg.scramble
	if rng == nil {
		rng = e.reorderRNG
	}
	e.queue.pushAt(rng.Intn(e.queue.len()+1), env)
	if dup {
		e.queue.pushAt(rng.Intn(e.queue.len()+1), env)
	}
}

// tickPass fires on quiescence: the queue is fully drained, so anything
// that was going to arrive has arrived. The run ends when there are no
// Tickers, or after a pass in which nothing was sent and no Ticker reported
// pending work; each pass consumes one round of the quiescence budget.
func (e *eventEngine) tickPass(ctxs []Context) (bool, error) {
	if len(e.tickers) == 0 {
		return false, nil
	}
	if e.ticks > 0 && e.messages == e.lastPassMessages && !e.passActive {
		return false, nil
	}
	e.ticks++
	if e.ticks > e.cfg.maxRounds {
		return false, ErrMaxRounds
	}
	e.lastPassMessages = e.messages
	e.passActive = false
	for _, i := range e.tickers {
		if e.cfg.faults != nil {
			if down, ahead := e.cfg.faults.crashState(i, e.now()); down {
				if ahead {
					e.passActive = true // its restart is a future event
				}
				continue
			}
		}
		if e.nodes[i].proc.(Ticker).Tick(&ctxs[i]) {
			e.passActive = true
		}
	}
	return true, nil
}

func (e *eventEngine) send(from, to int, payload any, rtx bool) {
	e.messages++
	if e.cfg.trace != nil {
		e.cfg.trace(Event{Kind: EventSend, From: from, To: to, Round: -1, Payload: payload})
	}
	env := envelope{from: from, to: to, payload: payload, sentAt: e.now(), lam: int(e.nodes[from].lam) + 1}
	if e.led != nil {
		env.phase = e.led.send(payload, env.lam, rtx)
	}
	e.enqueue(env)
}

// enqueue queues a transmission. Under a scramble a broadcast is split into
// one copy per neighbour, each placed at its own random position, so every
// link's delivery interleaves independently of its siblings.
func (e *eventEngine) enqueue(env envelope) {
	rng := e.cfg.scramble
	if rng == nil {
		e.queue.push(env)
		return
	}
	if env.to != ToAll {
		e.queue.pushAt(rng.Intn(e.queue.len()+1), env)
		return
	}
	for _, to := range e.g.Neighbors(env.from) {
		env.to = to
		e.queue.pushAt(rng.Intn(e.queue.len()+1), env)
	}
}

// eventQueue is the scheduler's FIFO of pending transmissions: a
// head-indexed slice over a pooled backing array. Pops advance head instead
// of re-slicing; the array resets in place whenever the queue drains, and
// compacts when an append would otherwise grow past a half-dead array, so
// after warm-up the drain loop runs entirely within recycled capacity and
// the footprint tracks the maximum number of OUTSTANDING transmissions, not
// the total ever sent.
type eventQueue struct {
	buf  []envelope
	head int
}

func (q *eventQueue) len() int { return len(q.buf) - q.head }

func (q *eventQueue) push(env envelope) {
	q.compact()
	q.buf = append(q.buf, env)
}

// pushAt places env at the i-th pending slot in O(1): the entry that held
// the slot moves to the tail (i == len appends). Every pending entry keeps
// its position but that one, so env still lands at a uniformly random
// position for a random i, without the memmove of a true insertion.
func (q *eventQueue) pushAt(i int, env envelope) {
	q.compact()
	q.buf = append(q.buf, env)
	at, last := q.head+i, len(q.buf)-1
	q.buf[at], q.buf[last] = q.buf[last], q.buf[at]
}

// compact slides the pending region to the front of the backing array when
// the next append would grow it even though at least half of it is popped
// slack. Without this, a run that never fully drains (the steady state of a
// large protocol) appends its way through memory proportional to every
// transmission ever sent, and the growslice doubling dominates the profile.
// The copy is amortised O(1) per operation: reclaiming cap/2 slots costs at
// most cap/2 moves. Vacated slots are zeroed so no payload outlives its pop.
func (q *eventQueue) compact() {
	if len(q.buf) < cap(q.buf) || q.head <= cap(q.buf)/2 {
		return
	}
	n := copy(q.buf, q.buf[q.head:])
	tail := q.buf[n:]
	for i := range tail {
		tail[i] = envelope{}
	}
	q.buf = q.buf[:n]
	q.head = 0
}

func (q *eventQueue) pop() (envelope, bool) {
	if q.head == len(q.buf) {
		return envelope{}, false
	}
	env := q.buf[q.head]
	q.buf[q.head] = envelope{} // drop the payload reference now
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return env, true
}

// release returns the backing array to the shared envelope pool.
func (q *eventQueue) release() {
	if q.buf != nil {
		putEnvBatch(q.buf)
		q.buf = nil
		q.head = 0
	}
}
