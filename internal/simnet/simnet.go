// Package simnet is the message-passing simulation kernel the distributed
// WCDS protocols run on.
//
// A protocol is a set of per-node state machines (Proc). The kernel wires
// them over the links of a unit-disk graph and delivers messages with one
// of three engines (see also the Engine enum):
//
//   - RunSync: a deterministic synchronous-round engine. All messages sent
//     in round r are delivered in round r+1 (plus any injected delay), in
//     (receiver, send sequence) order. The round count is the protocol's
//     time complexity measure. Sends append per-link copies to a ring of
//     per-round buckets in sequence order, so a stable radix ordering by
//     receiver gives exactly that order: a round costs O(its deliveries),
//     with no comparison sort, no map and no steady-state allocation.
//   - RunEvent: the fully asynchronous event-driven model the paper
//     describes, on a single-scheduler core — one goroutine draining a
//     pooled transmission queue, struct-of-arrays node state, near-zero
//     steady-state allocations. It is the engine that makes million-node
//     runs feasible. Its native order is deterministic FIFO.
//   - EngineAsync: the event engine under a per-link seeded scramble. Every
//     per-link copy lands at its own seeded-random queue position, so the
//     links of one broadcast interleave independently, and each seed
//     replays exactly.
//
// All engines run the identical Proc code, so every protocol in this
// repository can be checked for schedule independence by running it under
// each engine (and under randomized schedules via WithScramble).
//
// The kernel also carries a composable fault model (see faults.go): loss,
// duplication, delay, reordering, node crash/restart, partitions and link
// downtimes, all derived deterministically from a plan seed. Protocols that
// must survive those faults wrap themselves in the reliable subpackage's
// ack/retransmit layer, which is driven by the quiescence ticks described
// at the Ticker interface.
//
// Message accounting follows the wireless convention of the paper: a local
// broadcast is ONE message regardless of neighbour count, because a single
// radio transmission reaches every neighbour. Per-link deliveries are
// tracked separately.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/obs"
)

// Proc is the per-node protocol state machine. The kernel guarantees that
// Init, Recv and Tick for one node never run concurrently with each other,
// so Proc implementations need no internal locking.
type Proc interface {
	// Init runs once per node before any message is delivered to it.
	Init(ctx *Context)
	// Recv handles one delivered message. from is the sender's node index.
	Recv(ctx *Context, from int, payload any)
}

// Ticker is an optional Proc extension giving a node a logical retry timer.
// When the whole network is quiescent — no handler running, no message in
// flight or scheduled — the engine runs a tick pass, invoking Tick once on
// every Ticker node. A tick is therefore a conservative timeout: by the
// time it fires, anything that was going to arrive has arrived, so state
// that is still missing is genuinely lost and may be retransmitted.
//
// Tick reports whether the node still has pending work (unacked messages,
// a backoff it is waiting out). The run ends after a tick pass in which no
// node sent anything and no node reported pending work. Each tick pass
// consumes one round of the WithMaxRounds quiescence budget, bounding
// retry loops the same way non-quiescent protocols are bounded.
type Ticker interface {
	Proc
	// Tick fires on network quiescence; it returns true while the node
	// still has pending timed work.
	Tick(ctx *Context) bool
}

// Stats reports the cost of a protocol run.
type Stats struct {
	// Messages counts radio transmissions: one per Broadcast and one per
	// unicast Send (including the reliable layer's acks and retransmits).
	Messages int
	// Deliveries counts per-link receptions (a Broadcast to k neighbours
	// adds k).
	Deliveries int
	// Rounds is the number of synchronous rounds used (0 for the
	// asynchronous engines).
	Rounds int
	// RoundEstimate is a logical-time extent for the run: under RunSync it
	// equals Rounds; under the event and async engines it is a
	// Lamport-style estimate — the length of the longest causal message
	// chain any node observed. It lets async budget errors and phase spans
	// report "how deep" a run got even though the asynchronous model has
	// no synchronous round clock. The estimate depends on the schedule
	// (each async seed gives its own) and is therefore excluded from
	// canonical digests (batch reports keep Rounds, which stays 0 for
	// asynchronous runs).
	RoundEstimate int
	// Ticks counts quiescence tick passes (retry-timer epochs); 0 for
	// protocols without Tickers.
	Ticks int
	// Dropped counts deliveries lost to injected faults: probabilistic
	// loss plus crash/partition/link blackouts.
	Dropped int
	// Duplicated counts extra fault-injected delivery copies enqueued.
	Duplicated int

	// The remaining counters belong to the reliable ack/retransmit layer
	// (internal/simnet/reliable); the kernel leaves them zero and the
	// layer's Collector merges them in after the run.

	// Retransmits counts data retransmissions sent by the reliable layer.
	Retransmits int
	// DupsSuppressed counts duplicate data deliveries the reliable layer
	// absorbed before they reached protocol code.
	DupsSuppressed int
	// Acks counts acknowledgement messages sent by the reliable layer.
	Acks int
	// Abandoned counts messages the reliable layer gave up on after
	// exhausting their retry budget.
	Abandoned int
}

// Errors returned by the engines.
var (
	ErrMaxRounds     = errors.New("simnet: protocol did not quiesce within the round budget")
	ErrMaxDeliveries = errors.New("simnet: protocol exceeded the delivery budget")
)

// cancelErr wraps a context expiry so callers can dispatch on the cause
// with errors.Is(err, context.Canceled/DeadlineExceeded). round is -1 when
// the engine has no round clock (RunEvent).
func cancelErr(round int, err error) error {
	if round < 0 {
		return fmt.Errorf("simnet: run cancelled: %w", err)
	}
	return fmt.Errorf("simnet: run cancelled at round %d: %w", round, err)
}

// EventKind classifies trace events.
type EventKind int

// Trace event kinds.
const (
	EventSend EventKind = iota + 1
	EventDeliver
)

// Event is a trace record emitted when a trace hook is installed.
type Event struct {
	Kind    EventKind
	From    int
	To      int // -1 for a broadcast send event
	Round   int // sync engine only; -1 under the event and async engines
	Payload any
}

// Option configures an engine run.
type Option func(*config)

type config struct {
	maxRounds     int
	maxDeliveries int
	trace         func(Event)
	scramble      *rand.Rand
	plan          *FaultPlan
	faults        *faultState
	ctx           context.Context
	led           *ledger // nil when the run is not observed
}

// WithMaxRounds sets the quiescence budget: the maximum number of
// synchronous rounds (RunSync) or quiescence tick passes (RunEvent) before
// the engine aborts with ErrMaxRounds. The default is 20·n + 1000. Faulty
// runs with retransmission legitimately need more rounds than the paper's
// lossless complexity bounds suggest; raise the budget for heavy fault
// plans.
func WithMaxRounds(r int) Option {
	return func(c *config) { c.maxRounds = r }
}

// WithMaxDeliveries bounds the total number of per-link deliveries in either
// engine, guarding against non-quiescent protocols. Default 50,000,000.
func WithMaxDeliveries(d int) Option {
	return func(c *config) { c.maxDeliveries = d }
}

// WithTrace installs a hook invoked for every send and delivery. Every
// engine calls it from the goroutine that runs the protocol.
func WithTrace(fn func(Event)) Option {
	return func(c *config) { c.trace = fn }
}

// WithScramble randomizes delivery order using rng: the synchronous engine
// shuffles each round's delivery order, and the event engine places every
// per-link copy at its own random queue position (the schedule EngineAsync
// always runs under). Use it to probe protocols for schedule dependence;
// the same seed replays the same schedule.
func WithScramble(rng *rand.Rand) Option {
	return func(c *config) { c.scramble = rng }
}

// WithContext makes the run cancellable: the synchronous engine checks ctx
// before every round and every quiescence tick pass, and the event engine
// every few thousand deliveries and at every quiescence. A cancelled run returns
// the stats accumulated so far and an error wrapping ctx.Err()
// (context.Canceled or context.DeadlineExceeded), so callers can
// errors.Is-dispatch on the cause.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithObserver installs a phase-scoped recorder: every send, delivery and
// retransmission (Context.Retransmit) is attributed to classify(payload).
// classify must be pure; it is called once per transmission, from the
// goroutine that runs the protocol, and never on delivery: each per-link
// copy carries its transmission's phase. A nil classify attributes
// everything to "all".
//
// A nil rec or obs.Nop leaves the run unobserved. An *obs.Spans is fed
// from a per-run ledger that the engine keeps without locks and merges
// into it once, when the run returns (see ledger for the wall-time rule);
// observed event runs keep the fault-free fast delivery loop. Any other
// Recorder receives one Event call per event as it happens.
func WithObserver(rec obs.Recorder, classify func(payload any) string) Option {
	return func(c *config) { c.led = newLedger(rec, classify) }
}

func buildConfig(n int, opts []Option) (*config, error) {
	c := &config{
		maxRounds:     20*n + 1000,
		maxDeliveries: 50_000_000,
		ctx:           context.Background(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	if c.plan != nil {
		f, err := compileFaults(c.plan, n)
		if err != nil {
			return nil, err
		}
		c.faults = f
	}
	return c, nil
}

// Context is a node's handle to the kernel, passed to every Init, Recv and
// Tick call. The kernel reuses one Context per node for the whole run, so
// state installed with SetSendHook persists across calls; the pointer is
// only valid inside handler invocations.
type Context struct {
	node     int
	g        *graph.Graph
	bk       backend
	sendHook func(to int, payload any)
	sender   int // whose frame Recv is handling now; -1 outside Recv
}

// recv hands p the frame from `from`. While it runs, a SendDirect back to
// `from` skips the neighbour scan: the delivery has just crossed that link.
func (c *Context) recv(p Proc, from int, payload any) {
	c.sender = from
	p.Recv(c, from, payload)
	c.sender = -1
}

// backend is an engine's transmit side: send puts one transmission on the
// air, to one neighbour or to all of them for to == ToAll. rtx marks a
// retransmission, which an observed run counts on top of the transmission.
type backend interface {
	send(from, to int, payload any, rtx bool)
}

// ToAll is the hook target SetSendHook receives for a Broadcast.
const ToAll = -1

// Node returns the index of the node this context belongs to.
func (c *Context) Node() int { return c.node }

// Degree returns the number of radio neighbours of this node.
func (c *Context) Degree() int { return c.g.Degree(c.node) }

// Neighbors returns this node's radio neighbours. The slice is shared;
// callers must not modify it.
func (c *Context) Neighbors() []int { return c.g.Neighbors(c.node) }

// SetSendHook diverts this node's outgoing traffic: after installation,
// Broadcast calls fn(ToAll, payload) and Send calls fn(to, payload) instead
// of transmitting. The hook puts (possibly rewritten) traffic on the air
// with BroadcastDirect/SendDirect. Reliability layers use this to wrap
// protocol messages without the protocol's cooperation; install with fn nil
// to remove. The hook persists for the rest of the run.
func (c *Context) SetSendHook(fn func(to int, payload any)) { c.sendHook = fn }

// Broadcast transmits payload to every radio neighbour. It costs one
// message.
func (c *Context) Broadcast(payload any) {
	if c.sendHook != nil {
		c.sendHook(ToAll, payload)
		return
	}
	c.bk.send(c.node, ToAll, payload, false)
}

// Send transmits payload to the single neighbour `to`. Sending to a
// non-neighbour is a protocol bug and panics.
func (c *Context) Send(to int, payload any) {
	c.mustNeighbor(to)
	if c.sendHook != nil {
		c.sendHook(to, payload)
		return
	}
	c.bk.send(c.node, to, payload, false)
}

// BroadcastDirect transmits bypassing the send hook (for the hook's own
// wire traffic).
func (c *Context) BroadcastDirect(payload any) {
	c.bk.send(c.node, ToAll, payload, false)
}

// SendDirect unicasts bypassing the send hook. Sending to a
// non-neighbour panics, as with Send.
func (c *Context) SendDirect(to int, payload any) {
	if to != c.sender {
		c.mustNeighbor(to)
	}
	c.bk.send(c.node, to, payload, false)
}

// Retransmit re-sends a frame bypassing the send hook: to the neighbour
// `to`, or to every neighbour for to == ToAll. It costs one message like
// any transmission, and an observed run also counts it as a retransmission
// of the frame's phase.
func (c *Context) Retransmit(to int, payload any) {
	if to != ToAll {
		c.mustNeighbor(to)
	}
	c.bk.send(c.node, to, payload, true)
}

// mustNeighbor panics unless `to` is a radio neighbour: sending to a
// non-neighbour is a protocol bug.
func (c *Context) mustNeighbor(to int) {
	if !c.g.HasEdge(c.node, to) {
		panic(fmt.Sprintf("simnet: node %d sent to non-neighbour %d", c.node, to))
	}
}

// validate checks the engine inputs shared by both engines.
func validate(g *graph.Graph, procs []Proc) error {
	if g == nil {
		return errors.New("simnet: nil graph")
	}
	if len(procs) != g.N() {
		return fmt.Errorf("simnet: %d procs for %d nodes", len(procs), g.N())
	}
	for i, p := range procs {
		if p == nil {
			return fmt.Errorf("simnet: nil proc at node %d", i)
		}
	}
	return nil
}

// tickerNodes lists the proc indices implementing Ticker, in one
// allocation (reliable runs wrap every proc in a Ticker).
func tickerNodes(procs []Proc) []int {
	n := 0
	for _, p := range procs {
		if _, ok := p.(Ticker); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ts := make([]int, 0, n)
	for i, p := range procs {
		if _, ok := p.(Ticker); ok {
			ts = append(ts, i)
		}
	}
	return ts
}

// envelope is a queued message of the event engine (the synchronous engine
// queues the compact syncCopy instead).
type envelope struct {
	from    int
	to      int // receiver, or ToAll for an unscrambled broadcast
	payload any
	sentAt  int   // logical send time, for scheduled-fault checks
	lam     int   // Lamport stamp (sender clock + 1)
	sampled bool  // fault fate already drawn, deliver as-is
	phase   int32 // ledger phase index of an observed run (in the padding)
}

// envBatchPool recycles the event engine's queue backing arrays: a batch
// sweep running thousands of simulations would otherwise re-allocate the
// same queue slices for every run. Batches are
// zeroed before they are returned so pooled memory never pins protocol
// payloads.
var envBatchPool = sync.Pool{
	New: func() any {
		b := make([]envelope, 0, 64)
		return &b
	},
}

func getEnvBatch() []envelope {
	return (*envBatchPool.Get().(*[]envelope))[:0]
}

func putEnvBatch(b []envelope) {
	for i := range b {
		b[i] = envelope{}
	}
	b = b[:0]
	envBatchPool.Put(&b)
}

// RunSync executes the protocol under the synchronous-round model and
// returns the run cost. It terminates when the network quiesces (no message
// pending and, for protocols with Tickers, a tick pass reporting no
// activity), or fails with ErrMaxRounds/ErrMaxDeliveries.
//
// Each round is delivered in (receiver, send sequence) order. Every send
// takes the next sequence number and schedules all of its per-link copies,
// delayed and duplicated ones included, at send time, so each round's batch
// is appended in non-decreasing sequence order. A stable bucketing of the
// batch by receiver therefore yields exactly the (receiver, sequence)
// order; the only equal pairs are a copy and its fault duplicate, which are
// identical. WithScramble shuffles that same starting order.
//
// Cost model: a send stores its payload once and appends one 12-byte
// (receiver, transmission) entry per per-link copy to a ring of per-round
// buckets spanning the farthest round the fault plan can schedule a copy to
// (1 + DelayMax + reorder + duplicate trail). Delivering a round costs
// O(deliveries): the receiver ordering is an LSD radix sort whose digit
// width tracks the batch size, so a round carrying a few deliveries on a
// large graph does not pay O(n). There is no comparison sort and no map.
// Buckets and radix scratch are recycled across rounds and runs, so after
// warm-up a run allocates a constant amount independent of n (pinned by
// TestSyncEngineSteadyStateAllocs).
func RunSync(g *graph.Graph, procs []Proc, opts ...Option) (Stats, error) {
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

	eng := getSyncEngine(cfg, g)
	defer eng.release()
	led := cfg.led
	defer led.flush()
	ctxs := eng.ctxs
	tickers := tickerNodes(procs)

	// Round 0: Init in index order; sends queue for round 1 onward.
	for i := range procs {
		procs[i].Init(&ctxs[i])
	}

	for {
		// One cancellation check per round (and per tick pass): a cancelled
		// run returns within the round it was cancelled in.
		if err := cfg.ctx.Err(); err != nil {
			return eng.stats(), cancelErr(eng.round, err)
		}
		next, ok := eng.nextRound()
		if !ok {
			// Quiescent: run a tick pass, or finish if there is nothing
			// left to wake.
			cont, err := eng.tickPass(procs, ctxs, tickers)
			if err != nil {
				return eng.stats(), err
			}
			if !cont {
				return eng.stats(), nil
			}
			continue
		}
		if next > eng.maxRound {
			return eng.stats(), ErrMaxRounds
		}
		batch := eng.take(next)
		if cfg.scramble != nil {
			cfg.scramble.Shuffle(len(batch), func(i, j int) {
				batch[i], batch[j] = batch[j], batch[i]
			})
		}
		for _, c := range batch {
			// Read the transmission by value: handlers append to the
			// current round's slot, which a far copy admitted this round
			// refers to.
			tx := eng.ring[c.slot].txs[c.tx]
			to, from := int(c.to), int(tx.from)
			if cfg.faults != nil && cfg.faults.blocked(from, to, tx.sentAt, eng.round) {
				eng.dropped++
				continue
			}
			eng.deliveries++
			if eng.deliveries > cfg.maxDeliveries {
				return eng.stats(), ErrMaxDeliveries
			}
			if cfg.trace != nil {
				cfg.trace(Event{Kind: EventDeliver, From: from, To: to, Round: eng.round, Payload: tx.payload})
			}
			if led != nil {
				led.deliver(tx.phase, eng.round)
			}
			ctxs[to].recv(procs[to], from, tx.payload)
		}
		eng.finishRound()
	}
}

// syncTx is one transmission of the synchronous engine. Its payload is
// stored once, however many per-link copies it has. The sender and the
// phase index share one word, so observing a run does not grow the ring.
type syncTx struct {
	payload any
	from    int32
	phase   int32 // ledger phase index of an observed run
	sentAt  int   // send round, for scheduled-fault checks
}

// syncCopy is one scheduled per-link delivery: the receiver and the
// transmission it carries, ring[slot].txs[tx]. It holds no pointer, so the
// buckets and the radix scatter cost the garbage collector nothing. It
// carries no sequence number either: append order within a round's bucket
// is send order (see RunSync).
type syncCopy struct {
	to, slot, tx int32
}

// farCopy is a copy scheduled past the ring's horizon (only fault plans
// with a very large DelayMax produce them). It keeps its own transmission
// because the send round's slot is recycled before it is due.
type farCopy struct {
	at int
	to int32
	tx syncTx
}

const (
	// maxRingRounds caps the ring of round buckets; copies scheduled
	// farther ahead wait in the far list instead, so a huge DelayMax costs
	// memory per copy in flight rather than per round of delay. Rounds past
	// math.MaxInt-maxRingRounds count as over budget, so round arithmetic
	// never overflows.
	maxRingRounds = 64
	// maxDigitBits bounds the radix digit, and with it the per-pass
	// counting table, to 2048 entries.
	maxDigitBits = 11
)

// syncSlot is one round's entry in the engine's ring: the copies due in
// that round, in send order, and the transmissions sent in it.
type syncSlot struct {
	due []syncCopy
	txs []syncTx
}

// syncEngine is the synchronous engine's run state. Engines are pooled:
// the node contexts, ring slots, radix scratch and far list keep their
// capacity from one run to the next, which is what makes a warmed-up
// run's allocation count independent of the graph size.
type syncEngine struct {
	cfg  *config
	g    *graph.Graph
	ctxs []Context // one per node

	// ring[r % len(ring)] is round r's slot, for the current round (slot)
	// and every pending one. A ring copy is due at most len(ring)-1 rounds
	// after its send (far copies carry their own transmission), so a slot's
	// transmissions are dead by the time the slot comes round again.
	ring   []syncSlot
	slot   int
	queued int       // copies held in ring
	far    []farCopy // copies beyond the ring, in send order

	sorted []syncCopy // radix scatter buffer
	counts []int32    // radix digit counts, up to 1<<maxDigitBits
	toBits int        // bit length of the largest node index

	round      int // round currently being delivered
	maxRound   int // last round the budget allows
	messages   int
	deliveries int
	dropped    int
	duplicated int
	ticks      int
}

var syncEnginePool = sync.Pool{New: func() any { return new(syncEngine) }}

func getSyncEngine(cfg *config, g *graph.Graph) *syncEngine {
	e := syncEnginePool.Get().(*syncEngine)
	e.cfg, e.g = cfg, g
	e.toBits = bits.Len(uint(g.N() - 1))
	e.maxRound = min(cfg.maxRounds, math.MaxInt-maxRingRounds)
	// The farthest a copy can land is 1 round of latency, plus DelayMax,
	// plus one reorder round or the duplicate's one-round trail.
	horizon := 1
	if cfg.faults != nil {
		horizon = 2 + min(cfg.faults.plan.DelayMax, maxRingRounds)
	}
	k := min(horizon+1, maxRingRounds)
	if cap(e.ring) < k {
		e.ring = append(e.ring[:cap(e.ring)], make([]syncSlot, k-cap(e.ring))...)
	}
	e.ring = e.ring[:k]
	if cap(e.ctxs) < g.N() {
		e.ctxs = make([]Context, g.N())
	}
	e.ctxs = e.ctxs[:g.N()]
	for i := range e.ctxs {
		e.ctxs[i] = Context{node: i, g: g, bk: e, sender: -1}
	}
	return e
}

// release drops every payload, graph and hook reference the engine still
// holds and returns it to the pool; copies an aborted run left queued are
// discarded. Contexts handed to handlers are only valid inside handler
// invocations, so recycling them is safe.
func (e *syncEngine) release() {
	ring := e.ring[:cap(e.ring)]
	for i := range ring {
		clear(ring[i].txs)
		ring[i] = syncSlot{due: ring[i].due[:0], txs: ring[i].txs[:0]}
	}
	clear(e.far)
	clear(e.ctxs)
	*e = syncEngine{ctxs: e.ctxs[:0], ring: ring, far: e.far[:0], sorted: e.sorted, counts: e.counts}
	syncEnginePool.Put(e)
}

// nextRound returns the earliest round with pending deliveries. Ring rounds
// always precede far ones: take admits every far copy due within
// len(ring) rounds of the round it starts, and a send lands in the far list
// only when it is due at least len(ring) rounds ahead.
func (e *syncEngine) nextRound() (int, bool) {
	if e.queued > 0 {
		for d := 1; ; d++ {
			if len(e.ring[e.bucket(d)].due) > 0 {
				return e.round + d, true
			}
		}
	}
	if len(e.far) == 0 {
		return 0, false
	}
	next := e.far[0].at
	for _, c := range e.far[1:] {
		next = min(next, c.at)
	}
	return next, true
}

// setRound makes r the current round and recycles its transmission slot.
func (e *syncEngine) setRound(r int) {
	e.round = r
	e.slot = r % len(e.ring)
	cur := &e.ring[e.slot]
	clear(cur.txs)
	cur.txs = cur.txs[:0]
}

// take advances to round r and returns its batch ordered by receiver. The
// batch stays valid until finishRound: sends made while it is delivered
// land in other buckets.
func (e *syncEngine) take(r int) []syncCopy {
	e.setRound(r)
	if len(e.far) > 0 {
		e.admitFar()
	}
	batch := e.ring[e.slot].due
	e.queued -= len(batch)
	return e.orderByReceiver(batch)
}

// finishRound recycles the delivered round's bucket.
func (e *syncEngine) finishRound() {
	e.ring[e.slot].due = e.ring[e.slot].due[:0]
}

// admitFar moves far copies that now fall inside the ring into their
// buckets, re-sending their transmissions from the current round's slot,
// and keeps the rest in order. A far copy for round t was sent at least
// len(ring) rounds before t, so it precedes every copy the ring receives
// for t, and no copy for t has reached the ring yet: appending keeps each
// bucket in send order.
func (e *syncEngine) admitFar() {
	kept := e.far[:0]
	for _, c := range e.far {
		d := c.at - e.round
		if d >= len(e.ring) {
			kept = append(kept, c)
			continue
		}
		s := &e.ring[(e.slot+d)%len(e.ring)]
		s.due = append(s.due, syncCopy{to: c.to, slot: int32(e.slot), tx: e.newTx(c.tx)})
		e.queued++
	}
	clear(e.far[len(kept):])
	e.far = kept
}

// orderByReceiver stably orders batch by receiver with an LSD radix sort.
// The digit width follows the batch size (up to maxDigitBits), so a pass
// costs O(len(batch)) and a sparse round on a large graph pays a few cheap
// passes instead of an O(n) counting table. A pass in which every copy
// shares the digit is skipped. The result aliases either batch or the
// engine's scatter buffer.
func (e *syncEngine) orderByReceiver(batch []syncCopy) []syncCopy {
	m := len(batch)
	if m < 2 || e.toBits == 0 {
		return batch
	}
	w := min(bits.Len(uint(m)), maxDigitBits)
	passes := (e.toBits + w - 1) / w
	w = (e.toBits + passes - 1) / passes
	if cap(e.sorted) < m {
		e.sorted = slices.Grow(e.sorted[:0], m)
	}
	if len(e.counts) < 1<<w {
		e.counts = make([]int32, 1<<w)
	}
	mask := int32(1)<<w - 1
	src, dst := batch, e.sorted[:m]
	for shift := 0; shift < e.toBits; shift += w {
		counts := e.counts[:1<<w]
		clear(counts)
		for _, c := range src {
			counts[(c.to>>shift)&mask]++
		}
		if counts[(src[0].to>>shift)&mask] == int32(m) {
			continue
		}
		var sum int32
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, c := range src {
			d := (c.to >> shift) & mask
			dst[counts[d]] = c
			counts[d]++
		}
		src, dst = dst, src
	}
	return src
}

// tickPass runs one quiescence tick over all Ticker nodes. It reports
// whether the run should continue (new traffic was generated, a node still
// has pending work, or a crashed node's restart lies ahead).
func (e *syncEngine) tickPass(procs []Proc, ctxs []Context, tickers []int) (bool, error) {
	if len(tickers) == 0 {
		return false, nil
	}
	e.ticks++
	e.setRound(e.round + 1)
	if e.round > e.maxRound {
		return false, ErrMaxRounds
	}
	msgsBefore := e.messages
	active := false
	for _, i := range tickers {
		if e.cfg.faults != nil {
			if down, ahead := e.cfg.faults.crashState(i, e.round); down {
				if ahead {
					active = true // its restart is a future event
				}
				continue
			}
		}
		if procs[i].(Ticker).Tick(&ctxs[i]) {
			active = true
		}
	}
	return e.messages != msgsBefore || active || e.queued > 0 || len(e.far) > 0, nil
}

func (e *syncEngine) stats() Stats {
	return Stats{
		Messages:      e.messages,
		Deliveries:    e.deliveries,
		Rounds:        e.round,
		RoundEstimate: e.round,
		Ticks:         e.ticks,
		Dropped:       e.dropped,
		Duplicated:    e.duplicated,
	}
}

// newTx stores a transmission in the current round's slot and returns its
// index there.
func (e *syncEngine) newTx(tx syncTx) int32 {
	cur := &e.ring[e.slot]
	cur.txs = append(cur.txs, tx)
	return int32(len(cur.txs) - 1)
}

func (e *syncEngine) send(from, to int, payload any, rtx bool) {
	e.messages++
	if e.cfg.trace != nil {
		e.cfg.trace(Event{Kind: EventSend, From: from, To: to, Round: -1, Payload: payload})
	}
	tx := syncTx{payload: payload, from: int32(from), sentAt: e.round}
	if e.cfg.led != nil {
		tx.phase = e.cfg.led.send(payload, e.round, rtx)
	}
	c := syncCopy{to: int32(to), slot: int32(e.slot), tx: e.newTx(tx)}
	if to != ToAll {
		e.enqueueCopy(c)
		return
	}
	for _, w := range e.g.Neighbors(from) {
		c.to = int32(w)
		e.enqueueCopy(c)
	}
}

// enqueueCopy schedules one per-link delivery, applying the sender-side
// probabilistic faults: loss, extra delay, reordering (one extra round in
// the round model) and duplication.
func (e *syncEngine) enqueueCopy(c syncCopy) {
	f := e.cfg.faults
	if f == nil {
		e.enqueueAt(1, c)
		return
	}
	from := int(e.ring[c.slot].txs[c.tx].from)
	if f.dropSample(from) {
		e.dropped++
		return
	}
	// DelayMax comes from clients and may be near math.MaxInt, so the
	// additions saturate.
	delay := addSat(f.delaySample(from), 1)
	if f.reorderSample(from) {
		delay = addSat(delay, 1)
	}
	e.enqueueAt(delay, c)
	if f.dupSample(from) {
		e.duplicated++
		e.enqueueAt(addSat(f.delaySample(from), 2), c) // the copy always trails
	}
}

// bucket returns the ring index of the round d rounds ahead (0 < d <
// len(ring)).
func (e *syncEngine) bucket(d int) int {
	s := e.slot + d
	if s >= len(e.ring) {
		s -= len(e.ring)
	}
	return s
}

// enqueueAt schedules c for the round d >= 1 rounds ahead.
func (e *syncEngine) enqueueAt(d int, c syncCopy) {
	if d >= len(e.ring) {
		e.far = append(e.far, farCopy{at: addSat(e.round, d), to: c.to, tx: e.ring[c.slot].txs[c.tx]})
		return
	}
	s := &e.ring[e.bucket(d)]
	s.due = append(s.due, c)
	e.queued++
}

// addSat returns a+b for b >= 0, saturating at math.MaxInt.
func addSat(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}
