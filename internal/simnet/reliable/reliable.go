// Package reliable is an ack/retransmit wrapper that gives the repository's
// protocols reliable, exactly-once local broadcast over simnet's faulty
// links — the assumption the paper's Algorithms I/II are specified under.
//
// Every outgoing protocol message (broadcast or unicast) is wrapped in a
// Data frame carrying a per-sender sequence number. Each receiver
// acknowledges every Data frame it hears — including duplicates, because
// the ack itself may have been lost — and delivers the payload to the
// wrapped protocol exactly once. The sender tracks, per frame, the set of
// neighbours that have not acked yet and retransmits on its retry timer
// until the set empties or the retry budget runs out.
//
// The retry timer is simnet's quiescence tick (see simnet.Ticker): a tick
// fires only when the whole network has drained, so by the time it fires a
// missing ack is genuinely lost, not late. Retries back off in tick units
// and are bounded by MaxRetries; a message still unacked after the budget
// is abandoned (counted in Stats.Abandoned), which surfaces as a detectable
// protocol failure (undecided nodes) rather than a silent wrong answer.
//
// With the default budget the layer delivers with overwhelming probability
// at loss rates well beyond 30%, so a Deferred-mode Algorithm II run under
// heavy loss converges to the exact same WCDS as a lossless run — the
// property tests in internal/wcds assert equality seed by seed.
//
// Accounting: the wrapper's frames ride the normal kernel counters
// (Stats.Messages counts acks and retransmits too — the radio does
// transmit them). The layer's own counters are merged into simnet.Stats by
// the Collector so callers can separate protocol cost (the paper's message
// complexity) from reliability overhead.
package reliable

import (
	"sync"

	"wcdsnet/internal/simnet"
)

// Data is the wire frame around one protocol message.
type Data struct {
	Seq     int
	Payload any
}

// Ack acknowledges one Data frame from the sending node.
type Ack struct {
	Seq int
}

// Options tunes the retransmission policy. The zero value gets defaults.
type Options struct {
	// MaxRetries bounds retransmissions per message (not counting the
	// original transmission). Default 25: at 30% loss the chance a given
	// link delivery fails all 26 attempts is 0.3^26 ≈ 2.5e-14.
	MaxRetries int
	// Backoff maps the retry attempt number (1-based) to the number of
	// ticks to wait before that retransmission. Default: capped
	// exponential 1, 2, 4, 8, 8, ...
	Backoff func(attempt int) int
}

func (o Options) withDefaults() Options {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 25
	}
	if o.Backoff == nil {
		o.Backoff = func(attempt int) int {
			if attempt > 3 {
				return 8
			}
			return 1 << (attempt - 1)
		}
	}
	return o
}

// Stats aggregates the layer's counters across all nodes of a run.
type Stats struct {
	// Retransmits counts data frames re-sent after a retry timer fired.
	Retransmits int
	// DupsSuppressed counts duplicate data deliveries absorbed before
	// reaching the protocol.
	DupsSuppressed int
	// Acks counts acknowledgement unicasts sent.
	Acks int
	// Abandoned counts frames given up on after the retry budget.
	Abandoned int
}

// Collector reads the per-node counters after a run.
type Collector struct {
	procs []proc
}

// Stats sums the layer counters across nodes.
func (c *Collector) Stats() Stats {
	var s Stats
	for i := range c.procs {
		p := &c.procs[i]
		s.Retransmits += p.retransmits
		s.DupsSuppressed += p.dups
		s.Acks += p.acks
		s.Abandoned += p.abandoned
	}
	return s
}

// MergeInto copies the layer counters into a kernel Stats value (the
// facade's RunStats), which carries dedicated fields for them.
func (c *Collector) MergeInto(st *simnet.Stats) {
	s := c.Stats()
	st.Retransmits = s.Retransmits
	st.DupsSuppressed = s.DupsSuppressed
	st.Acks = s.Acks
	st.Abandoned = s.Abandoned
}

// Wrap returns procs wrapped in the reliability layer, plus the Collector
// for its counters. The wrapped procs implement simnet.Ticker; run them on
// either engine. All wrappers are carved from one slab owned by the
// Collector, so wrapping costs a constant number of allocations whatever
// the node count; per-neighbour state is sized at Init, when the node's
// neighbourhood is known.
func Wrap(procs []simnet.Proc, opt Options) ([]simnet.Proc, *Collector) {
	opt = opt.withDefaults()
	out := make([]simnet.Proc, len(procs))
	col := &Collector{procs: make([]proc, len(procs))}
	for i, inner := range procs {
		p := &col.procs[i]
		p.inner, p.opt = inner, opt
		out[i] = p
	}
	return out, col
}

// outstanding is one not-yet-fully-acked data frame. A record retires to
// outPool on its last ack or when its retry budget runs out, so a batch
// sweep, which frames every protocol message of every scenario, reuses
// records instead of allocating one per frame.
type outstanding struct {
	to    int // simnet.ToAll for a broadcast
	frame any // the Data frame boxed once; retransmits resend it
	// waiting is a bitset over the sender's neighbour slots that have not
	// acked; pending counts its set bits.
	waiting  []uint64
	pending  int
	attempts int // transmissions so far (original included)
	nextTick int // earliest tick allowed to retransmit
}

// reset sizes the waiting bitset for a sender of degree deg, all clear.
func (o *outstanding) reset(deg int) {
	words := (deg + 63) >> 6
	if cap(o.waiting) < words {
		o.waiting = make([]uint64, words)
	}
	o.waiting = o.waiting[:words]
	clear(o.waiting)
}

// waitAll marks every one of the deg neighbour slots as waiting.
func (o *outstanding) waitAll(deg int) {
	for i := range o.waiting {
		o.waiting[i] = ^uint64(0)
	}
	if r := deg & 63; r != 0 {
		o.waiting[len(o.waiting)-1] = 1<<r - 1
	}
	o.pending = deg
}

// ack clears slot's waiting bit and reports whether it was set, so a
// duplicate ack (or one from a neighbour the frame never waited for)
// changes nothing.
func (o *outstanding) ack(slot int) bool {
	bit := uint64(1) << (slot & 63)
	w := &o.waiting[slot>>6]
	if *w&bit == 0 {
		return false
	}
	*w &^= bit
	o.pending--
	return true
}

// outPool recycles outstanding records across messages and runs. Records
// are scrubbed on put (only the bitset's storage is kept) so pooled
// memory never pins protocol payloads.
var outPool = sync.Pool{New: func() any { return new(outstanding) }}

func getOutstanding() *outstanding { return outPool.Get().(*outstanding) }

func putOutstanding(o *outstanding) {
	*o = outstanding{waiting: o.waiting[:0]}
	outPool.Put(o)
}

// proc wraps one node's protocol in the reliability layer. Per-neighbour
// state is addressed by slot, the neighbour's index in nbrs.
type proc struct {
	inner simnet.Proc
	opt   Options

	nbrs []int // ctx.Neighbors(), kept at Init

	// bySeq holds the live frames indexed by sequence number, which counts
	// up from zero per sender, so it is also send order — the order Tick
	// retransmits in. An entry is nil once its frame is fully acked or
	// abandoned (or had no neighbour to wait for), so late acks find
	// nothing. Entries below live are all nil.
	bySeq []*outstanding
	live  int
	// seen[slot] is the bitmap of sequence numbers 0..63 already delivered
	// from that neighbour. seenOver[slot][k] continues it for 64(k+1) on;
	// it is allocated only once some neighbour's sequence passes 63.
	seen     []uint64
	seenOver [][]uint64
	tickNo   int

	retransmits int
	dups        int
	acks        int
	abandoned   int
}

// slotOf returns the slot of neighbour v, or -1 if v is not a neighbour.
// A linear scan: at radio degrees (tens) it beats a binary search, whose
// branches mispredict, and it needs no sorted adjacency.
func (p *proc) slotOf(v int) int {
	for i, w := range p.nbrs {
		if w == v {
			return i
		}
	}
	return -1
}

// markSeen records seq from the neighbour in slot and reports whether it
// was already present.
func (p *proc) markSeen(slot, seq int) bool {
	word := &p.seen[slot]
	if seq >= 64 {
		if p.seenOver == nil {
			p.seenOver = make([][]uint64, len(p.nbrs))
		}
		k := seq>>6 - 1
		over := p.seenOver[slot]
		for len(over) <= k {
			over = append(over, 0)
		}
		p.seenOver[slot] = over
		word = &over[k]
	}
	bit := uint64(1) << (seq & 63)
	if *word&bit != 0 {
		return true
	}
	*word |= bit
	return false
}

// Init keeps the node's neighbourhood, installs the send hook (so the
// inner protocol's sends are framed without its cooperation) and starts
// the inner protocol.
func (p *proc) Init(ctx *simnet.Context) {
	p.nbrs = ctx.Neighbors()
	p.seen = make([]uint64, len(p.nbrs))
	ctx.SetSendHook(func(to int, payload any) { p.sendFramed(ctx, to, payload) })
	p.inner.Init(ctx)
}

// sendFramed frames one outgoing protocol message and transmits it.
func (p *proc) sendFramed(ctx *simnet.Context, to int, payload any) {
	o := getOutstanding()
	o.to = to
	o.frame = Data{Seq: len(p.bySeq), Payload: payload} // boxed once, reused by retries
	o.reset(len(p.nbrs))
	if to == simnet.ToAll {
		o.waitAll(len(p.nbrs))
		ctx.BroadcastDirect(o.frame)
	} else {
		// Send has already checked that to is a neighbour.
		slot := p.slotOf(to)
		o.waiting[slot>>6] |= 1 << (slot & 63)
		o.pending = 1
		ctx.SendDirect(to, o.frame)
	}
	o.attempts = 1
	o.nextTick = p.tickNo + p.opt.Backoff(1)
	if p.bySeq == nil {
		// Most nodes send a handful of frames; one allocation covers them.
		p.bySeq = make([]*outstanding, 0, 8)
	}
	if o.pending > 0 {
		p.bySeq = append(p.bySeq, o)
	} else {
		p.bySeq = append(p.bySeq, nil)
		putOutstanding(o) // isolated node: nothing to wait for
	}
}

func (p *proc) Recv(ctx *simnet.Context, from int, payload any) {
	switch m := payload.(type) {
	case Data:
		// Always ack — the sender may be retransmitting because our
		// previous ack was lost.
		p.acks++
		ctx.SendDirect(from, Ack{Seq: m.Seq}) // panics unless from is a neighbour
		if p.markSeen(p.slotOf(from), m.Seq) {
			p.dups++
			return
		}
		p.inner.Recv(ctx, from, m.Payload)
	case Ack:
		if uint(m.Seq) >= uint(len(p.bySeq)) {
			return
		}
		o := p.bySeq[m.Seq]
		if o == nil {
			return // retired: fully acked or abandoned
		}
		if slot := p.slotOf(from); slot >= 0 && o.ack(slot) && o.pending == 0 {
			p.bySeq[m.Seq] = nil
			putOutstanding(o)
		}
	default:
		// Traffic that did not come through this layer (mixed
		// deployments); hand it to the protocol untouched.
		p.inner.Recv(ctx, from, payload)
	}
}

// Tick is the retry timer: it fires on network quiescence, retransmits
// every due unacked frame and reports whether work remains. If the inner
// proc is itself a Ticker its tick is chained.
func (p *proc) Tick(ctx *simnet.Context) bool {
	p.tickNo++
	active := false
	for p.live < len(p.bySeq) && p.bySeq[p.live] == nil {
		p.live++
	}
	for seq := p.live; seq < len(p.bySeq); seq++ {
		o := p.bySeq[seq]
		if o == nil {
			continue
		}
		if o.attempts-1 >= p.opt.MaxRetries {
			p.bySeq[seq] = nil
			putOutstanding(o)
			p.abandoned++
			continue
		}
		if p.tickNo < o.nextTick {
			active = true // backing off, not done yet
			continue
		}
		p.retransmits++
		// An observed run counts the resend as a retransmission of the
		// frame's phase (the phase of the payload it carries).
		ctx.Retransmit(o.to, o.frame)
		o.attempts++
		o.nextTick = p.tickNo + p.opt.Backoff(o.attempts)
		active = true
	}
	if t, ok := p.inner.(simnet.Ticker); ok {
		if t.Tick(ctx) {
			active = true
		}
	}
	return active
}
