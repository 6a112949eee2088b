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

	"wcdsnet/internal/obs"
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
	// Observer, when set, receives one obs.Retransmit event per
	// retransmission, attributed to Phase(payload) of the frame being
	// retried — so per-phase breakdowns show which protocol phase is
	// paying the reliability cost. It is called from the goroutine running
	// the protocol; one shared across concurrent runs must be
	// goroutine-safe (obs.Spans is).
	Observer obs.Recorder
	// Phase classifies a retried frame's protocol payload for Observer.
	// Nil attributes every retransmission to "reliable".
	Phase func(payload any) string
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
	if o.Observer != nil && o.Phase == nil {
		o.Phase = func(any) string { return "reliable" }
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
	procs []*proc
}

// Stats sums the layer counters across nodes.
func (c *Collector) Stats() Stats {
	var s Stats
	for _, p := range c.procs {
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
// either engine.
func Wrap(procs []simnet.Proc, opt Options) ([]simnet.Proc, *Collector) {
	opt = opt.withDefaults()
	out := make([]simnet.Proc, len(procs))
	col := &Collector{procs: make([]*proc, len(procs))}
	for i, inner := range procs {
		p := &proc{
			inner:    inner,
			opt:      opt,
			outBySeq: make(map[int]*outstanding),
			seen:     make(map[int][]uint64),
		}
		col.procs[i] = p
		out[i] = p
	}
	return out, col
}

// outstanding is one not-yet-fully-acked data frame. Records are recycled
// through outPool: a batch sweep frames every protocol message of every
// scenario, and the record plus its waiting map were the hot path's
// dominant allocations.
type outstanding struct {
	seq      int
	to       int // simnet.ToAll for a broadcast
	payload  any
	frame    any          // the Data frame boxed once; retransmits resend it
	waiting  map[int]bool // receivers that have not acked
	attempts int          // transmissions so far (original included)
	nextTick int          // earliest tick allowed to retransmit
	given    bool         // abandoned after the retry budget
}

func (o *outstanding) settled() bool { return len(o.waiting) == 0 || o.given }

// outPool recycles outstanding records across messages and runs. Records
// are scrubbed on put (only the waiting map's storage is kept) so pooled
// memory never pins protocol payloads.
var outPool = sync.Pool{
	New: func() any { return &outstanding{waiting: make(map[int]bool, 8)} },
}

func getOutstanding() *outstanding { return outPool.Get().(*outstanding) }

func putOutstanding(o *outstanding) {
	w := o.waiting
	clear(w)
	*o = outstanding{waiting: w}
	outPool.Put(o)
}

// proc wraps one node's protocol in the reliability layer.
type proc struct {
	inner simnet.Proc
	opt   Options

	nextSeq  int
	out      []*outstanding // send order, for deterministic retransmit order
	outBySeq map[int]*outstanding
	// seen maps a sender to the bitmap of sequence numbers already
	// delivered. Sequences count up from zero per sender, so a bitmap
	// stays dense where the previous per-sender set map cost a map plus
	// bucket churn for every neighbour of every node.
	seen   map[int][]uint64
	tickNo int

	retransmits int
	dups        int
	acks        int
	abandoned   int
}

// markSeen records (from, seq) and reports whether it was already present.
func (p *proc) markSeen(from, seq int) bool {
	bm := p.seen[from]
	word := seq >> 6
	bit := uint64(1) << (seq & 63)
	if word < len(bm) {
		if bm[word]&bit != 0 {
			return true
		}
		bm[word] |= bit
		return false
	}
	if bm == nil {
		bm = make([]uint64, 0, 4) // 256 sequence numbers before regrowth
	}
	for len(bm) <= word {
		bm = append(bm, 0)
	}
	bm[word] |= bit
	p.seen[from] = bm
	return false
}

// Init installs the send hook (so the inner protocol's sends are framed
// without its cooperation) and starts the inner protocol.
func (p *proc) Init(ctx *simnet.Context) {
	ctx.SetSendHook(func(to int, payload any) { p.sendFramed(ctx, to, payload) })
	p.inner.Init(ctx)
}

// sendFramed frames one outgoing protocol message and transmits it.
func (p *proc) sendFramed(ctx *simnet.Context, to int, payload any) {
	o := getOutstanding()
	o.seq, o.to, o.payload = p.nextSeq, to, payload
	o.frame = Data{Seq: o.seq, Payload: payload} // boxed once, reused by retries
	p.nextSeq++
	if to == simnet.ToAll {
		for _, w := range ctx.Neighbors() {
			o.waiting[w] = true
		}
		ctx.BroadcastDirect(o.frame)
	} else {
		o.waiting[to] = true
		ctx.SendDirect(to, o.frame)
	}
	o.attempts = 1
	o.nextTick = p.tickNo + p.opt.Backoff(1)
	if len(o.waiting) > 0 {
		p.out = append(p.out, o)
		p.outBySeq[o.seq] = o
	} else {
		putOutstanding(o) // isolated node: nothing to wait for
	}
}

func (p *proc) Recv(ctx *simnet.Context, from int, payload any) {
	switch m := payload.(type) {
	case Data:
		// Always ack — the sender may be retransmitting because our
		// previous ack was lost.
		p.acks++
		ctx.SendDirect(from, Ack{Seq: m.Seq})
		if p.markSeen(from, m.Seq) {
			p.dups++
			return
		}
		p.inner.Recv(ctx, from, m.Payload)
	case Ack:
		if o, ok := p.outBySeq[m.Seq]; ok {
			delete(o.waiting, from)
			if len(o.waiting) == 0 {
				delete(p.outBySeq, m.Seq)
			}
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
	live := p.out[:0]
	for _, o := range p.out {
		if o.settled() {
			// Fully acked (removed from outBySeq by the Ack handler) or
			// abandoned on a previous tick: no reference remains, recycle.
			putOutstanding(o)
			continue
		}
		live = append(live, o)
		if o.attempts-1 >= p.opt.MaxRetries {
			o.given = true
			delete(p.outBySeq, o.seq)
			p.abandoned++
			continue
		}
		if p.tickNo < o.nextTick {
			active = true // backing off, not done yet
			continue
		}
		p.retransmits++
		if p.opt.Observer != nil {
			p.opt.Observer.Event(p.opt.Phase(o.payload), obs.Retransmit, -1)
		}
		if o.to == simnet.ToAll {
			ctx.BroadcastDirect(o.frame)
		} else {
			ctx.SendDirect(o.to, o.frame)
		}
		o.attempts++
		o.nextTick = p.tickNo + p.opt.Backoff(o.attempts)
		active = true
	}
	for i := len(live); i < len(p.out); i++ {
		p.out[i] = nil // drop trailing refs so recycled records aren't pinned
	}
	p.out = live
	if t, ok := p.inner.(simnet.Ticker); ok {
		if t.Tick(ctx) {
			active = true
		}
	}
	return active
}
