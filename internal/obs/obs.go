// Package obs is the repository's observability spine: phase-scoped spans
// shared by every layer that accounts for where a run spent its messages
// and time.
//
// Before this package existed, instrumentation was split across three
// disconnected systems — simnet's Stats/WithTrace/Timeline, the service's
// metrics registry, and cmd/bench's ad-hoc timings — none of which could
// answer the question the topology-control literature actually asks:
// per-phase round and message cost (election → tree levels → ranked MIS
// for Algorithm I; MIS → 3-hop recruitment for Algorithm II).
//
// The model is deliberately small. A Span is one named phase with the
// counters that matter for wireless protocols (messages, per-link
// deliveries, rounds, retransmits) plus wall time. A Recorder receives
// engine events and completed spans; Nop is the zero-allocation default,
// and an engine given Nop runs unobserved. Spans is the standard
// collector: goroutine-safe, so one value can be shared by concurrent
// runs.
//
// Producers:
//
//   - simnet engines observed via WithObserver, with a classifier
//     (wcds.PhaseOf) attributing payloads to paper phases. Observing a
//     Spans, an engine keeps the run in a lock-free per-run ledger and
//     merges it with one AddRun per phase when the run returns; any other
//     Recorder gets one Event per engine event;
//   - the reliable layer's retransmissions, which reach the same ledger
//     (simnet's Context.Retransmit) and are attributed to the phase of the
//     frame being retried;
//   - the service, chaos harness and cmd/bench time their own stages with
//     Timer and merge engine phase spans into responses and reports.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one phase's accounting. Engine-derived spans carry the message
// counters and round extent; Timer-derived spans carry wall time; merged
// spans may carry both.
type Span struct {
	// Name identifies the phase ("election", "levels", "mis", "recruit",
	// "discovery", "reliable") or the timed stage ("generate", "run", ...).
	Name string `json:"name"`
	// Messages counts radio transmissions attributed to the phase
	// (retransmitted frames count here too — the radio sends them).
	Messages int `json:"messages,omitempty"`
	// Deliveries counts per-link receptions attributed to the phase.
	Deliveries int `json:"deliveries,omitempty"`
	// Rounds is the phase's round extent: last round with an event minus
	// first, plus one. Under RunSync the rounds are synchronous rounds;
	// the asynchronous engines report Lamport stamps instead, so there the
	// value is a logical-time extent (deterministic for a given schedule:
	// event digests include it, e.g. "mis:...,r=4").
	Rounds int `json:"rounds,omitempty"`
	// Retransmits counts reliable-layer retransmissions of this phase's
	// frames.
	Retransmits int `json:"retransmits,omitempty"`
	// WallNS is wall time attributed to the phase. It is the only
	// non-deterministic field; digests must exclude it.
	//
	// For an engine phase it is run-scoped, windowed and proportional: the
	// engine reads the clock at most once per window of 64 events and
	// splits each window's elapsed time across the phases seen in it by
	// event count.
	// The windows span the run from its first observed event to the
	// engine's return, so a run's phases sum to at most its wall time and
	// nothing after the run is charged to them. A Timer span carries the
	// stage's elapsed time; phases fed by direct Event calls are stamped
	// on phase transitions and closed at the next transition or Snapshot.
	WallNS int64 `json:"wallNs,omitempty"`
}

// Canonical renders the span's deterministic fields (WallNS excluded) for
// digest construction.
func (s *Span) Canonical() string {
	return fmt.Sprintf("%s:m=%d,d=%d,r=%d,rtx=%d", s.Name, s.Messages, s.Deliveries, s.Rounds, s.Retransmits)
}

// Kind classifies one engine event.
type Kind uint8

// Event kinds.
const (
	// Send is one radio transmission (broadcast or unicast).
	Send Kind = iota + 1
	// Deliver is one per-link reception.
	Deliver
	// Retransmit is one reliable-layer retransmission (counted on top of
	// the Send its frame also produces).
	Retransmit
)

// Recorder is the collection point instrumented code reports to. Both
// methods must be safe for concurrent use: one recorder may be shared by
// concurrent runs and by the stages around them.
type Recorder interface {
	// Event attributes one engine event to a phase. round is the
	// synchronous round the event happened in (-1 when there is none).
	Event(phase string, kind Kind, round int)
	// Add merges one completed span (a timed stage, or a pre-aggregated
	// phase) into the recorder.
	Add(sp Span)
}

type nopRecorder struct{}

func (nopRecorder) Event(string, Kind, int) {}
func (nopRecorder) Add(Span)                {}

// Nop is the default recorder: it does nothing and allocates nothing, so
// instrumentation left in hot paths is free when nobody is listening.
var Nop Recorder = nopRecorder{}

// span is the mutable collector-side state of one phase.
type span struct {
	Span
	firstRound int
	lastRound  int
	hasRound   bool
}

// Spans is the standard Recorder: it accumulates per-phase counters and
// tracks each phase's round extent, from run ledgers merged through AddRun
// or from Event calls. Event attributes wall time by stamping the clock on
// phase transitions. Safe for concurrent use.
type Spans struct {
	mu     sync.Mutex
	order  []string
	byName map[string]*span

	// Wall attribution: elapsed time since lastStamp belongs to active.
	// Caching the active span also lets a run of same-phase events skip
	// the map lookup and the clock read.
	active    *span
	lastStamp time.Time
}

// NewSpans returns an empty collector.
func NewSpans() *Spans {
	return &Spans{byName: make(map[string]*span)}
}

func (c *Spans) phase(name string) *span {
	sp, ok := c.byName[name]
	if !ok {
		sp = &span{Span: Span{Name: name}}
		c.byName[name] = sp
		c.order = append(c.order, name)
	}
	return sp
}

// flushLocked attributes the time since the previous stamp to the active
// phase and returns the current time.
func (c *Spans) flushLocked() time.Time {
	now := time.Now()
	if c.active != nil {
		c.active.WallNS += now.Sub(c.lastStamp).Nanoseconds()
	}
	return now
}

// Event implements Recorder.
func (c *Spans) Event(phase string, kind Kind, round int) {
	c.mu.Lock()
	sp := c.active
	if sp == nil || sp.Name != phase {
		c.lastStamp = c.flushLocked()
		sp = c.phase(phase)
		c.active = sp
	}
	switch kind {
	case Send:
		sp.Messages++
	case Deliver:
		sp.Deliveries++
	case Retransmit:
		sp.Retransmits++
	}
	if round > 0 {
		sp.widen(round)
	}
	c.mu.Unlock()
}

// widen extends the phase's round extent to cover round.
func (sp *span) widen(round int) {
	if !sp.hasRound || round < sp.firstRound {
		sp.firstRound = round
	}
	if !sp.hasRound || round > sp.lastRound {
		sp.lastRound = round
	}
	sp.hasRound = true
}

// Add implements Recorder: counters, rounds and wall times sum.
func (c *Spans) Add(in Span) { c.AddRun(in, 0, 0) }

// AddRun merges one run's account of a phase, as an engine's run ledger
// hands it over when the run ends: counters and wall time sum as in Add,
// and the phase's round extent widens to cover rounds first..last exactly
// as Event's rounds widen it (first <= 0: the run saw no round). So a
// collector reports the same extents whether a run's events arrive one by
// one or merged.
func (c *Spans) AddRun(in Span, first, last int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.phase(in.Name)
	sp.Messages += in.Messages
	sp.Deliveries += in.Deliveries
	sp.Retransmits += in.Retransmits
	sp.Rounds += in.Rounds
	sp.WallNS += in.WallNS
	if first > 0 {
		sp.widen(first)
		sp.widen(last)
	}
}

// Snapshot closes out wall attribution and returns the collected spans in
// first-seen order. The collector remains usable afterwards.
func (c *Spans) Snapshot() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active != nil {
		c.flushLocked() // close the open phase's wall time
		c.active = nil
	}
	out := make([]Span, 0, len(c.order))
	for _, name := range c.order {
		sp := c.byName[name]
		s := sp.Span
		if sp.hasRound {
			s.Rounds = sp.Span.Rounds + sp.lastRound - sp.firstRound + 1
		}
		out = append(out, s)
	}
	return out
}

// Merge folds a snapshot into the collector (Add per span).
func (c *Spans) Merge(spans []Span) {
	for _, sp := range spans {
		c.Add(sp)
	}
}

// Timer times one wall-clock stage. The zero value is inert; create with
// StartTimer. Timer is a value type so starting and stopping one allocates
// nothing.
type Timer struct {
	name  string
	start time.Time
}

// StartTimer starts timing the named stage.
func StartTimer(name string) Timer { return Timer{name: name, start: time.Now()} }

// Done records the elapsed wall time as a span on rec and returns the
// elapsed duration.
func (t Timer) Done(rec Recorder) time.Duration {
	if t.start.IsZero() {
		return 0
	}
	d := time.Since(t.start)
	rec.Add(Span{Name: t.name, WallNS: d.Nanoseconds()})
	return d
}

// Total sums one counter across spans; used by reports that want a single
// number next to the breakdown.
func Total(spans []Span, f func(Span) int) int {
	n := 0
	for _, sp := range spans {
		n += f(sp)
	}
	return n
}

// CanonicalSpans renders spans sorted by name, WallNS excluded — a
// deterministic digest fragment equal across worker counts and schedules
// whenever the counters are.
func CanonicalSpans(spans []Span) string {
	lines := make([]string, 0, len(spans))
	for i := range spans {
		lines = append(lines, spans[i].Canonical())
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}
