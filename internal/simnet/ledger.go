package simnet

import (
	"time"

	"wcdsnet/internal/obs"
)

// wallWindow is the fewest observed events that share one clock read.
const wallWindow = 64

// ledger is one observed run's phase accounting. The engine owns it and
// only the goroutine running the protocol touches it, so it takes no lock
// and looks up no map: a payload is classified once, when it is
// transmitted, and every per-link copy carries the phase index the
// transmission got. When the run ends, flush hands the breakdown to the
// recorder with one AddRun per phase, in first-seen order.
//
// Wall time is read at most once per wallWindow events: the first
// transmission after a window has collected that many events closes it,
// which keeps the per-delivery hook free of clock logic. Each window's
// elapsed time is split across the phases seen in it in proportion to
// their event counts, the rounding remainder going to the last of them.
// The first window opens at the run's first observed event and the last
// closes when the engine returns, so a phase's wall time is a share of the
// run and nothing outside it.
//
// A recorder that is not *obs.Spans instead gets every event as an Event
// call when it happens, and no flush.
type ledger struct {
	classify func(any) string
	spans    *obs.Spans   // flush target
	foreign  obs.Recorder // per-event target when rec is not *obs.Spans
	phases   []phaseTally

	winStart  time.Time
	winEvents int
}

// phaseTally is one phase's running account.
type phaseTally struct {
	span        obs.Span
	first, last int // round extent; first == 0 while no round was seen
	windowed    int // events already charged to closed wall windows
}

// newLedger returns the ledger for a run observed by rec, or nil when the
// run is not observed: rec is nil or obs.Nop. A nil classify attributes
// everything to "all".
func newLedger(rec obs.Recorder, classify func(any) string) *ledger {
	if rec == nil || rec == obs.Nop {
		return nil
	}
	if classify == nil {
		classify = func(any) string { return "all" }
	}
	l := &ledger{classify: classify}
	if sp, ok := rec.(*obs.Spans); ok {
		l.spans = sp
	} else {
		l.foreign = rec
	}
	return l
}

// phase classifies payload and returns its phase index, interning the
// phase name the first time it is seen. A run's first event is always a
// transmission, so the first interning opens the first wall window.
func (l *ledger) phase(payload any) int32 {
	name := l.classify(payload)
	for i := range l.phases {
		if l.phases[i].span.Name == name {
			return int32(i)
		}
	}
	if len(l.phases) == 0 {
		l.winStart = time.Now()
	}
	l.phases = append(l.phases, phaseTally{span: obs.Span{Name: name}})
	return int32(len(l.phases) - 1)
}

// send records one transmission of payload, and a retransmission when rtx
// is set, and returns the phase index its copies carry.
func (l *ledger) send(payload any, round int, rtx bool) int32 {
	ph := l.phase(payload)
	if l.foreign != nil {
		if rtx {
			l.forward(ph, obs.Retransmit, -1)
		}
		l.forward(ph, obs.Send, round)
		return ph
	}
	p := &l.phases[ph]
	if rtx {
		p.span.Retransmits++
		l.tick()
	}
	p.span.Messages++
	p.widen(round)
	l.tick()
	return ph
}

// deliver records one per-link delivery of a copy of phase ph. It is the
// per-delivery hook: it counts and never reads the clock.
func (l *ledger) deliver(ph int32, round int) {
	if l.foreign != nil {
		l.forward(ph, obs.Deliver, round)
		return
	}
	p := &l.phases[ph]
	p.span.Deliveries++
	p.widen(round)
	l.winEvents++
}

// forward hands one event to a foreign recorder.
func (l *ledger) forward(ph int32, kind obs.Kind, round int) {
	l.foreign.Event(l.phases[ph].span.Name, kind, round)
}

// widen extends the phase's round extent to cover round (rounds <= 0 are
// roundless events).
func (p *phaseTally) widen(round int) {
	if round > 0 && (p.first == 0 || round < p.first) {
		p.first = round
	}
	if round > p.last {
		p.last = round
	}
}

// tick counts one transmission event against the open wall window and
// closes the window once it holds wallWindow events.
func (l *ledger) tick() {
	l.winEvents++
	if l.winEvents >= wallWindow {
		l.closeWindow()
	}
}

// closeWindow splits the open window's elapsed time across the phases
// with events in it, by event count, and opens the next window.
func (l *ledger) closeWindow() {
	now := time.Now()
	elapsed := now.Sub(l.winStart).Nanoseconds()
	rest, last := elapsed, 0
	for i := range l.phases {
		p := &l.phases[i]
		win := p.span.Messages + p.span.Deliveries + p.span.Retransmits - p.windowed
		if win == 0 {
			continue
		}
		share := elapsed * int64(win) / int64(l.winEvents)
		p.span.WallNS += share
		rest -= share
		p.windowed += win
		last = i
	}
	l.phases[last].span.WallNS += rest
	l.winStart, l.winEvents = now, 0
}

// flush closes the last wall window and merges the run's phases into the
// recorder. It is nil-safe so engines can defer it unconditionally.
func (l *ledger) flush() {
	if l == nil || l.spans == nil {
		return
	}
	if l.winEvents > 0 {
		l.closeWindow()
	}
	for i := range l.phases {
		p := &l.phases[i]
		l.spans.AddRun(p.span, p.first, p.last)
	}
}
