package wcds

import (
	"wcdsnet/internal/discovery"
	"wcdsnet/internal/election"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
)

// Breakdown counts protocol transmissions by message type — the concrete
// form of Theorem 12's accounting ("each node sends a constant number of
// messages").
type Breakdown struct {
	Hello         int // zero-knowledge pipeline only
	MISDominator  int
	Gray          int
	OneHopDoms    int
	TwoHopDoms    int
	Selection     int
	AdditionalDom int // announcements plus relays
	Black         int // Algorithm I colour marking
	Election      int // Algorithm I: Elect + Ack
	LevelComplete int // Algorithm I: Level + Complete
	Other         int
	TotalMessages int
}

// classify attributes one sent payload.
func (b *Breakdown) classify(payload any) {
	b.TotalMessages++
	switch payload.(type) {
	case discovery.HelloMsg:
		b.Hello++
	case MISDominatorMsg:
		b.MISDominator++
	case GrayMsg:
		b.Gray++
	case OneHopDomsMsg:
		b.OneHopDoms++
	case TwoHopDomsMsg:
		b.TwoHopDoms++
	case SelectionMsg:
		b.Selection++
	case AdditionalDomMsg:
		b.AdditionalDom++
	case BlackMsg:
		b.Black++
	default:
		b.Other++
	}
}

// traceOption returns a simnet option that tallies sends into b. The
// Algorithm I election/level message types live in the election package;
// they are folded into Election/LevelComplete by the caller-side counters
// below when the payload is unknown here — see Algo1MessageBreakdown.
func (b *Breakdown) traceOption(extra func(payload any) bool) simnet.Option {
	return simnet.WithTrace(func(ev simnet.Event) {
		if ev.Kind != simnet.EventSend {
			return
		}
		if extra != nil && extra(ev.Payload) {
			b.TotalMessages++
			return
		}
		b.classify(ev.Payload)
	})
}

// Algo2MessageBreakdown runs distributed Algorithm II on the synchronous
// engine and returns the per-type transmission counts alongside the result.
func Algo2MessageBreakdown(g *graph.Graph, ids []int, mode SelectionMode) (Result, Breakdown, error) {
	var b Breakdown
	res, _, err := Algo2Distributed(g, ids, mode, EngineRunner(simnet.EngineSync, b.traceOption(nil)))
	return res, b, err
}

// Algo2ZeroKnowledgeBreakdown is Algo2MessageBreakdown for the pipeline
// variant (adds the Hello row).
func Algo2ZeroKnowledgeBreakdown(g *graph.Graph, ids []int, mode SelectionMode) (Result, Breakdown, error) {
	var b Breakdown
	res, _, err := Algo2ZeroKnowledge(g, ids, mode, EngineRunner(simnet.EngineSync, b.traceOption(nil)))
	return res, b, err
}

// Algo1MessageBreakdown runs distributed Algorithm I on the synchronous
// engine, splitting its cost into the election wave (Elect/Ack), the level
// phase (Level/Complete), and the colour-marking phase (Black/Gray) —
// making the "election-dominated" claim of Section 4.1 directly visible.
func Algo1MessageBreakdown(g *graph.Graph, ids []int) (Result, Breakdown, error) {
	var b Breakdown
	extra := func(payload any) bool {
		switch payload.(type) {
		case election.ElectMsg, election.AckMsg:
			b.Election++
			return true
		case election.LevelMsg, election.CompleteMsg:
			b.LevelComplete++
			return true
		}
		return false
	}
	res, _, err := Algo1Distributed(g, ids, EngineRunner(simnet.EngineSync, b.traceOption(extra)))
	return res, b, err
}
