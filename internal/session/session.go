// Package session implements long-lived streaming topology sessions: the
// serving-side embodiment of the paper's Section 4.2 claim that a WCDS
// backbone is worth maintaining, not recomputing. A Session owns a live
// udg.Network plus a maintain.Maintainer, applies a stream of topology
// deltas (join / leave / move, batched into epochs), repairs the backbone
// locally around each epoch's event sites, and emits one result event per
// epoch carrying the changed roles, the connector diff, and the repair
// locality stats (nodes touched, repair radius from the event sites).
//
// Sessions are built for a server: every apply observes both the caller's
// context and the session's own context (so a client disconnect, a TTL
// expiry, or a server drain cancels a repair mid-worklist and the
// maintainer rolls back), and repair cost is attributed through internal/obs
// like any other phase. Manager adds the lifecycle: ID allocation, TTL and
// idle eviction, and drain.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wcdsnet/internal/geom"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/udg"
)

// Sentinel errors. Deltas that fail validation wrap ErrBadDelta and leave
// the session state untouched (the epoch rolls back); context causes and
// engine budget errors pass through unwrapped so callers can apply the
// usual taxonomy.
var (
	// ErrClosed reports an apply on a closed session.
	ErrClosed = errors.New("session: closed")
	// ErrBadDelta reports a malformed or inapplicable delta.
	ErrBadDelta = errors.New("session: invalid delta")
	// ErrExpired is the close cause used by TTL and idle eviction.
	ErrExpired = errors.New("session: expired")
	// ErrDrained is the close cause used when the owning server drains.
	ErrDrained = errors.New("session: server draining")
)

// Delta operation names (the wire vocabulary).
const (
	OpJoin  = "join"
	OpLeave = "leave"
	OpMove  = "move"
)

// Delta is one topology change on the wire. Op selects the kind:
//
//   - "move":  Node (required) relocates to (X, Y).
//   - "leave": Node (required) switches off; it keeps its index and may
//     rejoin later.
//   - "join" with Node set: the previously-left node switches back on at
//     its old position.
//   - "join" without Node: a brand-new node appears at (X, Y). ID names
//     its protocol ID; when omitted the session assigns the next unused
//     one. The assigned dense index is reported in Event.Joined.
type Delta struct {
	Op   string  `json:"op"`
	Node *int    `json:"node,omitempty"`
	ID   *int    `json:"id,omitempty"`
	X    float64 `json:"x,omitempty"`
	Y    float64 `json:"y,omitempty"`
}

// Event is the versioned per-epoch result: what one batch of deltas did to
// the maintained backbone.
type Event struct {
	// Session and Seq identify the epoch; Seq is 1-based and increments
	// per applied epoch (failed epochs roll back and do not consume one).
	Session string `json:"session"`
	Seq     int    `json:"seq"`
	// Deltas is the number of deltas in the epoch.
	Deltas int `json:"deltas"`
	// Joined lists dense indices assigned to brand-new nodes, in delta
	// order.
	Joined []int `json:"joined,omitempty"`
	// Promoted/Demoted list nodes whose MIS role changed; RoleChanged
	// additionally includes connector role changes.
	Promoted    []int `json:"promoted,omitempty"`
	Demoted     []int `json:"demoted,omitempty"`
	RoleChanged []int `json:"roleChanged,omitempty"`
	// ConnectorChanges counts three-hop pairs whose connector assignment
	// changed.
	ConnectorChanges int `json:"connectorChanges"`
	// NodesTouched and RepairRadius are the locality stats: how many nodes
	// changed role, and the maximum hop distance from a changed node to
	// its nearest event site (-1 when a changed node became unreachable).
	NodesTouched int `json:"nodesTouched"`
	RepairRadius int `json:"repairRadius"`
	// Connected reports whether the active graph is still connected.
	Connected bool `json:"connected"`
	// ActiveNodes, MISSize and BackboneSize describe the post-epoch state.
	ActiveNodes  int `json:"activeNodes"`
	MISSize      int `json:"misSize"`
	BackboneSize int `json:"backboneSize"`
	// ElapsedMicros is the wall time the epoch took to apply.
	ElapsedMicros int64 `json:"elapsedMicros"`
	// Repair describes how the epoch's backbone repair ran under the
	// session's RepairPolicy: the strategy that produced the served
	// backbone, the Converged/Degraded/Violated outcome, and the
	// fault-tolerance cost. Always present; a plain session reports
	// {"mode":"local","outcome":"converged"}.
	Repair *RepairReport `json:"repair,omitempty"`
}

// RepairReport is the wire form of maintain.RepairInfo on the event stream.
type RepairReport struct {
	// Mode is the strategy whose result was installed: "local",
	// "distributed" or "fixpoint".
	Mode string `json:"mode"`
	// Outcome is the epoch's classification under the chaos taxonomy:
	// "converged" (served backbone equals the lossless fixpoint),
	// "degraded" (valid backbone via fallback or tie-divergence) or
	// "violated" (invariant violation repaired by a fixpoint rebuild).
	Outcome string `json:"outcome"`
	// Attempts counts distributed protocol runs; Escalations counts
	// ladder rungs climbed beyond the first.
	Attempts    int `json:"attempts,omitempty"`
	Escalations int `json:"escalations,omitempty"`
	// Retries and Abandoned are the reliable layer's retransmissions and
	// given-up frames, summed over attempts; Messages is the protocol
	// message total; Rounds the largest logical round extent reached.
	Retries   int `json:"retries,omitempty"`
	Abandoned int `json:"abandoned,omitempty"`
	Messages  int `json:"messages,omitempty"`
	Rounds    int `json:"rounds,omitempty"`
}

func repairReport(info maintain.RepairInfo) *RepairReport {
	return &RepairReport{
		Mode:        info.Mode,
		Outcome:     info.Outcome.String(),
		Attempts:    info.Attempts,
		Escalations: info.Escalations,
		Retries:     info.Retransmits,
		Abandoned:   info.Abandoned,
		Messages:    info.Messages,
		Rounds:      info.RoundEstimate,
	}
}

// Config tunes one session.
type Config struct {
	// Recorder receives per-stage repair spans (rebuild, repair,
	// connectors); nil means obs.Nop.
	Recorder obs.Recorder
	// MaxEpoch bounds the number of deltas accepted in one epoch
	// (0 = DefaultMaxEpoch).
	MaxEpoch int
	// TTL and IdleTimeout bound the session's lifetime; zero disables.
	// Enforced by the owning Manager's sweeper.
	TTL, IdleTimeout time.Duration
	// Repair selects the per-epoch repair strategy (the zero value is the
	// plain local worklist). With Repair.Distributed set, every epoch runs
	// the message-passing repair protocol under Repair.Faults through the
	// escalation ladder, and events carry the outcome in Event.Repair.
	Repair maintain.RepairPolicy
}

// DefaultMaxEpoch bounds epoch size when Config.MaxEpoch is zero.
const DefaultMaxEpoch = 1024

// Session is one live maintained topology. All methods are safe for
// concurrent use; epochs are serialized.
type Session struct {
	id       string
	cfg      Config
	created  time.Time
	deadline time.Time // zero when cfg.TTL == 0

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu     sync.Mutex // serializes epochs and guards the fields below
	m      *maintain.Maintainer
	seq    int
	nextID int

	lastUse atomic.Int64 // unix nanoseconds of the last apply/touch
}

// New builds a session over nw (which the session takes ownership of; pass
// a clone to keep the original). The network must be connected
// (maintain.ErrNotConnected otherwise) and a unit-disk graph
// (maintain.ErrNotUnitDisk otherwise).
func New(id string, nw *udg.Network, cfg Config) (*Session, error) {
	m, err := maintain.New(nw)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.Nop
	}
	if cfg.MaxEpoch <= 0 {
		cfg.MaxEpoch = DefaultMaxEpoch
	}
	m.SetObserver(cfg.Recorder)
	m.SetRepairPolicy(cfg.Repair)
	now := time.Now()
	s := &Session{
		id:      id,
		cfg:     cfg,
		created: now,
		m:       m,
		nextID:  maxID(nw.ID) + 1,
	}
	if cfg.TTL > 0 {
		s.deadline = now.Add(cfg.TTL)
	}
	s.ctx, s.cancel = context.WithCancelCause(context.Background())
	s.lastUse.Store(now.UnixNano())
	return s, nil
}

func maxID(ids []int) int {
	m := 0
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Done is closed when the session is closed or cancelled.
func (s *Session) Done() <-chan struct{} { return s.ctx.Done() }

// Err returns the close cause once Done is closed, nil before.
func (s *Session) Err() error {
	if s.ctx.Err() == nil {
		return nil
	}
	return context.Cause(s.ctx)
}

// Touch refreshes the idle clock (called on every apply and lookup).
func (s *Session) Touch() { s.lastUse.Store(time.Now().UnixNano()) }

// Expired reports whether the session's TTL or idle timeout has elapsed at
// time now.
func (s *Session) Expired(now time.Time) bool {
	if !s.deadline.IsZero() && now.After(s.deadline) {
		return true
	}
	if s.cfg.IdleTimeout > 0 {
		last := time.Unix(0, s.lastUse.Load())
		if now.Sub(last) > s.cfg.IdleTimeout {
			return true
		}
	}
	return false
}

// Maintainer exposes the underlying maintainer for inspection (tests, the
// churn harness). Callers must not mutate it concurrently with Apply.
func (s *Session) Maintainer() *maintain.Maintainer { return s.m }

// Apply applies one epoch of deltas and returns its result event. A
// validation error (wrapping ErrBadDelta) rolls the epoch back and leaves
// the session usable; a cancellation — of ctx or of the session itself —
// also rolls back and surfaces the context cause.
func (s *Session) Apply(ctx context.Context, deltas []Delta) (Event, error) {
	s.Touch()
	// Observe both the caller's context and the session's: eviction or
	// drain must abort an in-flight repair without a client request.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := context.AfterFunc(s.ctx, func() { cancel(context.Cause(s.ctx)) })
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return Event{}, ErrClosed
	}
	if len(deltas) == 0 {
		return Event{}, fmt.Errorf("%w: empty epoch", ErrBadDelta)
	}
	if len(deltas) > s.cfg.MaxEpoch {
		return Event{}, fmt.Errorf("%w: epoch of %d deltas exceeds limit %d", ErrBadDelta, len(deltas), s.cfg.MaxEpoch)
	}
	muts := make([]maintain.Mutation, 0, len(deltas))
	nextID := s.nextID
	for i, d := range deltas {
		mut, err := s.toMutation(d, &nextID)
		if err != nil {
			return Event{}, fmt.Errorf("%w: delta %d: %v", ErrBadDelta, i, err)
		}
		muts = append(muts, mut)
	}

	start := time.Now()
	rep, err := s.m.ApplyEpoch(ctx, muts)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Surface the cancellation cause (expiry, drain, client
			// disconnect) while keeping the context sentinel in the chain.
			if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) {
				return Event{}, fmt.Errorf("session: epoch aborted: %w (%w)", cause, err)
			}
			return Event{}, err
		}
		return Event{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	s.nextID = nextID
	s.seq++

	ev := Event{
		Session:          s.id,
		Seq:              s.seq,
		Deltas:           len(deltas),
		Joined:           rep.Joined,
		Promoted:         rep.Promoted,
		Demoted:          rep.Demoted,
		RoleChanged:      rep.RoleChanged,
		ConnectorChanges: rep.ConnectorChanges,
		NodesTouched:     len(rep.RoleChanged),
		RepairRadius:     rep.AffectedRadius,
		Connected:        rep.Connected,
		ActiveNodes:      s.m.ActiveCount(),
		MISSize:          s.m.MISSize(),
		BackboneSize:     s.m.BackboneSize(),
		ElapsedMicros:    time.Since(start).Microseconds(),
		Repair:           repairReport(rep.Repair),
	}
	return ev, nil
}

// toMutation validates one delta against the current state. nextID is the
// running auto-assign counter for this epoch (committed only on success).
func (s *Session) toMutation(d Delta, nextID *int) (maintain.Mutation, error) {
	switch d.Op {
	case OpMove:
		if d.Node == nil {
			return maintain.Mutation{}, errors.New(`"move" requires "node"`)
		}
		return maintain.Mutation{Op: maintain.OpMove, Node: *d.Node, Pos: geom.Point{X: d.X, Y: d.Y}}, nil
	case OpLeave:
		if d.Node == nil {
			return maintain.Mutation{}, errors.New(`"leave" requires "node"`)
		}
		return maintain.Mutation{Op: maintain.OpOff, Node: *d.Node}, nil
	case OpJoin:
		if d.Node != nil {
			return maintain.Mutation{Op: maintain.OpOn, Node: *d.Node}, nil
		}
		id := *nextID
		if d.ID != nil {
			id = *d.ID
		}
		if id >= *nextID {
			*nextID = id + 1
		}
		return maintain.Mutation{Op: maintain.OpJoin, Pos: geom.Point{X: d.X, Y: d.Y}, ID: id}, nil
	case "":
		return maintain.Mutation{}, errors.New(`missing "op"`)
	default:
		return maintain.Mutation{}, fmt.Errorf("unknown op %q", d.Op)
	}
}

// Close cancels the session with the given cause (nil = ErrClosed), then
// takes the epoch lock. Apply refuses a cancelled session under that lock,
// so Close returns only once an in-flight epoch has ended (the cancel rolls
// it back unless its repair had already finished), and no epoch applies
// after it. Idempotent; the first cause wins.
func (s *Session) Close(cause error) {
	if cause == nil {
		cause = ErrClosed
	}
	s.cancel(cause)
	s.mu.Lock()
	defer s.mu.Unlock()
}
