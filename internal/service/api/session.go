package api

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"wcdsnet/internal/session"
	"wcdsnet/internal/simnet"
)

// SessionDelta and SessionEvent are the session subsystem's wire types,
// exposed verbatim (the same pattern BatchSpec uses for the batch engine):
// one delta per NDJSON line in (or a JSON array of deltas for a batched
// epoch), one event per epoch out. See session.Delta and session.Event for
// field semantics.
type (
	SessionDelta = session.Delta
	SessionEvent = session.Event
)

// SessionRequest creates a streaming topology session over the given
// network (POST /v1/session). The network must be connected; the session
// then maintains its WCDS backbone under the delta stream.
type SessionRequest struct {
	NetworkSpec
	// TTLSeconds bounds the session's total lifetime (0 = server default).
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
	// IdleSeconds evicts the session after this long without a delta or
	// lookup (0 = server default).
	IdleSeconds float64 `json:"idleSeconds,omitempty"`
	// MaxEpoch bounds the number of deltas in one epoch (0 = server
	// default).
	MaxEpoch int `json:"maxEpoch,omitempty"`

	// Faults, when present (or when Reliable/MaxRetries is set), switches
	// every epoch's repair to the distributed protocol run over a lossy
	// simnet under this plan, with the escalation ladder behind it (local
	// fallback, fixpoint rebuild). See simnet.FaultPlan for the schema.
	Faults *simnet.FaultPlan `json:"faults,omitempty"`
	// Reliable wraps the repair protocol in the ack/retransmit layer so
	// it converges under loss.
	Reliable bool `json:"reliable,omitempty"`
	// MaxRetries overrides the reliable layer's per-frame retry budget
	// (0 = default).
	MaxRetries int `json:"maxRetries,omitempty"`
	// MaxRounds overrides the per-attempt engine quiescence budget
	// (0 = a fault-tolerant default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Engine runs the repair protocol on the named simulation engine:
	// "sync" (default), "async" or "event". Schema v5.
	Engine string `json:"engine,omitempty"`
}

// FaultBearing reports whether the request asks for distributed repair
// under the fault model (any of the schema-v4/v5 repair fields set).
func (req *SessionRequest) FaultBearing() bool {
	return req.Faults != nil || req.Reliable || req.MaxRetries != 0 || req.MaxRounds != 0 ||
		req.Engine != ""
}

// RepairEngine resolves the engine field onto the repair protocol's
// simulation engine. Call after Normalize.
func (req *SessionRequest) RepairEngine() simnet.Engine {
	eng, _ := simnet.ParseEngine(req.Engine)
	return eng
}

// Normalize validates the request against the service limits.
func (req *SessionRequest) Normalize(maxNodes int) error {
	if err := req.NetworkSpec.Validate(maxNodes); err != nil {
		return err
	}
	if eng := strings.ToLower(req.Engine); eng != "" {
		if _, ok := simnet.ParseEngine(eng); !ok {
			return Errorf("unknown engine %q (want sync, async or event)", req.Engine)
		}
		req.Engine = eng
	}
	if req.TTLSeconds < 0 {
		return Errorf("ttlSeconds %v must be non-negative", req.TTLSeconds)
	}
	if req.IdleSeconds < 0 {
		return Errorf("idleSeconds %v must be non-negative", req.IdleSeconds)
	}
	if req.MaxEpoch < 0 {
		return Errorf("maxEpoch %d must be non-negative", req.MaxEpoch)
	}
	if req.MaxRetries < 0 {
		return Errorf("maxRetries %d must be non-negative", req.MaxRetries)
	}
	if req.MaxRounds < 0 {
		return Errorf("maxRounds %d must be non-negative", req.MaxRounds)
	}
	if req.Faults != nil && req.Faults.Empty() {
		req.Faults = nil
	}
	if req.Faults != nil {
		// Validate against the spec's node count; joins grow the graph
		// later, which only loosens the node-indexed windows' bound.
		if err := req.Faults.Validate(req.nodes()); err != nil {
			return Errorf("%v", err)
		}
	}
	return nil
}

// TTL and Idle convert the second-valued knobs to durations (0 = unset).
func (req *SessionRequest) TTL() time.Duration {
	return time.Duration(req.TTLSeconds * float64(time.Second))
}

// Idle returns the idle-eviction timeout (0 = unset).
func (req *SessionRequest) Idle() time.Duration {
	return time.Duration(req.IdleSeconds * float64(time.Second))
}

// SessionResponse acknowledges session creation with the initial backbone.
type SessionResponse struct {
	// Session is the identifier for the stream and delete endpoints.
	Session string `json:"session"`
	N       int    `json:"n"`
	Edges   int    `json:"edges"`
	// Dominators is the initial maintained WCDS (MIS plus connectors).
	Dominators   []int `json:"dominators"`
	MISSize      int   `json:"misSize"`
	BackboneSize int   `json:"backboneSize"`
	// TTLSeconds and IdleSeconds echo the effective (possibly defaulted)
	// limits.
	TTLSeconds  float64 `json:"ttlSeconds"`
	IdleSeconds float64 `json:"idleSeconds"`
	Schema      int     `json:"schema"`
}

// SessionStreamError is an NDJSON line the stream endpoint emits when an
// epoch fails. Fatal=false means the epoch rolled back and the stream
// continues (bad delta); Fatal=true means the stream is about to close
// (session expired, drained, or cancelled).
type SessionStreamError struct {
	Error string `json:"error"`
	Fatal bool   `json:"fatal,omitempty"`
}

// Canonical renders the request for logging/debugging (sessions are
// stateful, so there is deliberately no cache key).
func (req *SessionRequest) Canonical() string {
	var b strings.Builder
	b.WriteString("session|")
	req.NetworkSpec.Canonical(&b)
	fmt.Fprintf(&b, "|ttl=%g,idle=%g,epoch=%d", req.TTLSeconds, req.IdleSeconds, req.MaxEpoch)
	if req.FaultBearing() {
		fmt.Fprintf(&b, "|rel=%v,retries=%d,rounds=%d,eng=%s", req.Reliable, req.MaxRetries, req.MaxRounds, req.Engine)
		if req.Faults != nil {
			plan, _ := json.Marshal(req.Faults)
			b.WriteByte('|')
			b.Write(plan)
		}
	}
	return b.String()
}
