package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"wcdsnet/internal/maintain"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/session"
)

// maxStreamLineBytes bounds one NDJSON line on the delta stream. Streams
// are long-lived, so the whole-body cap used by the JSON endpoints does not
// apply; instead each line (one delta, or one batched epoch array) is
// bounded on its own.
const maxStreamLineBytes = 1 << 20

// handleSessionCreate builds the network, constructs the initial backbone,
// registers the session and answers with its ID plus the starting
// dominator set. Construction runs on the worker pool like any other
// compute request.
func (s *Service) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.SessionRequest
	start, ok := s.admit(w, r, endpointSession, &req, func() error { return req.Normalize(s.opts.MaxNodes) })
	if !ok {
		return
	}
	ttl, idle := req.TTL(), req.Idle()
	if ttl == 0 {
		ttl = sessionTTL
	}
	if idle == 0 {
		idle = sessionIdle
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	v, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		nw, err := req.NetworkSpec.Build()
		if err != nil {
			return nil, err
		}
		// The deadline can pass (or the client vanish) while the job sat in
		// the queue or built the network; registering then would strand a
		// session nobody knows the ID of. Check before and after Open — the
		// caller may also give up mid-registration, in which case the slot
		// is released immediately instead of waiting out idle eviction.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := session.Config{
			MaxEpoch:    req.MaxEpoch,
			TTL:         ttl,
			IdleTimeout: idle,
		}
		if req.FaultBearing() {
			// Schema v4/v5: any repair field switches the session to
			// distributed epoch repair through the escalation ladder.
			cfg.Repair = maintain.RepairPolicy{
				Distributed: true,
				Faults:      req.Faults,
				Reliable:    req.Reliable,
				MaxRetries:  req.MaxRetries,
				MaxRounds:   req.MaxRounds,
				Engine:      req.RepairEngine(),
			}
		}
		sess, err := s.sessions.Open(nw, cfg)
		if errors.Is(err, maintain.ErrNotConnected) {
			return nil, fmt.Errorf("session requires a connected network: %w", api.ErrUnreachable)
		}
		if errors.Is(err, maintain.ErrNotUnitDisk) {
			return nil, fmt.Errorf("%w: session requires a unit-disk network; quasi-unit-disk scenes cannot be maintained", api.ErrInvalidInput)
		}
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			s.sessions.Close(sess.ID(), err)
			return nil, err
		}
		m := sess.Maintainer()
		doms := m.Dominators()
		return &api.SessionResponse{
			Session:      sess.ID(),
			N:            m.Network().N(),
			Edges:        m.Network().G.M(),
			Dominators:   doms,
			MISSize:      m.MISSize(),
			BackboneSize: len(doms),
			TTLSeconds:   ttl.Seconds(),
			IdleSeconds:  idle.Seconds(),
			Schema:       api.SchemaVersion,
		}, nil
	})
	if err != nil {
		if errors.Is(err, session.ErrLimit) {
			s.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
			s.observe(endpointSession, start)
			return
		}
		s.replySubmitError(w, endpointSession, start, err)
		return
	}
	s.sessionsOpened.Inc()
	s.observe(endpointSession, start)
	writeJSON(w, http.StatusCreated, v)
}

// handleSessionStream is the NDJSON duplex endpoint: the request body
// carries topology deltas (one JSON object per line, or a JSON array per
// line for a batched epoch), the response streams one repair event per
// epoch, flushed as it completes. Backpressure is end to end: the handler
// applies each epoch from a bounded queue the body reader fills and writes
// its event before taking the next, so a slow consumer blocks the loop,
// the loop blocks the reader, and the reader slows the producer via TCP
// instead of growing server memory.
func (s *Service) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.errors.Inc()
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session"})
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	rc := http.NewResponseController(w)
	// Full duplex lets us stream the response while still reading deltas
	// from the request body (Go 1.21+; errors mean the transport cannot do
	// it, in which case small exchanges still work request-then-response).
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	in := make(chan []session.Delta, sessionQueue)

	// Body reader: one goroutine parsing NDJSON lines into epochs. It
	// stops on EOF, on an unreadable line (the error crosses to the loop
	// below and is reported fatal once the queued epochs drain), or when
	// ctx ends (the handler returning cancels r.Context(), so this
	// goroutine cannot leak).
	readErr := make(chan error, 1)
	go func() {
		defer close(in)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), maxStreamLineBytes)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			epoch, err := parseDeltaLine(line)
			if err != nil {
				readErr <- fmt.Errorf("session: unparseable delta line: %w", err)
				return
			}
			for _, d := range epoch {
				s.sessionDeltas.With(deltaKind(d.Op)).Inc()
			}
			select {
			case in <- epoch:
			case <-ctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			readErr <- fmt.Errorf("session: reading delta stream: %w", err)
		}
	}()

	// The loop stops when the body ends, the client vanishes, the session
	// closes, or an epoch fails with anything but a bad delta (which rolled
	// back cleanly and only costs its own error line).
	enc := json.NewEncoder(w)
loop:
	for {
		var epoch []session.Delta
		select {
		case <-ctx.Done():
			break loop
		case <-sess.Done():
			break loop
		case e, ok := <-in:
			if !ok {
				break loop
			}
			epoch = e
		}
		ev, err := sess.Apply(ctx, epoch)
		if err != nil {
			fatal := !errors.Is(err, session.ErrBadDelta)
			_ = enc.Encode(api.SessionStreamError{Error: err.Error(), Fatal: fatal})
			_ = rc.Flush()
			if fatal {
				break loop
			}
			continue
		}
		s.epochLatency.Observe(float64(ev.ElapsedMicros) / 1e6)
		_ = enc.Encode(ev)
		_ = rc.Flush()
	}
	// Say why before hanging up — an unreadable line (which ends the
	// stream, unlike a semantically-bad delta) reports the actual parse
	// error, and a session teardown (expiry, drain, delete) its cause.
	if ctx.Err() == nil {
		select {
		case err := <-readErr:
			_ = enc.Encode(api.SessionStreamError{Error: err.Error(), Fatal: true})
			_ = rc.Flush()
		default:
		}
		if cause := sess.Err(); cause != nil {
			_ = enc.Encode(api.SessionStreamError{Error: cause.Error(), Fatal: true})
			_ = rc.Flush()
		}
	}
}

// deltaKind maps a wire op onto its metrics label: the known kinds pass
// through, anything else collapses to "invalid" so untrusted input cannot
// mint unbounded label values on the counter family.
func deltaKind(op string) string {
	switch op {
	case session.OpJoin, session.OpLeave, session.OpMove:
		return op
	}
	return "invalid"
}

// parseDeltaLine decodes one NDJSON line: a single delta object or an
// array of deltas forming one batched epoch. Unknown fields are rejected,
// as in every request body, so a misspelt key cannot change what a line
// means.
func parseDeltaLine(line []byte) ([]session.Delta, error) {
	var epoch []session.Delta
	var target any = &epoch
	if line[0] != '[' {
		epoch = make([]session.Delta, 1)
		target = &epoch[0]
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(target); err != nil {
		return nil, err
	}
	if dec.InputOffset() != int64(len(line)) {
		return nil, errors.New("trailing data after the delta")
	}
	return epoch, nil
}

// handleSessionDelete closes a session explicitly.
func (s *Service) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	id := r.PathValue("id")
	if !s.sessions.Close(id, nil) {
		s.errors.Inc()
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "closed": true})
}
