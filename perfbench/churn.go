package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"wcdsnet"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/service/api"
)

// session-churn: two closed-loop clients each drive one local-repair and
// one lossy-repair session over duplex NDJSON streams, in a pinned 9:1
// epoch order.
func init() {
	register(workload{name: "session-churn", clients: 2, tail: 99, prefix: 150, setups: 60, prepare: prepareChurn})
}

type churnEnv struct {
	srv     *httpServer
	streams [2][2]*churnStream // [client][lossy]
}

// churnStream is one session with its open delta stream.
type churnStream struct {
	lossy  bool
	w      *io.PipeWriter
	r      *bufio.Reader
	body   io.ReadCloser
	seq    int
	mirror *churnMirror
	// traced instances replay every epoch on an in-process mirror session
	// with a stage recorder.
	local *wcdsnet.TopologySession
	rec   *stageRecorder
}

func churnPlan(seed int64, c int) *wcdsnet.FaultPlan {
	return &wcdsnet.FaultPlan{Seed: mix(seed, 8, int64(c)) % (1 << 40), DropRate: churnDropRate}
}

// churnScene is one session's scene seed and the client-side copy of the
// scene it generates.
type churnScene struct {
	seed int64
	nw   *wcdsnet.Network
}

// prepareChurn picks each session's scene seed and generates the scene
// client-side once: the delta mirrors start from it and set-up checks the
// service built the same.
func prepareChurn(seed int64) (setupFunc, error) {
	var scenes [2][2]churnScene
	for c := range scenes {
		for k, lossy := range []bool{false, true} {
			s := churnSessionSeed(seed, c, lossy)
			nw, err := wcdsnet.GenerateNetwork(s, churnNodes, churnDegree)
			if err != nil {
				return nil, err
			}
			scenes[c][k] = churnScene{s, nw}
		}
	}
	return func(traced bool) (env, error) { return setupChurn(seed, &scenes, traced) }, nil
}

func setupChurn(seed int64, scenes *[2][2]churnScene, traced bool) (env, error) {
	srv, err := startServer(serveOptions, 4)
	if err != nil {
		return nil, err
	}
	e := &churnEnv{srv: srv}
	for c := 0; c < 2; c++ {
		for k, lossy := range []bool{false, true} {
			s, err := e.open(seed, c, lossy, scenes[c][k], traced)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("session %d/%d: %w", c, k, err)
			}
			e.streams[c][k] = s
		}
	}
	return e, nil
}

// open creates one session over POST /v1/session and opens its stream.
func (e *churnEnv) open(seed int64, c int, lossy bool, sc churnScene, traced bool) (*churnStream, error) {
	nw := sc.nw
	req := api.SessionRequest{NetworkSpec: api.NetworkSpec{Seed: sc.seed, N: churnNodes, AvgDegree: churnDegree}}
	var cfg wcdsnet.SessionConfig
	if lossy {
		req.Faults, req.Reliable = churnPlan(seed, c), true
		// The service repairs on the sync engine unless the request names one.
		cfg.Repair = wcdsnet.RepairPolicy{Distributed: true, Faults: churnPlan(seed, c), Reliable: true, Engine: wcdsnet.EngineSync}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, out, err := e.srv.post("/v1/session", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("create: status %d: %s", status, bytes.TrimSpace(out))
	}
	var created api.SessionResponse
	if err := json.Unmarshal(out, &created); err != nil {
		return nil, err
	}
	if created.N != nw.N() || created.Edges != nw.G.M() {
		return nil, fmt.Errorf("session scene has n=%d m=%d, the generator gives n=%d m=%d",
			created.N, created.Edges, nw.N(), nw.G.M())
	}
	s := &churnStream{lossy: lossy, mirror: newChurnMirror(nw, churnDeltaRNG(seed, c, lossy))}
	if traced {
		s.rec = &stageRecorder{}
		cfg.Recorder = s.rec
		if s.local, err = wcdsnet.OpenSession(nw.Clone(), cfg); err != nil {
			return nil, err
		}
	}
	pr, pw := io.Pipe()
	hreq, err := http.NewRequest(http.MethodPost, e.srv.url+"/v1/session/"+created.Session+"/stream", pr)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := e.srv.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	s.w, s.r, s.body = pw, bufio.NewReader(resp.Body), resp.Body
	return s, nil
}

func (e *churnEnv) close() {
	for _, pair := range e.streams {
		for _, s := range pair {
			if s == nil {
				continue
			}
			s.w.Close()
			_, _ = io.Copy(io.Discard, s.body) // the server ends the stream on EOF
			s.body.Close()
			if s.local != nil {
				s.local.Close(nil)
			}
		}
	}
	e.srv.close()
}

func (e *churnEnv) verify() error { return nil }

// churnEvent is one stream line: an epoch event or an error report.
type churnEvent struct {
	wcdsnet.SessionEvent
	Error string `json:"error"`
}

func (e *churnEnv) do(c, i int, t *opTrace) (opResult, error) {
	lossy := i%churnLossyEvery == churnLossyEvery-1
	s := e.streams[c][0]
	if lossy {
		s = e.streams[c][1]
	}
	oldN := len(s.mirror.pos)
	deltas := s.mirror.epoch()
	line, err := json.Marshal(deltas)
	if err != nil {
		return opResult{}, err
	}
	line = append(line, '\n')

	var call int
	if t != nil {
		call = t.tr.open("session.epoch", t.root, t.op)
	}
	start := time.Now()
	_, err = s.w.Write(line)
	var reply []byte
	if err == nil {
		reply, err = s.r.ReadBytes('\n')
	}
	res := opResult{lat: time.Since(start)}
	if t != nil {
		t.tr.close(call)
	}
	if err != nil {
		return res, err
	}
	var ev churnEvent
	if err := json.Unmarshal(reply, &ev); err != nil {
		return res, failCheck("undecodable event: %v", err)
	}
	if ev.Error != "" {
		return res, failCheck("epoch rejected: %s", ev.Error)
	}
	res.nodes = ev.ActiveNodes
	s.seq++
	var joined []int
	for k := oldN; k < len(s.mirror.pos); k++ {
		joined = append(joined, k)
	}
	switch {
	case ev.Seq != s.seq:
		return res, failCheck("event seq %d, want %d", ev.Seq, s.seq)
	case ev.Repair == nil || ev.Repair.Outcome == "violated":
		return res, failCheck("epoch %d repair outcome %+v", ev.Seq, ev.Repair)
	case !slices.Equal(ev.Joined, joined):
		return res, failCheck("epoch %d joined %v, want %v", ev.Seq, ev.Joined, joined)
	}
	if t != nil {
		return res, s.replay(t, call, deltas, ev.SessionEvent)
	}
	return res, nil
}

// replay applies the same epoch to the in-process mirror session, timing
// it as maintain.apply with the maintainer's stage spans beneath, and
// checks that the mirror reports the same event.
func (s *churnStream) replay(t *opTrace, call int, deltas []wcdsnet.SessionDelta, got wcdsnet.SessionEvent) error {
	s.rec.reset()
	var want wcdsnet.SessionEvent
	var err error
	apply := t.tr.time("maintain.apply", t.root, t.op, func() { want, err = s.local.Apply(context.Background(), deltas) })
	if err != nil {
		return failCheck("mirror session: %v", err)
	}
	names, durs, deliveries := s.rec.stages()
	t.tr.stages(apply, t.op, names, durs)
	t.layers["session.stream_ms"] += t.tr.dur(call) - t.tr.dur(apply)

	want.Session, want.ElapsedMicros = got.Session, got.ElapsedMicros
	a, _ := json.Marshal(got) // plain structs: cannot fail
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		return failCheck("stream event %s differs from mirror session %s", a, b)
	}
	t.counts["maintain.nodes_touched"] += float64(got.NodesTouched)
	t.counts["simnet.deliveries_per_op"] += float64(deliveries)
	if r := got.Repair; r != nil {
		t.counts["simnet.messages_per_op"] += float64(r.Messages)
		t.counts["simnet.rounds_per_op"] += float64(r.Rounds)
		if s.lossy {
			t.counts["reliable.retransmits"] += float64(r.Retries)
			t.counts["reliable.messages"] += float64(r.Messages)
			t.counts["maintain.lossy_epochs"]++
			if r.Escalations > 0 {
				t.counts["maintain.escalated"]++
			}
		}
	}
	return nil
}

// stageRecorder collects one epoch's maintainer stage times (rebuild,
// repair, connectors) and the repair protocol's deliveries.
type stageRecorder struct {
	mu         sync.Mutex
	names      []string
	durs       []time.Duration
	deliveries int
}

func (r *stageRecorder) Event(_ string, kind obs.Kind, _ int) {
	if kind == obs.Deliver {
		r.mu.Lock()
		r.deliveries++
		r.mu.Unlock()
	}
}

func (r *stageRecorder) Add(sp obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = append(r.names, "maintain."+sp.Name)
	r.durs = append(r.durs, time.Duration(sp.WallNS))
}

func (r *stageRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names, r.durs, r.deliveries = nil, nil, 0
}

func (r *stageRecorder) stages() ([]string, []time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.names, r.durs, r.deliveries
}
