package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/service"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/udg"
)

// serve: two closed-loop clients post /v1/backbone to an in-process
// service behind a real loopback listener.
func init() {
	register(workload{name: "serve", clients: 2, tail: 99, prefix: 150, setups: 60, prepare: prepareServe})
}

// serveOptions sizes the service as a 2-core daemon: 2 pool workers and an
// 8-deep queue (closed-loop clients never fill it).
var serveOptions = service.Options{Workers: 2, QueueSize: 8}

// httpServer is an in-process service behind a loopback listener.
type httpServer struct {
	svc    *service.Service
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startServer(opts service.Options, clients int) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{
		svc:  service.New(opts),
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
			DisableCompression:  true,
		}},
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // closing an in-process listener has no error worth reporting
	s.svc.Close()
	<-s.done
}

// post sends one JSON request and reads the whole response.
func (s *httpServer) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

type serveEnv struct {
	gen *serveGen
	srv *httpServer
	// firsts keeps each client's recent fresh responses (normalized) by op
	// index, for the repeat check.
	firsts []map[int][]byte
}

// prepareServe builds the request generator (its explicit-body scene pool
// depends only on the seed); each set-up starts a fresh service.
func prepareServe(seed int64) (setupFunc, error) {
	gen, err := newServeGen(seed)
	if err != nil {
		return nil, err
	}
	return func(bool) (env, error) { return setupServe(gen) }, nil
}

// setupServe starts the service and warms it up with one small request
// per construction, which opens the client connection and lets lazy
// initialisation finish before anything is timed. The warm-up scenes are
// fixed, not drawn from the run's seed, so set-up does the same work for
// every seed; no measured op repeats them.
func setupServe(gen *serveGen) (env, error) {
	srv, err := startServer(serveOptions, 2)
	if err != nil {
		return nil, err
	}
	for k, run := range serveRuns {
		body, err := json.Marshal(map[string]any{"algorithm": run.algorithm, "mode": run.mode,
			"seed": mix(0, 9, int64(k)), "n": 100, "avgDegree": 10})
		if err != nil {
			srv.close()
			return nil, err
		}
		if status, out, err := srv.post("/v1/backbone", body); err != nil || status != http.StatusOK {
			srv.close()
			return nil, fmt.Errorf("warm-up request: status %d: %v %s", status, err, bytes.TrimSpace(out))
		}
	}
	return &serveEnv{gen: gen, srv: srv, firsts: []map[int][]byte{{}, {}}}, nil
}

func (e *serveEnv) close()        { e.srv.close() }
func (e *serveEnv) verify() error { return nil }

func (e *serveEnv) do(c, i int, t *opTrace) (opResult, error) {
	// No later op can repeat one this far back.
	delete(e.firsts[c], i-serveMaxReach-1)
	op := e.gen.op(c, i)
	var call int
	if t != nil {
		call = t.tr.open("service.http", t.root, t.op)
	}
	start := time.Now()
	status, body, err := e.srv.post("/v1/backbone", op.body)
	res := opResult{lat: time.Since(start), nodes: op.n}
	if t != nil {
		t.tr.close(call)
	}
	if err != nil {
		return res, err
	}
	if status != http.StatusOK {
		return res, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp api.BackboneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return res, failCheck("undecodable response: %v", err)
	}
	if !resp.Valid || resp.N != op.n {
		return res, failCheck("invalid backbone (valid=%v n=%d want %d)", resp.Valid, resp.N, op.n)
	}
	norm, err := normalizedBackbone(resp)
	if err != nil {
		return res, failCheck("re-encoding response: %v", err)
	}
	firsts := e.firsts[c]
	if op.orig == i {
		firsts[i] = norm
	} else if first, ok := firsts[op.orig]; !ok || !bytes.Equal(first, norm) {
		return res, failCheck("repeat of op %d answered differently:\n%s\n%s", op.orig, first, norm)
	}
	if t != nil {
		if err := e.replay(t, call, op, resp); err != nil {
			return res, err
		}
	}
	return res, nil
}

// normalizedBackbone re-encodes a response without its non-deterministic
// parts (the cached flag and phase wall times), for repeat comparison.
func normalizedBackbone(resp api.BackboneResponse) ([]byte, error) {
	resp.Cached = false
	resp.Phases = append([]obs.Span(nil), resp.Phases...)
	for k := range resp.Phases {
		resp.Phases[k].WallNS = 0
	}
	return json.Marshal(resp)
}

// replay pushes the op's inputs through the layer functions the service
// ran, each timed as a child span of the op: decode, scene generation or
// build, the centralized construction, and encode. Distributed runs are
// not replayed; their phases come from the response (measured inside the
// service) and are laid out under the HTTP span.
func (e *serveEnv) replay(t *opTrace, call int, op serveOp, resp api.BackboneResponse) error {
	t.counts["cache.lookups"]++
	var req api.BackboneRequest
	var derr error
	serverSide := time.Duration(0)
	timed := func(name string, f func()) {
		serverSide += t.tr.dur(t.tr.time(name, t.root, t.op, f))
	}
	timed("service.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(op.body))
		dec.DisallowUnknownFields()
		if derr = dec.Decode(&req); derr == nil {
			if derr = req.Normalize(); derr == nil {
				derr = req.NetworkSpec.Validate(20000)
			}
		}
	})
	if derr != nil {
		return failCheck("replayed decode: %v", derr)
	}
	if resp.Cached {
		t.counts["cache.hits"]++
	} else {
		var nw *udg.Network
		var err error
		if op.explicit {
			timed("udg.build", func() { nw, err = req.NetworkSpec.Build() })
		} else {
			timed("udg.gen", func() {
				var attempts int
				nw, attempts, err = genConnected(req.Seed, req.N, req.AvgDegree)
				t.counts["udg.attempts"] += float64(attempts)
				t.counts["udg.scenes"]++
			})
		}
		if err != nil {
			return failCheck("replayed scene: %v", err)
		}
		if nw.G.M() != resp.Edges {
			return failCheck("replayed scene has %d edges, service built %d", nw.G.M(), resp.Edges)
		}
		if req.Mode == "centralized" {
			c, _ := algo.Lookup(req.Algorithm) // Normalize resolved the name
			var res []int
			timed("algo.centralized", func() {
				r, rerr := c.Run(algo.Input{G: nw.G, IDs: nw.ID})
				res, err = r.Dominators, rerr
			})
			if err != nil || !slices.Equal(res, resp.Dominators) {
				return failCheck("replayed construction differs (%v)", err)
			}
		} else {
			names, durs := make([]string, len(resp.Phases)), make([]time.Duration, len(resp.Phases))
			for k, p := range resp.Phases {
				names[k], durs[k] = "wcds."+p.Name, time.Duration(p.WallNS)
				serverSide += durs[k]
				t.counts["simnet.deliveries_per_op"] += float64(p.Deliveries)
			}
			t.tr.stages(call, t.op, names, durs)
			t.counts["simnet.messages_per_op"] += float64(resp.Messages)
			t.counts["simnet.rounds_per_op"] += float64(resp.Rounds)
		}
	}
	timed("service.encode", func() { _ = json.NewEncoder(io.Discard).Encode(&resp) })
	t.layers["service.unattributed_ms"] += t.tr.dur(call) - serverSide
	return nil
}

// genConnected replays the service's scene generation
// (udg.GenConnectedAvgDegree with the request seed and its 2000-try
// bound), counting the uniform samples drawn until one is connected.
func genConnected(seed int64, n int, deg float64) (*udg.Network, int, error) {
	rng := rand.New(rand.NewSource(seed))
	side := udg.SideForAvgDegree(n, deg)
	for try := 1; try <= 2000; try++ {
		nw := udg.GenUniform(rng, n, side)
		if nw.G.Connected() {
			return nw, try, nil
		}
	}
	return nil, 2000, fmt.Errorf("no connected scene for seed %d n=%d", seed, n)
}
