package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"time"
	"wcdsnet/internal/service/api"

	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func TestBackboneEndpointMatchesCentralizedReference(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 42, "n": 150, "avgDegree": 8, "algorithm": "II", "mode": "sync",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["isWCDS"] != true {
		t.Fatalf("service returned a non-WCDS backbone: %v", body)
	}

	// The same scenario computed directly must agree dominator for dominator.
	rng := rand.New(rand.NewSource(42))
	nw, err := udg.GenConnectedAvgDegree(rng, 150, 8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := wcds.Algo2Centralized(nw.G, nw.ID)
	got := toInts(t, body["dominators"])
	if !reflect.DeepEqual(got, want.Dominators) {
		t.Errorf("dominators diverge from centralized reference:\n got %v\nwant %v", got, want.Dominators)
	}
	if body["cached"] != false {
		t.Errorf("first request reported cached=true")
	}
}

func toInts(t *testing.T, v any) []int {
	t.Helper()
	raw, ok := v.([]any)
	if !ok {
		t.Fatalf("expected array, got %T", v)
	}
	out := make([]int, len(raw))
	for i, x := range raw {
		out[i] = int(x.(float64))
	}
	return out
}

// TestBackboneEngineField drives the schema-v5 engine field over the wire:
// an event-engine run answers with the engine echoed, the same backbone as
// sync, and a distinct cache entry; contradictions are 400s.
func TestBackboneEngineField(t *testing.T) {
	_, ts := newTestService(t, Options{})
	scenario := map[string]any{"seed": 9, "n": 120, "avgDegree": 8}
	post := func(extra map[string]any) (*http.Response, map[string]any) {
		req := map[string]any{}
		for k, v := range scenario {
			req[k] = v
		}
		for k, v := range extra {
			req[k] = v
		}
		return postJSON(t, ts.URL+"/v1/backbone", req)
	}

	resp, viaSync := post(map[string]any{"mode": "sync"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d: %v", resp.StatusCode, viaSync)
	}
	resp, viaEvent := post(map[string]any{"engine": "event"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event: status %d: %v", resp.StatusCode, viaEvent)
	}
	if viaEvent["engine"] != "event" || viaEvent["mode"] != "event" {
		t.Errorf("response does not echo the normalized engine: mode=%v engine=%v",
			viaEvent["mode"], viaEvent["engine"])
	}
	if viaEvent["schema"] != float64(api.SchemaVersion) {
		t.Errorf("schema %v, want %d", viaEvent["schema"], api.SchemaVersion)
	}
	if !reflect.DeepEqual(toInts(t, viaEvent["dominators"]), toInts(t, viaSync["dominators"])) {
		t.Errorf("event engine backbone diverges from sync on the same scenario")
	}
	if viaEvent["cached"] != false {
		t.Errorf("event request hit the sync run's cache entry")
	}
	resp, again := post(map[string]any{"mode": "event"})
	if resp.StatusCode != http.StatusOK || again["cached"] != true {
		t.Errorf("mode=event did not hit the engine=event cache entry: %d %v",
			resp.StatusCode, again["cached"])
	}

	for _, bad := range []map[string]any{
		{"engine": "turbo"},
		{"mode": "centralized", "engine": "event"},
		{"mode": "sync", "engine": "event"},
	} {
		resp, body := post(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400 (%v)", bad, resp.StatusCode, body)
		}
	}
}

func TestBackboneCacheHitOnRepeat(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	req := map[string]any{"seed": 7, "n": 80, "avgDegree": 6}
	resp1, body1 := postJSON(t, ts.URL+"/v1/backbone", req)
	resp2, body2 := postJSON(t, ts.URL+"/v1/backbone", req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if body1["cached"] != false || body2["cached"] != true {
		t.Fatalf("cached flags = %v, %v; want false, true", body1["cached"], body2["cached"])
	}
	if !reflect.DeepEqual(body1["dominators"], body2["dominators"]) {
		t.Error("cached response diverged from computed response")
	}
	hits, misses, _ := svc.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	// A different algorithm over the same network is a different entry.
	_, body3 := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 7, "n": 80, "avgDegree": 6, "algorithm": "I",
	})
	if body3["cached"] != false {
		t.Error("algorithm I request hit algorithm II's cache entry")
	}
}

func TestExplicitTopologyRequest(t *testing.T) {
	_, ts := newTestService(t, Options{})
	// A 4-node path: 0-1-2-3 at unit spacing.
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"positions": [][2]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if n := body["n"].(float64); n != 4 {
		t.Errorf("n = %v, want 4", n)
	}
	if body["isWCDS"] != true {
		t.Errorf("path backbone is not a WCDS: %v", body)
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := newTestService(t, Options{MaxNodes: 1000})
	cases := []struct {
		name string
		path string
		body map[string]any
	}{
		{"empty spec", "/v1/backbone", map[string]any{}},
		{"negative n", "/v1/backbone", map[string]any{"n": -5, "avgDegree": 8}},
		{"zero degree", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 0}},
		{"nan degree", "/v1/backbone", map[string]any{"n": 50, "avgDegree": "NaN"}},
		{"over maxnodes", "/v1/backbone", map[string]any{"n": 5000, "avgDegree": 8}},
		{"both forms", "/v1/backbone", map[string]any{"n": 5, "avgDegree": 3, "positions": [][2]float64{{0, 0}}}},
		{"ids mismatch", "/v1/backbone", map[string]any{"positions": [][2]float64{{0, 0}, {1, 0}}, "ids": []int{1}}},
		{"duplicate ids", "/v1/backbone", map[string]any{"positions": [][2]float64{{0, 0}, {1, 0}}, "ids": []int{3, 3}}},
		{"bad algorithm", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "algorithm": "III"}},
		{"bad mode", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "mode": "quantum"}},
		{"centralized eager", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "mode": "centralized", "selection": "eager"}},
		{"eager on algorithm I", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "algorithm": "I", "mode": "sync", "selection": "eager"}},
		{"unknown field", "/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "nodes": 50}},
		{"negative source", "/v1/broadcast", map[string]any{"n": 50, "avgDegree": 8, "source": -1}},
		{"dilation bad algo", "/v1/dilation", map[string]any{"n": 50, "avgDegree": 8, "algorithm": "X"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %v", resp.StatusCode, body)
			}
			if body["error"] == "" {
				t.Error("400 without a descriptive error message")
			}
		})
	}

	// Source out of range is discovered during compute but is still the
	// client's fault → 400.
	resp, _ := postJSON(t, ts.URL+"/v1/broadcast", map[string]any{"n": 50, "avgDegree": 8, "source": 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range source: status %d, want 400", resp.StatusCode)
	}
}

func TestDilationEndpoint(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/dilation", map[string]any{
		"seed": 3, "n": 100, "avgDegree": 8, "pairs": 200,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["topoBoundHolds"] != true || body["geoBoundHolds"] != true {
		t.Errorf("Theorem 11 bounds violated: %v", body)
	}
	if body["worstTopoRatio"].(float64) <= 0 {
		t.Errorf("worstTopoRatio = %v, want > 0", body["worstTopoRatio"])
	}
}

func TestBroadcastEndpoint(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/broadcast", map[string]any{
		"seed": 3, "n": 150, "avgDegree": 10, "source": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["backboneCovered"] != true {
		t.Fatalf("backbone broadcast failed to cover: %v", body)
	}
	bt := body["backboneTransmissions"].(float64)
	ft := body["floodTransmissions"].(float64)
	if bt >= ft {
		t.Errorf("backbone used %v transmissions vs flood's %v; no saving", bt, ft)
	}
	if body["transmissionSaving"].(float64) <= 0 {
		t.Errorf("transmissionSaving = %v, want > 0", body["transmissionSaving"])
	}
}

func TestBackpressure429WhenQueueFull(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 1, QueueSize: 1})
	block := make(chan struct{})
	var wg sync.WaitGroup
	// Occupy the worker, then the queue slot, directly through the pool.
	// Sequenced, because Submit is non-blocking: two concurrent submissions
	// can both hit the queue before the worker dequeues either, and the
	// loser would be rejected instead of parked.
	submitBlocked := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = svc.pool.Submit(context.Background(), func(context.Context) (any, error) {
				<-block
				return nil, nil
			})
		}()
	}
	waitFor := func(cond func() bool, what string) {
		deadline := time.After(2 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				close(block)
				t.Fatalf("pool never saturated (%s): inFlight=%d queueDepth=%d",
					what, svc.pool.InFlight(), svc.pool.QueueDepth())
			case <-time.After(time.Millisecond):
			}
		}
	}
	submitBlocked()
	waitFor(func() bool { return svc.pool.InFlight() == 1 }, "worker busy")
	submitBlocked()
	waitFor(func() bool { return svc.pool.QueueDepth() == 1 }, "queue full")

	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{"seed": 1, "n": 50, "avgDegree": 6})
	if resp.StatusCode != http.StatusTooManyRequests {
		close(block)
		t.Fatalf("saturated service answered %d, want 429; body %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	close(block)
	wg.Wait()

	// After the pool drains, the same request must succeed.
	resp2, _ := postJSON(t, ts.URL+"/v1/backbone", map[string]any{"seed": 1, "n": 50, "avgDegree": 6})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request answered %d, want 200", resp2.StatusCode)
	}
}

func TestRequestTimeout504(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 1, QueueSize: 4, RequestTimeout: 20 * time.Millisecond})
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = svc.pool.Submit(context.Background(), func(context.Context) (any, error) {
			<-block
			return nil, nil
		})
	}()
	for svc.pool.InFlight() != 1 {
		time.Sleep(time.Millisecond)
	}
	// This request queues behind the blocked worker and must time out.
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{"seed": 2, "n": 50, "avgDegree": 6})
	close(block)
	wg.Wait()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request answered %d, want 504; body %v", resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestService(t, Options{})
	// Generate one computed and one cached request so counters move.
	req := map[string]any{"seed": 5, "n": 60, "avgDegree": 6}
	postJSON(t, ts.URL+"/v1/backbone", req)
	postJSON(t, ts.URL+"/v1/backbone", req)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	if health["cacheHits"].(float64) != 1 {
		t.Errorf("healthz cacheHits = %v, want 1", health["cacheHits"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, mresp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"wcds_service_requests_total 2",
		"wcds_service_cache_hits_total 1",
		"# TYPE wcds_service_backbone_latency_seconds summary",
		"wcds_service_backbone_latency_seconds_count 2",
		"# TYPE wcds_service_queue_depth gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// The -race workhorse: many goroutines hitting all endpoints with a
	// small scenario set so cache hits, misses and pool traffic interleave.
	// A 429 is backpressure working as designed and is retried (50 tries,
	// 25 ms apart); every request must end 200, and the repeats must hit
	// the cache. The roomy service's queue holds every in-flight request,
	// so it never answers 429. The tight one has one worker and one queue
	// slot, so every run sees 429s and the retry budget must absorb real
	// backpressure (with 4 workers, even no queue at all left some runs
	// without a 429).
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		tight bool
	}{
		{"roomy", Options{Workers: 4, QueueSize: 64}, false},
		{"tight", Options{Workers: 1, QueueSize: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts := newTestService(t, tc.opts)
			var wg sync.WaitGroup
			var retried atomic.Int64
			errs := make(chan string, 256)
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						seed := (g + i) % 3
						var path string
						var req map[string]any
						switch i % 3 {
						case 0:
							path, req = "/v1/backbone", map[string]any{"seed": seed, "n": 60, "avgDegree": 6, "mode": "sync"}
						case 1:
							path, req = "/v1/dilation", map[string]any{"seed": seed, "n": 50, "avgDegree": 6, "pairs": 50}
						default:
							path, req = "/v1/broadcast", map[string]any{"seed": seed, "n": 50, "avgDegree": 6}
						}
						raw, _ := json.Marshal(req)
						for try := 1; ; try++ {
							resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
							if err != nil {
								errs <- err.Error()
								return
							}
							resp.Body.Close()
							if resp.StatusCode == http.StatusTooManyRequests && try < 50 {
								retried.Add(1)
								time.Sleep(25 * time.Millisecond)
								continue
							}
							if resp.StatusCode != http.StatusOK {
								errs <- fmt.Sprintf("%s: status %d after %d tries", path, resp.StatusCode, try)
							}
							break
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
			if hits, _, _ := svc.CacheStats(); hits == 0 {
				t.Error("the cache never hit across the repeated requests")
			}
			t.Logf("%d 429s retried", retried.Load())
			if tc.tight && retried.Load() == 0 {
				t.Error("the tight queue never answered 429, so the retry path did not run")
			}
		})
	}
}

func TestServiceCloseAnswers503(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	svc.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/backbone", map[string]any{"seed": 1, "n": 50, "avgDegree": 6})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed service answered %d, want 503", resp.StatusCode)
	}
}
