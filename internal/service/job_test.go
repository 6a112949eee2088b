package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/obs"
)

// singleJob is one request of the fixed single-scenario grid.
type singleJob struct {
	name string
	path string
	body map[string]any
}

// genNet returns the generated-scene fields of a request body.
func genNet(seed, n int, deg float64) map[string]any {
	return map[string]any{"seed": seed, "n": n, "avgDegree": deg}
}

func with(base map[string]any, kv ...any) map[string]any {
	m := map[string]any{}
	for k, v := range base {
		m[k] = v
	}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1]
	}
	return m
}

// singleJobGrid spans the paper's three measurements on /v1/backbone,
// /v1/dilation and /v1/broadcast: both algorithms on every engine, the
// comparators, an explicit scene, lossy runs with and without the
// reliable layer, sampled and all-pairs dilation, two broadcast sources.
func singleJobGrid() []singleJob {
	bb := genNet(11, 80, 8)
	var grid []singleJob
	for _, alg := range []string{"I", "II"} {
		for _, mode := range []string{"centralized", "sync", "event", "async"} {
			body := with(bb, "algorithm", alg, "mode", mode)
			if mode != "centralized" {
				body["scheduleSeed"] = 3
			}
			grid = append(grid, singleJob{"backbone-" + alg + "-" + mode, "/v1/backbone", body})
		}
	}
	grid = append(grid,
		singleJob{"backbone-II-eager", "/v1/backbone", with(bb, "algorithm", "II", "mode", "sync", "selection", "eager")},
		singleJob{"backbone-mis-cds", "/v1/backbone", with(bb, "algorithm", "mis-cds")},
		singleJob{"backbone-greedy-cds", "/v1/backbone", with(bb, "algorithm", "greedy-cds")},
		singleJob{"backbone-weighted-ds", "/v1/backbone", with(bb, "algorithm", "weighted-ds", "weightSeed", 7)},
		singleJob{"backbone-explicit", "/v1/backbone", map[string]any{
			"positions": [][2]float64{{0, 0}, {0.8, 0}, {1.6, 0}, {2.4, 0}, {0, 0.8}, {0.8, 0.8},
				{1.6, 0.8}, {2.4, 0.8}, {0, 1.6}, {0.8, 1.6}, {1.6, 1.6}, {2.4, 1.6}},
			"ids":  []int{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
			"mode": "sync",
		}},
		singleJob{"backbone-reliable-lossy", "/v1/backbone", with(bb, "algorithm", "II", "mode", "sync",
			"faults", map[string]any{"seed": 5, "dropRate": 0.15}, "reliable", true)},
		singleJob{"backbone-unreliable-lossy", "/v1/backbone", with(genNet(7, 60, 8), "algorithm", "II", "mode", "sync",
			"faults", map[string]any{"seed": 3, "dropRate": 0.4})},
	)
	dil := genNet(5, 60, 8)
	for _, alg := range []string{"II", "prune-cds"} {
		grid = append(grid,
			singleJob{"dilation-" + alg + "-p200", "/v1/dilation", with(dil, "algorithm", alg, "pairs", 200, "sampleSeed", 9)},
			singleJob{"dilation-" + alg + "-all", "/v1/dilation", with(dil, "algorithm", alg)})
	}
	for _, src := range []int{0, 2} {
		grid = append(grid, singleJob{fmt.Sprintf("broadcast-src%d", src), "/v1/broadcast",
			with(genNet(3, 100, 9), "source", src)})
	}
	return grid
}

// postBody posts body and returns the status and the raw response bytes.
func postBody(t *testing.T, url string, body any) (int, []byte) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// normalizedResponse decodes a response body into its endpoint's type and
// re-encodes it without the non-deterministic parts: the cached flag and
// phase wall times.
func normalizedResponse(t *testing.T, path string, body []byte) []byte {
	t.Helper()
	var v any
	switch path {
	case "/v1/backbone":
		var resp BackboneResponse
		decodeStrict(t, body, &resp)
		resp.Cached = false
		for k := range resp.Phases {
			resp.Phases[k].WallNS = 0
		}
		v = resp
	case "/v1/dilation":
		var resp DilationResponse
		decodeStrict(t, body, &resp)
		resp.Cached = false
		v = resp
	default:
		var resp BroadcastResponse
		decodeStrict(t, body, &resp)
		resp.Cached = false
		v = resp
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeStrict(t *testing.T, body []byte, dst any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

func hash16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// pinnedSingleJobs holds the normalized-body hash of every grid response.
var pinnedSingleJobs = map[string]string{
	"backbone-I-centralized":    "5b067a27cbc3848c",
	"backbone-I-sync":           "fe03e4ca5d8c639f",
	"backbone-I-event":          "0725c7b45732620d",
	"backbone-I-async":          "12361cedee4df4ec",
	"backbone-II-centralized":   "ea6ba00392311f38",
	"backbone-II-sync":          "ad2249a161acd86a",
	"backbone-II-event":         "1f7fa04cbb5ef1e7",
	"backbone-II-async":         "2957aab228eaebe8",
	"backbone-II-eager":         "9c2e6152f3cb298e",
	"backbone-mis-cds":          "c905352c0edcafa3",
	"backbone-greedy-cds":       "155081114d8e0b79",
	"backbone-weighted-ds":      "40d5d4f15c870c79",
	"backbone-explicit":         "8eeb6f9cb0444f1c",
	"backbone-reliable-lossy":   "04a037254ff0c104",
	"backbone-unreliable-lossy": "ae1bb384140560ef",
	"dilation-II-p200":          "a7067e8225d10d57",
	"dilation-II-all":           "bbbc41465e38c90e",
	"dilation-prune-cds-p200":   "e5ceb0e8be85bb35",
	"dilation-prune-cds-all":    "5ebdbb27872ba5af",
	"broadcast-src0":            "ca5b8ef7b171aadf",
	"broadcast-src2":            "6b87c5910c75dd0b",
}

// rejectedSingleJobs are the requests TestValidationRejects and
// TestBackboneFaultRequestValidation send, with the status each answers.
var rejectedSingleJobs = []struct {
	path   string
	body   map[string]any
	status int
}{
	{"/v1/backbone", map[string]any{}, 400},
	{"/v1/backbone", map[string]any{"n": -5, "avgDegree": 8}, 400},
	{"/v1/backbone", map[string]any{"n": 50, "avgDegree": 0}, 400},
	{"/v1/backbone", map[string]any{"n": 50, "avgDegree": "NaN"}, 400},
	{"/v1/backbone", map[string]any{"n": 5000, "avgDegree": 8}, 400},
	{"/v1/backbone", map[string]any{"n": 5, "avgDegree": 3, "positions": [][2]float64{{0, 0}}}, 400},
	{"/v1/backbone", map[string]any{"positions": [][2]float64{{0, 0}, {1, 0}}, "ids": []int{1}}, 400},
	{"/v1/backbone", map[string]any{"positions": [][2]float64{{0, 0}, {1, 0}}, "ids": []int{3, 3}}, 400},
	{"/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "algorithm": "III"}, 400},
	{"/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "mode": "quantum"}, 400},
	{"/v1/backbone", map[string]any{"n": 50, "avgDegree": 8, "nodes": 50}, 400},
	{"/v1/broadcast", map[string]any{"n": 50, "avgDegree": 8, "source": -1}, 400},
	{"/v1/dilation", map[string]any{"n": 50, "avgDegree": 8, "algorithm": "X"}, 400},
	{"/v1/broadcast", map[string]any{"n": 50, "avgDegree": 8, "source": 1000}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5,
		"faults": map[string]any{"dropRate": 0.1}}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5, "mode": "centralized", "reliable": true}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync",
		"faults": map[string]any{"crashes": []map[string]any{{"node": 50}}}}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync",
		"faults": map[string]any{"dropRate": 1.5}}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync", "maxRetries": -1}, 400},
	{"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync", "maxRounds": -5}, 400},
}

// TestSingleJobResponsesPinned pins the three single-scenario endpoints
// byte for byte (up to the cached flag and phase wall times) over a fixed
// grid, plus the status of every rejected request.
func TestSingleJobResponsesPinned(t *testing.T) {
	_, ts := newTestService(t, Options{MaxNodes: 1000})
	for _, job := range singleJobGrid() {
		status, body := postBody(t, ts.URL+job.path, job.body)
		if status != http.StatusOK {
			t.Errorf("%s: status %d: %s", job.name, status, body)
			continue
		}
		if got, want := hash16(normalizedResponse(t, job.path, body)), pinnedSingleJobs[job.name]; got != want {
			t.Errorf("%s: response hash %s, want %s\n%s", job.name, got, want, body)
		}
		if job.name == "backbone-unreliable-lossy" && bytes.Contains(body, []byte(`"converged":true`)) {
			t.Errorf("%s: lossy run converged; the grid wants a non-converged answer", job.name)
		}
	}
	for i, rj := range rejectedSingleJobs {
		if status, body := postBody(t, ts.URL+rj.path, rj.body); status != rj.status {
			t.Errorf("rejected case %d (%s %v): status %d, want %d: %s", i, rj.path, rj.body, status, rj.status, body)
		}
	}
}

// gridWorkload returns the batch cell and workload equivalent to a
// generated-scene grid request: the scene fields become the sweep axes
// and the remaining fields, which share the workload's JSON names, the
// workload.
func gridWorkload(t *testing.T, job singleJob) batch.Spec {
	t.Helper()
	fields := map[string]any{}
	for k, v := range job.body {
		fields[k] = v
	}
	spec := batch.Spec{
		Sizes:   []int{fields["n"].(int)},
		Degrees: []float64{fields["avgDegree"].(float64)},
		Seeds:   []int64{int64(fields["seed"].(int))},
	}
	delete(fields, "seed")
	delete(fields, "n")
	delete(fields, "avgDegree")
	switch job.path {
	case "/v1/dilation":
		fields["kind"] = "dilation"
	case "/v1/broadcast":
		fields["kind"] = "broadcast"
	}
	raw, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var w batch.Workload
	decodeStrict(t, raw, &w)
	spec.Workloads = []batch.Workload{w}
	return spec
}

// TestEndpointAgreesWithBatchRow: every generated-scene request of the
// grid answers exactly what a one-cell sweep of the equivalent workload
// records, on every field the response and the row both carry.
func TestEndpointAgreesWithBatchRow(t *testing.T) {
	_, ts := newTestService(t, Options{MaxNodes: 1000})
	for _, job := range singleJobGrid() {
		if _, explicit := job.body["positions"]; explicit {
			continue
		}
		t.Run(job.name, func(t *testing.T) {
			spec := gridWorkload(t, job)
			rep, err := batch.Run(context.Background(), &spec, batch.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			row := rep.Results[0]
			if row.Err != "" {
				t.Fatalf("batch row failed: %s", row.Err)
			}
			status, body := postBody(t, ts.URL+job.path, job.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			type pair struct {
				field     string
				got, want any
			}
			var checks []pair
			switch job.path {
			case "/v1/backbone":
				var resp BackboneResponse
				decodeStrict(t, body, &resp)
				checks = []pair{
					{"backbone", len(resp.Dominators), row.Backbone},
					{"mis", len(resp.MISDominators), row.MIS},
					{"additional", len(resp.AdditionalDominators), row.Additional},
					{"spannerEdges", resp.SpannerEdges, row.SpannerEdges},
					{"valid", resp.Valid, row.Valid},
					{"messages", resp.Messages, row.Messages},
					{"rounds", resp.Rounds, row.Rounds},
					{"dropped", resp.Dropped, row.Dropped},
					{"retransmits", resp.Retransmits, row.Retransmits},
					{"converged", resp.Converged, row.Converged},
					{"failure", resp.FailureReason, row.Failure},
					{"phases", obs.CanonicalSpans(resp.Phases), obs.CanonicalSpans(row.Phases)},
				}
				// A row records the scene of converged runs only.
				if row.Converged {
					checks = append(checks, pair{"edges", resp.Edges, row.Edges})
				}
			case "/v1/dilation":
				var resp DilationResponse
				decodeStrict(t, body, &resp)
				checks = []pair{
					{"edges", resp.Edges, row.Edges},
					{"spannerEdges", resp.SpannerEdges, row.SpannerEdges},
					{"pairs", resp.Pairs, row.Pairs},
					{"worstTopo", resp.WorstTopoRatio, row.WorstTopo},
					{"worstGeo", resp.WorstGeoRatio, row.WorstGeo},
					{"avgTopo", resp.AvgTopoRatio, row.AvgTopo},
					{"avgGeo", resp.AvgGeoRatio, row.AvgGeo},
					{"bounds", resp.TopoBoundHolds && resp.GeoBoundHolds, row.BoundsOK},
				}
			default:
				var resp BroadcastResponse
				decodeStrict(t, body, &resp)
				checks = []pair{
					{"edges", resp.Edges, row.Edges},
					{"relaySize", resp.RelaySetSize, row.RelaySize},
					{"backboneTx", resp.BackboneTransmissions, row.BackboneTx},
					{"floodTx", resp.FloodTransmissions, row.FloodTx},
					{"covered", resp.BackboneCovered, row.Covered},
					{"saving", resp.TransmissionSaving, row.Saving},
				}
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s: endpoint %v, batch row %v", c.field, c.got, c.want)
				}
			}
		})
	}
}

// A short request deadline must interrupt an all-pairs dilation
// measurement and free the worker, exactly as it interrupts a backbone
// run (TestBackboneDeadlineInterruptsRunAndFreesWorker).
func TestDilationDeadlineInterruptsMeasurementAndFreesWorker(t *testing.T) {
	svc, ts := newTestService(t, Options{
		Workers:        1,
		RequestTimeout: 50 * time.Millisecond,
		CacheSize:      -1,
	})
	// All pairs of a dense 1000-node scene, measured on one goroutine:
	// seconds of work once it starts, against milliseconds to prepare.
	resp, body := postJSON(t, ts.URL+"/v1/dilation", map[string]any{
		"seed": 1, "n": 1000, "avgDegree": 200, "measureWorkers": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %v; want 504", resp.StatusCode, body)
	}
	expired := time.Now()
	for svc.pool.InFlight() != 0 {
		if time.Since(expired) > time.Second {
			t.Fatal("worker still busy a second after the 504; the deadline did not reach the measurement")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ok, okBody := postJSON(t, ts.URL+"/v1/backbone", map[string]any{"seed": 1, "n": 20, "avgDegree": 5})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request after timeout: status %d, body %v", ok.StatusCode, okBody)
	}
}
