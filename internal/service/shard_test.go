package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"wcdsnet/internal/service/api"
)

func shardSpec() map[string]any {
	return map[string]any{
		"sizes":   []int{30, 40},
		"degrees": []float64{6},
		"seeds":   []int64{1, 2},
		"workloads": []map[string]any{
			{"kind": "backbone", "algorithm": "II"},
			{"kind": "broadcast", "source": 1},
		},
	}
}

// TestShardEndpointMatchesBatchRows: a shard's rows are byte-identical to
// the corresponding slice of the full /v1/batch results — the wire-level
// form of the RunRange contract the fleet merge depends on.
func TestShardEndpointMatchesBatchRows(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, full := postJSON(t, ts.URL+"/v1/batch", shardSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, full)
	}
	fullRows := full["results"].([]any)

	req := shardSpec()
	req["lo"], req["hi"] = 2, 5
	resp, body := postJSON(t, ts.URL+"/v1/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard status %d: %v", resp.StatusCode, body)
	}
	if body["scenarios"] != float64(3) {
		t.Fatalf("shard scenarios = %v, want 3", body["scenarios"])
	}
	rows, ok := body["results"].([]any)
	if !ok || len(rows) != 3 {
		t.Fatalf("shard results missing or short: %v", body["results"])
	}
	for i, row := range rows {
		got := row.(map[string]any)
		want := fullRows[2+i].(map[string]any)
		if got["index"] != float64(2+i) {
			t.Fatalf("shard row %d carries index %v", i, got["index"])
		}
		// Wall time is the only non-deterministic field.
		delete(got, "wallNS")
		delete(want, "wallNS")
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("shard row %d differs from batch row:\n%s\nvs\n%s", i, g, w)
		}
	}
	if body["cached"] != false {
		t.Fatal("first shard reported cached=true")
	}

	// Repeat: cache hit. A different range is a distinct entry.
	resp, body = postJSON(t, ts.URL+"/v1/shard", req)
	if resp.StatusCode != http.StatusOK || body["cached"] != true {
		t.Fatalf("repeat shard: status %d cached %v", resp.StatusCode, body["cached"])
	}
	other := shardSpec()
	other["lo"], other["hi"] = 0, 2
	resp, body = postJSON(t, ts.URL+"/v1/shard", other)
	if resp.StatusCode != http.StatusOK || body["cached"] != false {
		t.Fatalf("distinct range: status %d cached %v", resp.StatusCode, body["cached"])
	}
}

func TestShardEndpointRejectsBadRange(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for _, rg := range [][2]int{{-1, 2}, {0, 9}, {3, 3}, {5, 2}} {
		req := shardSpec()
		req["lo"], req["hi"] = rg[0], rg[1]
		resp, body := postJSON(t, ts.URL+"/v1/shard", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("range [%d, %d) answered %d: %v", rg[0], rg[1], resp.StatusCode, body)
		}
	}
}

// TestShardStreamNDJSON: the shard stream delivers rows then a summary,
// and — unlike /v1/batch — a repeated streamed shard replays from the
// result cache with Cached set, which is what gives the fleet's
// consistent-hash placement its payoff.
func TestShardStreamNDJSON(t *testing.T) {
	_, ts := newTestService(t, Options{})
	req := shardSpec()
	req["lo"], req["hi"] = 0, 4
	buf, _ := json.Marshal(req)

	stream := func() (rows int, summary map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/shard?stream=ndjson", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatal(err)
			}
			switch {
			case m["digest"] != nil:
				if summary != nil {
					t.Fatal("two summary lines")
				}
				summary = m
			case m["error"] != nil:
				t.Fatalf("stream error: %v", m["error"])
			default:
				rows++
			}
		}
		if summary == nil {
			t.Fatal("stream ended without a summary line")
		}
		return rows, summary
	}

	rows, summary := stream()
	if rows != 4 || summary["cached"] != false {
		t.Fatalf("first stream: %d rows, cached %v", rows, summary["cached"])
	}
	if summary["schema"] != float64(api.SchemaVersion) {
		t.Fatalf("summary schema = %v", summary["schema"])
	}
	digest := summary["digest"]

	rows, summary = stream()
	if rows != 4 || summary["cached"] != true {
		t.Fatalf("cached stream: %d rows, cached %v", rows, summary["cached"])
	}
	if summary["digest"] != digest {
		t.Fatalf("cached digest %v != %v", summary["digest"], digest)
	}
}

// TestShardCacheAcrossPaths: the streamed and the plain /v1/shard paths
// share one compact cache entry. A streamed miss, a streamed hit and a
// plain hit of the same shard carry the same rows; the plain hit's body
// equals a fresh plain body (another worker's execution) apart from
// timing, aggregates included; streamed summaries carry no aggregates.
func TestShardCacheAcrossPaths(t *testing.T) {
	_, ts := newTestService(t, Options{})
	_, fresh := newTestService(t, Options{})
	req := shardSpec()
	req["lo"], req["hi"] = 0, 6
	buf, _ := json.Marshal(req)

	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", url, resp.StatusCode, err, raw)
		}
		return raw
	}
	// byIndex keys encoded rows by scenario index.
	byIndex := func(rows []json.RawMessage) map[float64]string {
		t.Helper()
		out := map[float64]string{}
		for _, r := range rows {
			var probe struct{ Index float64 }
			if err := json.Unmarshal(r, &probe); err != nil {
				t.Fatal(err)
			}
			out[probe.Index] = string(r)
		}
		return out
	}
	stream := func(wantCached bool) (map[float64]string, map[string]any) {
		t.Helper()
		lines := bytes.Split(bytes.TrimSpace(post(ts.URL+"/v1/shard?stream=ndjson")), []byte("\n"))
		var summary map[string]any
		if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
			t.Fatal(err)
		}
		if summary["cached"] != wantCached || summary["digest"] == nil {
			t.Fatalf("streamed summary (want cached=%v): %v", wantCached, summary)
		}
		for _, k := range []string{"aggregates", "results"} {
			if _, ok := summary[k]; ok {
				t.Errorf("streamed summary carries %q", k)
			}
		}
		var rows []json.RawMessage
		for _, l := range lines[:len(lines)-1] {
			rows = append(rows, l)
		}
		return byIndex(rows), summary
	}

	missRows, missSum := stream(false)
	hitRows, hitSum := stream(true)
	plain := post(ts.URL + "/v1/shard")
	var body struct {
		Results []json.RawMessage `json:"results"`
		Digest  string            `json:"digest"`
		Cached  bool              `json:"cached"`
	}
	if err := json.Unmarshal(plain, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Cached {
		t.Fatal("plain request after a streamed miss was not a cache hit")
	}
	plainRows := byIndex(body.Results)
	if len(missRows) != 6 || !reflect.DeepEqual(missRows, hitRows) || !reflect.DeepEqual(missRows, plainRows) {
		t.Fatalf("rows differ across paths:\nmiss  %v\nhit   %v\nplain %v", missRows, hitRows, plainRows)
	}
	if hitSum["digest"] != missSum["digest"] || body.Digest != missSum["digest"] {
		t.Fatalf("digests differ: miss %v, hit %v, plain %v", missSum["digest"], hitSum["digest"], body.Digest)
	}

	got, want := untimed(t, plain), untimed(t, post(fresh.URL+"/v1/shard"))
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("plain cache hit differs from a fresh body:\n%s\nvs\n%s", g, w)
	}
	if aggs, _ := got["aggregates"].(map[string]any); len(aggs) == 0 {
		t.Fatal("plain cache hit carries no aggregates")
	}
}

// untimed decodes a shard body and drops what differs between two
// executions of the same shard: the cached flag, wall times, allocation
// counters and the wall-time aggregates.
func untimed(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				switch {
				case k == "cached", k == "wallNS", k == "wallNs", k == "allocBytes", k == "mallocs",
					strings.HasSuffix(k, "/wallMS"):
					delete(v, k)
				default:
					strip(x)
				}
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(m)
	return m
}
