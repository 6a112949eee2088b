package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
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

// postShard posts a shard request and reads its NDJSON answer: the row
// lines in arrival order and the decoded summary line.
func postShard(t *testing.T, url string, req map[string]any) (rows []json.RawMessage, summary map[string]any) {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/shard", "application/json", bytes.NewReader(buf))
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
		line := append(json.RawMessage(nil), sc.Bytes()...)
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
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
		case summary != nil:
			t.Fatal("row after the summary line")
		default:
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	return rows, summary
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
	rows, summary := postShard(t, ts.URL, req)
	if summary["scenarios"] != float64(3) || len(rows) != 3 {
		t.Fatalf("shard scenarios = %v with %d rows, want 3", summary["scenarios"], len(rows))
	}
	// The rows stream in completion order; compare them in index order.
	byIndex := map[float64]map[string]any{}
	for _, raw := range rows {
		var got map[string]any
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		byIndex[got["index"].(float64)] = got
	}
	for i := 2; i < 5; i++ {
		got, ok := byIndex[float64(i)]
		if !ok {
			t.Fatalf("shard rows lack index %d", i)
		}
		want := fullRows[i].(map[string]any)
		// Wall time is the only non-deterministic field.
		delete(got, "wallNS")
		delete(want, "wallNS")
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("shard row %d differs from batch row:\n%s\nvs\n%s", i, g, w)
		}
	}
	if summary["cached"] != false {
		t.Fatal("first shard reported cached=true")
	}

	// Repeat: cache hit. A different range is a distinct entry.
	if _, summary = postShard(t, ts.URL, req); summary["cached"] != true {
		t.Fatalf("repeat shard: cached %v", summary["cached"])
	}
	other := shardSpec()
	other["lo"], other["hi"] = 0, 2
	if _, summary = postShard(t, ts.URL, other); summary["cached"] != false {
		t.Fatalf("distinct range: cached %v", summary["cached"])
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
// and — unlike /v1/batch — a repeated shard replays from the result cache
// with Cached set, which is what gives the fleet's consistent-hash
// placement its payoff. The fleet's ?stream=ndjson query is accepted as
// well: a shard streams whether or not it is asked to.
func TestShardStreamNDJSON(t *testing.T) {
	_, ts := newTestService(t, Options{})
	req := shardSpec()
	req["lo"], req["hi"] = 0, 4

	rows, summary := postShard(t, ts.URL, req)
	if len(rows) != 4 || summary["cached"] != false {
		t.Fatalf("first stream: %d rows, cached %v", len(rows), summary["cached"])
	}
	if summary["schema"] != float64(api.SchemaVersion) {
		t.Fatalf("summary schema = %v", summary["schema"])
	}
	digest := summary["digest"]

	rows, summary = postShard(t, ts.URL, req)
	if len(rows) != 4 || summary["cached"] != true {
		t.Fatalf("cached stream: %d rows, cached %v", len(rows), summary["cached"])
	}
	if summary["digest"] != digest {
		t.Fatalf("cached digest %v != %v", summary["digest"], digest)
	}

	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/shard?stream=ndjson", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if resp.StatusCode != http.StatusOK || len(lines) != 5 {
		t.Fatalf("?stream=ndjson: status %d, %d lines: %s", resp.StatusCode, len(lines), raw)
	}
}

// TestShardCacheAcrossPaths: a streamed miss fills the compact cache entry
// and a streamed hit replays it. Both carry the same row bytes and the same
// digest, and neither summary line carries aggregates or results.
func TestShardCacheAcrossPaths(t *testing.T) {
	_, ts := newTestService(t, Options{})
	req := shardSpec()
	req["lo"], req["hi"] = 0, 6

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
		rows, summary := postShard(t, ts.URL, req)
		if summary["cached"] != wantCached {
			t.Fatalf("streamed summary (want cached=%v): %v", wantCached, summary)
		}
		for _, k := range []string{"aggregates", "results"} {
			if _, ok := summary[k]; ok {
				t.Errorf("streamed summary carries %q", k)
			}
		}
		return byIndex(rows), summary
	}

	missRows, missSum := stream(false)
	hitRows, hitSum := stream(true)
	if len(missRows) != 6 || !reflect.DeepEqual(missRows, hitRows) {
		t.Fatalf("rows differ between miss and hit:\nmiss %v\nhit  %v", missRows, hitRows)
	}
	if hitSum["digest"] != missSum["digest"] {
		t.Fatalf("digests differ: miss %v, hit %v", missSum["digest"], hitSum["digest"])
	}
}
