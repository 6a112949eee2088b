package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"wcdsnet/internal/service/api"
)

// The schema-v4 acceptance path: a session created with a 30% drop fault
// plan plus the reliable layer streams a 12-epoch churn replay; every event
// must carry a repair report and no epoch may be violated.
func TestSessionFaultBearingStream(t *testing.T) {
	_, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{
		"seed": 31, "n": 50, "avgDegree": 8,
		"faults":   map[string]any{"seed": 31, "dropRate": 0.3},
		"reliable": true,
	})
	if created.Schema != api.SchemaVersion {
		t.Fatalf("schema = %d, want %d", created.Schema, api.SchemaVersion)
	}

	var deltas bytes.Buffer
	for e := 0; e < 12; e++ {
		node := 1 + e
		fmt.Fprintf(&deltas, "{\"op\":\"move\",\"node\":%d,\"x\":%g,\"y\":%g}\n",
			node, 0.3+0.05*float64(e), 0.4+0.03*float64(e))
	}
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
		"application/x-ndjson", &deltas)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.SessionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		events++
		if ev.Repair == nil {
			t.Fatalf("epoch %d event carries no repair field: %s", events, sc.Text())
		}
		if ev.Repair.Outcome == "violated" {
			t.Fatalf("epoch %d violated under the reliable layer: %s", events, sc.Text())
		}
		if ev.Repair.Mode == "" || ev.Repair.Outcome == "" {
			t.Fatalf("epoch %d repair report incomplete: %+v", events, ev.Repair)
		}
	}
	if events != 12 {
		t.Fatalf("streamed %d events, want 12", events)
	}
}

// Requests with malformed repair fields must be rejected up front.
func TestSessionFaultValidation(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for name, body := range map[string]map[string]any{
		"negative retries": {"seed": 1, "n": 30, "avgDegree": 8, "maxRetries": -1},
		"bad drop rate":    {"seed": 1, "n": 30, "avgDegree": 8, "faults": map[string]any{"dropRate": 1.5}},
		"crash out of range": {"seed": 1, "n": 30, "avgDegree": 8,
			"faults": map[string]any{"crashes": []map[string]any{{"node": 99, "from": 0}}}},
		// The schema-v4 async flag is gone; engine "async" is its spelling.
		"retired async flag": {"seed": 1, "n": 30, "avgDegree": 8, "async": true},
	} {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, raw)
		}
	}
}

// A plain session (no repair fields) still labels every epoch so consumers
// can rely on the field across schema v4 unconditionally.
func TestSessionPlainStreamCarriesRepairField(t *testing.T) {
	_, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{"seed": 33, "n": 40, "avgDegree": 8})
	var deltas bytes.Buffer
	fmt.Fprintln(&deltas, `{"op":"move","node":2,"x":0.5,"y":0.5}`)
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
		"application/x-ndjson", &deltas)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no event line")
	}
	var ev api.SessionEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Repair == nil || ev.Repair.Mode != "local" || ev.Repair.Outcome != "converged" {
		t.Fatalf("plain session repair field = %+v", ev.Repair)
	}
}
