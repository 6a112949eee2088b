package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wcdsnet/internal/service/api"
)

func createSession(t *testing.T, base string, body map[string]any) api.SessionResponse {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(base+"/v1/session", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, raw)
	}
	var out api.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSessionCreateStreamDelete(t *testing.T) {
	_, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{"seed": 21, "n": 60, "avgDegree": 8})
	if created.Session == "" || created.Schema != api.SchemaVersion || created.BackboneSize == 0 {
		t.Fatalf("implausible create response: %+v", created)
	}

	// Stream three epochs: a single move line, a batched epoch array, and
	// a brand-new join; expect one event line per epoch, in order.
	var deltas bytes.Buffer
	fmt.Fprintln(&deltas, `{"op":"move","node":3,"x":0.5,"y":0.5}`)
	fmt.Fprintln(&deltas, `[{"op":"move","node":4,"x":1.1,"y":0.9},{"op":"leave","node":9}]`)
	fmt.Fprintln(&deltas, `{"op":"join","x":0.6,"y":0.6}`)
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
		"application/x-ndjson", &deltas)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []api.SessionEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.SessionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Session != created.Session {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
	if events[1].Deltas != 2 {
		t.Fatalf("batched epoch reported %d deltas", events[1].Deltas)
	}
	if len(events[2].Joined) != 1 {
		t.Fatalf("join epoch reported no joined index: %+v", events[2])
	}

	// Delete closes it; a second delete 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.Session, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	del2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", del2.StatusCode)
	}
}

func TestSessionStreamBadDeltaContinues(t *testing.T) {
	_, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{"seed": 22, "n": 40, "avgDegree": 8})
	var deltas bytes.Buffer
	fmt.Fprintln(&deltas, `{"op":"move","node":999,"x":0,"y":0}`) // out of range
	fmt.Fprintln(&deltas, `{"op":"move","node":1,"x":0.2,"y":0.2}`)
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
		"application/x-ndjson", &deltas)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want error + event: %v", len(lines), lines)
	}
	if lines[0]["error"] == nil || lines[0]["fatal"] == true {
		t.Fatalf("first line should be a non-fatal error: %v", lines[0])
	}
	if lines[1]["seq"] != float64(1) {
		t.Fatalf("good epoch after bad delta did not apply: %v", lines[1])
	}
}

// A line that does not decode ends the stream: epochs queued before it
// still apply, and the final line is a fatal error carrying the actual
// parse failure (not a smuggled "empty epoch" with fatal:false). A line with
// an unknown field does not decode either, whether it is one delta or an
// array epoch: the misspelt "nod" would otherwise join a brand-new node
// instead of rejoining node 5.
func TestSessionStreamParseErrorFatal(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for _, bad := range []string{
		`{"op":"move","node":`, // truncated JSON
		`{"op":"join","nod":5,"x":1,"y":1}`,
		`[{"op":"move","node":2,"x":0.3,"y":0.3},{"op":"leave","node":3,"why":"typo"}]`,
	} {
		created := createSession(t, ts.URL, map[string]any{"seed": 24, "n": 40, "avgDegree": 8})
		var deltas bytes.Buffer
		fmt.Fprintln(&deltas, `{"op":"move","node":1,"x":0.2,"y":0.2}`)
		fmt.Fprintln(&deltas, bad)
		resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
			"application/x-ndjson", &deltas)
		if err != nil {
			t.Fatal(err)
		}
		var lines []map[string]any
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, m)
		}
		resp.Body.Close()
		if len(lines) != 2 {
			t.Fatalf("%s: got %d lines, want event + fatal error: %v", bad, len(lines), lines)
		}
		if lines[0]["seq"] != float64(1) {
			t.Fatalf("%s: epoch before the bad line did not apply: %v", bad, lines[0])
		}
		msg, _ := lines[1]["error"].(string)
		if msg == "" || lines[1]["fatal"] != true {
			t.Fatalf("%s: last line should be a fatal error: %v", bad, lines[1])
		}
		if !strings.Contains(msg, "unparseable") {
			t.Fatalf("%s: fatal line does not carry the parse error: %q", bad, msg)
		}
	}
}

// Client-supplied op strings must not mint metric label values: unknown
// ops collapse to kind="invalid" instead of growing the counter family
// unboundedly.
func TestSessionDeltaMetricBoundsCardinality(t *testing.T) {
	_, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{"seed": 25, "n": 40, "avgDegree": 8})
	body := strings.NewReader(`{"op":"hijacklabel","node":1}` + "\n" +
		`{"op":"move","node":1,"x":0.1,"y":0.1}` + "\n")
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream",
		"application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(text), `wcds_service_session_deltas_total{kind="invalid"} 1`) {
		t.Fatalf("unknown op not counted as invalid:\n%s", text)
	}
	if strings.Contains(string(text), "hijacklabel") {
		t.Fatalf("client-chosen op leaked into a metric label:\n%s", text)
	}
}

func TestSessionCreateRejectsDisconnectedAndUnknownStream(t *testing.T) {
	_, ts := newTestService(t, Options{})
	buf, _ := json.Marshal(map[string]any{
		"positions": [][2]float64{{0, 0}, {5, 5}}, "radius": 1,
	})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("disconnected create: status %d, want 422", resp.StatusCode)
	}
	sr, err := http.Post(ts.URL+"/v1/session/nope/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session stream: status %d, want 404", sr.StatusCode)
	}
}

// Epochs relink nodes with the unit-disk rule, so a session only takes a
// scene whose graph already follows it: quasi-unit-disk links are a 400,
// while the quasi kind with p=1 is a unit-disk graph at rmax and opens.
func TestSessionCreateRequiresUnitDiskScene(t *testing.T) {
	_, ts := newTestService(t, Options{})
	buf, _ := json.Marshal(map[string]any{"seed": 3, "n": 60, "avgDegree": 10,
		"topology": map[string]any{"kind": "quasi"}})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "unit-disk") {
		t.Fatalf("quasi create: status %d (%s), want 400 naming the unit-disk requirement", resp.StatusCode, raw)
	}
	createSession(t, ts.URL, map[string]any{"seed": 3, "n": 60, "avgDegree": 10,
		"topology": map[string]any{"kind": "quasi", "params": map[string]float64{"p": 1}}})
}

func TestSessionMetricsExposed(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	created := createSession(t, ts.URL, map[string]any{"seed": 23, "n": 40, "avgDegree": 8})
	body := strings.NewReader(`{"op":"move","node":2,"x":0.3,"y":0.3}` + "\n")
	resp, err := http.Post(ts.URL+"/v1/session/"+created.Session+"/stream", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"wcds_service_sessions_active 1",
		`wcds_service_session_deltas_total{kind="move"} 1`,
		"wcds_service_sessions_opened_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if svc.sessions.Active() != 1 {
		t.Fatalf("active sessions = %d", svc.sessions.Active())
	}
}

func TestBatchStreamNDJSON(t *testing.T) {
	_, ts := newTestService(t, Options{})
	buf, _ := json.Marshal(map[string]any{
		"sizes": []int{30}, "degrees": []float64{8}, "seeds": []int64{1, 2, 3},
		"workloads": []map[string]any{{"kind": "backbone", "algorithm": "II"}},
	})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(buf))
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
	var rows, summaries int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		switch {
		case m["digest"] != nil:
			summaries++
			if m["results"] != nil {
				t.Fatalf("summary line still carries per-row results: %v", m)
			}
			if m["schema"] != float64(api.SchemaVersion) {
				t.Fatalf("summary schema = %v", m["schema"])
			}
		case m["error"] != nil:
			t.Fatalf("stream error: %v", m["error"])
		default:
			rows++
		}
	}
	if rows != 3 || summaries != 1 {
		t.Fatalf("rows = %d, summaries = %d; want 3 rows then 1 summary", rows, summaries)
	}
}

// A deadline that fires mid-sweep must not let the pool worker race the
// handler on the ResponseWriter (the worker used to write rows directly
// while Submit could return early; now rows cross a channel and only the
// handler writes). The race detector is the real assertion — the stream
// just has to terminate sanely: the sweep beat the deadline (summary
// line), the deadline won mid-stream (final fatal error line), or it won
// before any row (504/503).
func TestBatchStreamDeadlineMidSweep(t *testing.T) {
	_, ts := newTestService(t, Options{RequestTimeout: 30 * time.Millisecond})
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	buf, _ := json.Marshal(map[string]any{
		"sizes": []int{300}, "degrees": []float64{10}, "seeds": seeds,
		"workloads": []map[string]any{{"kind": "backbone", "algorithm": "II", "mode": "sync"}},
	})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return
	}
	var last map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		last = m
	}
	if last == nil {
		t.Fatal("empty stream body")
	}
	if last["digest"] == nil && (last["error"] == nil || last["fatal"] != true) {
		t.Fatalf("stream ended without summary or fatal error: %v", last)
	}
}

func TestCancelInFlightFastDrain(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 1, RequestTimeout: time.Minute})
	// An open session must be torn down by the drain (created first, while
	// the single worker is still free).
	created := createSession(t, ts.URL, map[string]any{"seed": 30, "n": 30, "avgDegree": 6})
	if svc.sessions.Active() != 1 {
		t.Fatalf("active sessions = %d", svc.sessions.Active())
	}
	// A request that cannot finish on its own within the test budget.
	body, _ := json.Marshal(nonConvergingBackbone())
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/backbone", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the backbone request reach the worker

	start := time.Now()
	svc.CancelInFlight()
	select {
	case status := <-done:
		if status == http.StatusOK {
			t.Fatal("non-converging request completed successfully?")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast drain did not interrupt the in-flight request")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v; want immediate cancellation", elapsed)
	}
	if svc.sessions.Active() != 0 {
		t.Fatalf("open sessions survived fast drain: %d", svc.sessions.Active())
	}
	_ = created
}
