package service

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// --- fault-bearing requests -------------------------------------------------

func TestBackboneReliableUnderLossMatchesReference(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 42, "n": 60, "avgDegree": 7, "algorithm": "II", "mode": "sync",
		"faults":   map[string]any{"seed": 5, "dropRate": 0.3},
		"reliable": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["converged"] != true {
		t.Fatalf("reliable run under 30%% loss did not converge: %v", body["failureReason"])
	}
	if body["isWCDS"] != true {
		t.Fatal("reliable lossy run returned a non-WCDS")
	}
	if n, _ := body["retransmits"].(float64); n == 0 {
		t.Error("lossy reliable run reported zero retransmissions")
	}

	// The dominator set must equal the lossless centralized reference.
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(42)), 60, 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := wcds.Algo2Centralized(nw.G, nw.ID)
	if got := toInts(t, body["dominators"]); !reflect.DeepEqual(got, want.Dominators) {
		t.Errorf("reliable lossy run diverged from reference:\n got %v\nwant %v", got, want.Dominators)
	}
}

func TestBackboneUnreliableUnderLossReportsFailure(t *testing.T) {
	_, ts := newTestService(t, Options{})
	// Without the reliable layer a 40% drop rate stalls the protocol; that
	// is data (200 + converged=false), not a server error.
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 7, "n": 60, "avgDegree": 8, "algorithm": "II", "mode": "sync",
		"faults": map[string]any{"seed": 3, "dropRate": 0.4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["converged"] != false {
		t.Skip("lucky run: every lost message was redundant")
	}
	reason, _ := body["failureReason"].(string)
	if reason == "" {
		t.Error("non-converged response carries no failureReason")
	}
	if _, ok := body["dominators"]; ok && body["dominators"] != nil {
		t.Error("non-converged response still carries dominators")
	}
}

func TestBackboneFaultRequestValidation(t *testing.T) {
	_, ts := newTestService(t, Options{})
	cases := []map[string]any{
		// Faults require a distributed mode.
		{"seed": 1, "n": 20, "avgDegree": 5,
			"faults": map[string]any{"dropRate": 0.1}},
		{"seed": 1, "n": 20, "avgDegree": 5, "mode": "centralized", "reliable": true},
		// Plan out of range for the spec's node count.
		{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync",
			"faults": map[string]any{"crashes": []map[string]any{{"node": 50}}}},
		// Rates outside [0, 1].
		{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync",
			"faults": map[string]any{"dropRate": 1.5}},
		{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync", "maxRetries": -1},
		{"seed": 1, "n": 20, "avgDegree": 5, "mode": "sync", "maxRounds": -5},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/backbone", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %v", i, resp.StatusCode, body)
		}
	}
}

func TestBackboneCacheDistinguishesFaultPlans(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := map[string]any{"seed": 3, "n": 30, "avgDegree": 6, "mode": "sync", "reliable": true}

	with := func(drop float64) map[string]any {
		req := map[string]any{}
		for k, v := range base {
			req[k] = v
		}
		if drop > 0 {
			req["faults"] = map[string]any{"seed": 1, "dropRate": drop}
		}
		return req
	}
	_, first := postJSON(t, ts.URL+"/v1/backbone", with(0))
	_, second := postJSON(t, ts.URL+"/v1/backbone", with(0.2))
	if second["cached"] == true {
		t.Error("different fault plan served from cache")
	}
	if firstMsgs, secondMsgs := first["messages"], second["messages"]; firstMsgs == secondMsgs {
		t.Logf("note: lossless and lossy runs coincidentally cost the same: %v", firstMsgs)
	}
	_, repeat := postJSON(t, ts.URL+"/v1/backbone", with(0.2))
	if repeat["cached"] != true {
		t.Error("identical fault plan not served from cache")
	}
}

func TestBackboneTightBudgetFailsDetectably(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 11, "n": 50, "avgDegree": 7, "mode": "sync", "reliable": true,
		"faults":    map[string]any{"seed": 2, "dropRate": 0.3},
		"maxRounds": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["converged"] != false {
		t.Error("3-round budget under loss should not converge")
	}
	reason, _ := body["failureReason"].(string)
	if !strings.Contains(reason, "round budget") {
		t.Errorf("failureReason = %q, want the round-budget error", reason)
	}
}

// --- panic recovery ---------------------------------------------------------

func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()

	_, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError lacks value/stack: %+v", pe.Value)
	}

	// The single worker must still be alive and serving.
	v, err := p.Submit(context.Background(), func(context.Context) (any, error) {
		return "alive", nil
	})
	if err != nil || v != "alive" {
		t.Fatalf("pool dead after panic: v=%v err=%v", v, err)
	}
}

func TestServicePanicAnswers500AndCountsMetric(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 1})

	// Drive a panicking job through the real pool path.
	_, err := svc.pool.Submit(context.Background(), func(context.Context) (any, error) {
		panic("handler-injected panic")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// Map it exactly as the HTTP layer does.
	rec := httptest.NewRecorder()
	svc.replySubmitError(rec, endpointBackbone, time.Now(), err)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panic mapped to %d, want 500", rec.Code)
	}

	// The service keeps answering normal requests afterwards.
	resp, body := postJSON(t, ts.URL+"/v1/backbone", map[string]any{
		"seed": 1, "n": 20, "avgDegree": 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service dead after panic: %d %v", resp.StatusCode, body)
	}

	// panics_total appears in /metrics with the recovered count.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(raw), "wcds_service_panics_total 1") {
		t.Errorf("/metrics missing wcds_service_panics_total 1:\n%s", raw)
	}
	if svc.panics.Value() != 1 {
		t.Errorf("panics counter = %d, want 1", svc.panics.Value())
	}
}

func TestRecoverMiddlewareCatchesHandlerPanic(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	h := svc.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("route exploded")
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("middleware answered %d, want 500", rec.Code)
	}
	if got := svc.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}
