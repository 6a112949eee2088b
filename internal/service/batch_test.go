package service

import (
	"net/http"
	"testing"
	"time"
)

func TestBatchEndpointRunsSweep(t *testing.T) {
	_, ts := newTestService(t, Options{})
	spec := map[string]any{
		"sizes":   []int{30, 40},
		"degrees": []float64{6},
		"seeds":   []int64{1, 2},
		"workloads": []map[string]any{
			{"kind": "backbone", "algorithm": "II"},
			{"kind": "broadcast", "source": 1},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["scenarios"] != float64(8) {
		t.Fatalf("scenarios = %v, want 8", body["scenarios"])
	}
	if body["failed"] != float64(0) {
		t.Fatalf("failed = %v: %v", body["failed"], body)
	}
	results, ok := body["results"].([]any)
	if !ok || len(results) != 8 {
		t.Fatalf("results missing or short: %v", body["results"])
	}
	digest, _ := body["digest"].(string)
	if len(digest) != 64 {
		t.Fatalf("digest %q is not a sha256 hex", digest)
	}
	if body["cached"] != false {
		t.Fatalf("first batch reported cached=true")
	}

	// Same sweep with a different worker count: served from cache (the
	// worker count is excluded from the key because it cannot change the
	// results), and the digest is unchanged.
	spec["workers"] = 3
	resp2, body2 := postJSON(t, ts.URL+"/v1/batch", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second batch status %d: %v", resp2.StatusCode, body2)
	}
	if body2["cached"] != true {
		t.Fatalf("repeat batch not served from cache")
	}
	if body2["digest"] != digest {
		t.Fatalf("digest changed across worker counts: %v vs %v", body2["digest"], digest)
	}
}

func TestBatchEndpointBounds(t *testing.T) {
	_, ts := newTestService(t, Options{MaxNodes: 100, MaxBatchScenarios: 4})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"sizes": []int{30}, "degrees": []float64{6}, "seeds": []int64{1, 2, 3, 4, 5},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize sweep answered %d: %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"sizes": []int{500}, "degrees": []float64{6}, "seeds": []int64{1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize nodes answered %d: %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"sizes": []int{30}, "degrees": []float64{6}, "seeds": []int64{1},
		"workloads": []map[string]any{{"kind": "teleport"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload kind answered %d: %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"sizes": []int{30}, "degrees": []float64{6}, "seeds": []int64{1},
		"workloads": []map[string]any{{"kind": "dilation", "engine": "sync"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("distributed dilation workload answered %d: %v", resp.StatusCode, body)
	}
}

func TestBatchEndpointDeadlineCancels(t *testing.T) {
	_, ts := newTestService(t, Options{RequestTimeout: 30 * time.Millisecond, MaxBatchScenarios: 0})
	seeds := make([]int64, 400)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"sizes": []int{200}, "degrees": []float64{8}, "seeds": seeds,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow sweep answered %d, want 504: %v", resp.StatusCode, body)
	}
}

// TestBatchInProcessKnobsHaveNoWireForm: the facade's zero-knowledge,
// delivery-budget and backoff knobs are executor arguments, not workload
// fields, so a /v1/batch body naming one is rejected as an unknown field.
func TestBatchInProcessKnobsHaveNoWireForm(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for field, value := range map[string]any{"zeroKnowledge": true, "maxDeliveries": 5, "backoff": 1} {
		resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
			"sizes": []int{30}, "degrees": []float64{6}, "seeds": []int64{1},
			"workloads": []map[string]any{{"mode": "sync", field: value}},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body %v", field, resp.StatusCode, body)
		}
		want := `invalid request body: json: unknown field "` + field + `": invalid input`
		if body["error"] != want {
			t.Errorf("%s: error %q, want %q", field, body["error"], want)
		}
	}
}
