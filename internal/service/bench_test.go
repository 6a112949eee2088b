package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wcdsnet/internal/service/api"
)

// benchPost drives the handler directly (no TCP) so the benchmarks measure
// the service layers, not loopback networking.
func benchPost(b *testing.B, h http.Handler, path string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkServiceCacheHit measures the full request path when the result
// cache answers: decode, canonical key, LRU get, JSON encode. Compare with
// BenchmarkServiceCacheMiss for the cache's value.
func BenchmarkServiceCacheHit(b *testing.B) {
	svc := New(Options{})
	defer svc.Close()
	h := svc.Handler()
	body, _ := json.Marshal(map[string]any{"seed": 1, "n": 150, "avgDegree": 8})
	if code := benchPost(b, h, "/v1/backbone", body); code != http.StatusOK { // warm the cache
		b.Fatalf("warm-up status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(b, h, "/v1/backbone", body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
	b.StopTimer()
	hits, _, _ := svc.cache.Stats()
	if hits < int64(b.N) {
		b.Fatalf("only %d cache hits for %d requests", hits, b.N)
	}
}

// BenchmarkServiceCacheMiss measures the same request path when every
// request is a distinct scenario: full network generation plus Algorithm II.
func BenchmarkServiceCacheMiss(b *testing.B) {
	svc := New(Options{CacheSize: -1}) // disabled cache: every request computes
	defer svc.Close()
	h := svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(map[string]any{"seed": i, "n": 150, "avgDegree": 8})
		if code := benchPost(b, h, "/v1/backbone", body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkCacheGet isolates the LRU itself (lock + list bump + hash map).
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(1024)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = api.HashKey(fmt.Sprintf("key-%d", i))
		c.Put(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}
