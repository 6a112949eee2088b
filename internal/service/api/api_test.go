package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"wcdsnet/internal/batch"
)

func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrInvalidInput, http.StatusBadRequest},
		{Errorf("bad field %d", 7), http.StatusBadRequest},
		{ErrUnreachable, http.StatusUnprocessableEntity},
		{ErrBudgetExceeded, http.StatusUnprocessableEntity},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	// Wrapping survives arbitrary depth.
	deep := Errorf("outer: %v", Errorf("inner"))
	if HTTPStatus(deep) != http.StatusBadRequest {
		t.Errorf("deeply wrapped validation error lost its status")
	}
}

func TestErrorfWrapsSentinel(t *testing.T) {
	err := Errorf("n=%d too big", 9)
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Errorf result is not ErrInvalidInput: %v", err)
	}
	if !strings.Contains(err.Error(), "n=9 too big") {
		t.Fatalf("message lost: %v", err)
	}
}

func TestNetworkSpecValidate(t *testing.T) {
	good := NetworkSpec{N: 50, AvgDegree: 6, Seed: 1}
	if err := good.Validate(100); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []NetworkSpec{
		{},
		{N: -1, AvgDegree: 6},
		{N: 500, AvgDegree: 6}, // over maxNodes
		{N: 10, AvgDegree: 6, Positions: [][2]float64{{0, 0}}}, // both forms
		{IDs: []int{1, 2}}, // ids without positions
	}
	for i, sp := range bad {
		err := sp.Validate(100)
		if err == nil {
			t.Errorf("case %d: accepted %+v", i, sp)
			continue
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("case %d: validation error does not wrap ErrInvalidInput: %v", i, err)
		}
	}
}

func TestCacheKeysDistinguishRequests(t *testing.T) {
	base := func() BackboneRequest {
		r := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6, Seed: 3}}
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := base()
	b := base()
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("identical requests hash differently")
	}
	c := base()
	c.Algorithm = "I"
	if c.CacheKey() == a.CacheKey() {
		t.Fatal("algorithm not part of the cache key")
	}
	d := base()
	d.Seed = 4
	if d.CacheKey() == a.CacheKey() {
		t.Fatal("seed not part of the cache key")
	}
}

func TestNormalizeEngine(t *testing.T) {
	cases := []struct {
		mode, engine         string
		wantMode, wantEngine string
		wantErr              bool
	}{
		// Defaults and cross-fill in both directions.
		{"", "", "centralized", "", false},
		{"centralized", "", "centralized", "", false},
		{"sync", "", "sync", "sync", false},
		{"async", "", "async", "async", false},
		{"event", "", "event", "event", false},
		{"", "sync", "sync", "sync", false},
		{"", "async", "async", "async", false},
		{"", "event", "event", "event", false},
		// Agreement and case-folding.
		{"event", "event", "event", "event", false},
		{"EVENT", "Event", "event", "event", false},
		// Contradictions.
		{"centralized", "event", "", "", true},
		{"sync", "event", "", "", true},
		{"async", "sync", "", "", true},
		// Unknown values.
		{"turbo", "", "", "", true},
		{"", "turbo", "", "", true},
	}
	// The same table runs through both wire surfaces that carry the pair:
	// one parser (simnet.NormalizeEngine) must give one decision, one
	// canonical pair and each surface's own error wrapping.
	for _, c := range cases {
		req := BackboneRequest{Mode: c.mode, Engine: c.engine}
		reqErr := req.Normalize()
		spec := batch.Spec{Sizes: []int{10}, Degrees: []float64{4}, Seeds: []int64{1},
			Workloads: []batch.Workload{{Mode: c.mode, Engine: c.engine}}}
		specErr := spec.Validate()
		if c.wantErr {
			if reqErr == nil || specErr == nil {
				t.Errorf("(%q, %q) accepted (backbone err %v, batch err %v), want error", c.mode, c.engine, reqErr, specErr)
				continue
			}
			if !errors.Is(reqErr, ErrInvalidInput) {
				t.Errorf("(%q, %q) backbone error does not wrap ErrInvalidInput: %v", c.mode, c.engine, reqErr)
			}
			if !strings.HasPrefix(specErr.Error(), "batch: workload 0: ") {
				t.Errorf("(%q, %q) batch error lost its workload prefix: %v", c.mode, c.engine, specErr)
			}
			continue
		}
		if reqErr != nil || specErr != nil {
			t.Errorf("(%q, %q): backbone err %v, batch err %v", c.mode, c.engine, reqErr, specErr)
			continue
		}
		w := spec.Workloads[0]
		if req.Mode != c.wantMode || req.Engine != c.wantEngine || w.Mode != c.wantMode || w.Engine != c.wantEngine {
			t.Errorf("(%q, %q) = backbone (%q, %q), batch (%q, %q), want (%q, %q)",
				c.mode, c.engine, req.Mode, req.Engine, w.Mode, w.Engine, c.wantMode, c.wantEngine)
		}
	}
}

func TestBackboneEngineRoundTrip(t *testing.T) {
	// engine alone implies the matching distributed mode, and the pair
	// round-trips through JSON in normalized form.
	req := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6, Seed: 3}, Engine: "Event"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Mode != "event" || req.Engine != "event" {
		t.Fatalf("normalized to mode=%q engine=%q, want event/event", req.Mode, req.Engine)
	}
	blob, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var back BackboneRequest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Normalize(); err != nil {
		t.Fatal(err)
	}
	if back.Mode != "event" || back.Engine != "event" {
		t.Fatalf("round-trip lost the engine: mode=%q engine=%q", back.Mode, back.Engine)
	}
	if back.CacheKey() != req.CacheKey() {
		t.Fatal("round-tripped request hashes differently")
	}

	// The engine distinguishes cache keys: identical networks on different
	// engines are different computations (stats differ even when the
	// backbone agrees).
	mk := func(engine string) string {
		r := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6, Seed: 3}, Engine: engine}
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r.CacheKey()
	}
	if mk("sync") == mk("event") || mk("async") == mk("event") {
		t.Fatal("engine not part of the backbone cache key")
	}

	// Mode "event" is the same request as engine "event".
	viaMode := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6, Seed: 3}, Mode: "event"}
	if err := viaMode.Normalize(); err != nil {
		t.Fatal(err)
	}
	if viaMode.CacheKey() != mk("event") {
		t.Fatal("mode=event and engine=event hash differently")
	}
}

func TestNormalizeCanonicalisesSpellings(t *testing.T) {
	a := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6}, Algorithm: "ii", Mode: "SYNC"}
	b := BackboneRequest{NetworkSpec: NetworkSpec{N: 40, AvgDegree: 6}, Algorithm: "2", Mode: "sync"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("equivalent spellings produce different cache keys")
	}
}

func TestBatchRequestNormalize(t *testing.T) {
	ok := BatchRequest{BatchSpec: BatchSpec{Sizes: []int{30}, Degrees: []float64{6}, Seeds: []int64{1, 2}}}
	if err := ok.Normalize(100, 50); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if k1, k2 := ok.CacheKey(), ok.CacheKey(); k1 != k2 {
		t.Fatal("batch cache key unstable")
	}
	// Workers must not affect the cache key.
	w := ok
	w.Workers = 7
	if w.CacheKey() != ok.CacheKey() {
		t.Fatal("workers leaked into the batch cache key")
	}

	tooBig := BatchRequest{BatchSpec: BatchSpec{Sizes: []int{3000}, Degrees: []float64{6}, Seeds: []int64{1}}}
	if err := tooBig.Normalize(100, 50); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("oversize node count not rejected as invalid input: %v", err)
	}
	tooMany := BatchRequest{BatchSpec: BatchSpec{Sizes: []int{10}, Degrees: []float64{6},
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}}
	if err := tooMany.Normalize(100, 5); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("oversize scenario count not rejected as invalid input: %v", err)
	}
	if err := tooMany.Normalize(100, 0); err != nil {
		t.Fatalf("unbounded scenario limit rejected valid sweep: %v", err)
	}
}
