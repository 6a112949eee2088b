package api

import (
	"strings"
	"testing"

	"wcdsnet/internal/simnet"
)

func TestSessionRequestFaultBearing(t *testing.T) {
	plain := SessionRequest{NetworkSpec: NetworkSpec{N: 30, AvgDegree: 8}}
	if plain.FaultBearing() {
		t.Error("plain request reported fault-bearing")
	}
	cases := []SessionRequest{
		{Faults: &simnet.FaultPlan{DropRate: 0.1}},
		{Reliable: true},
		{MaxRetries: 3},
		{MaxRounds: 100},
		{Engine: "async"},
	}
	for i, req := range cases {
		if !req.FaultBearing() {
			t.Errorf("case %d: repair field set but not fault-bearing", i)
		}
	}
}

func TestSessionRequestNormalizeFaults(t *testing.T) {
	// An empty plan is dropped so `"faults": {}` behaves like absence.
	req := SessionRequest{NetworkSpec: NetworkSpec{N: 30, AvgDegree: 8, Seed: 1},
		Faults: &simnet.FaultPlan{}}
	if err := req.Normalize(1000); err != nil {
		t.Fatal(err)
	}
	if req.Faults != nil {
		t.Error("empty fault plan survived Normalize")
	}
	// Plans are validated against the spec's node count.
	req = SessionRequest{NetworkSpec: NetworkSpec{N: 30, AvgDegree: 8, Seed: 1},
		Faults: &simnet.FaultPlan{Crashes: []simnet.CrashWindow{{Node: 40}}}}
	if err := req.Normalize(1000); err == nil {
		t.Error("out-of-range crash window passed Normalize")
	}
	req = SessionRequest{NetworkSpec: NetworkSpec{N: 30, AvgDegree: 8, Seed: 1}, MaxRetries: -1}
	if err := req.Normalize(1000); err == nil {
		t.Error("negative maxRetries passed Normalize")
	}
}

func TestSessionRequestEngineAlias(t *testing.T) {
	spec := NetworkSpec{N: 30, AvgDegree: 8, Seed: 1}
	cases := []struct {
		name       string
		engine     string
		wantEngine string
		wantRepair simnet.Engine
		wantErr    bool
	}{
		{"default", "", "", simnet.EngineSync, false},
		{"engine sync", "sync", "sync", simnet.EngineSync, false},
		{"engine event", "event", "event", simnet.EngineEvent, false},
		{"engine async", "async", "async", simnet.EngineAsync, false},
		{"case folded", "ASYNC", "async", simnet.EngineAsync, false},
		{"unknown", "turbo", "", simnet.EngineSync, true},
	}
	for _, c := range cases {
		req := SessionRequest{NetworkSpec: spec, Engine: c.engine}
		err := req.Normalize(1000)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: accepted engine=%q", c.name, c.engine)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if req.Engine != c.wantEngine {
			t.Errorf("%s: normalized to engine=%q, want %q", c.name, req.Engine, c.wantEngine)
		}
		if got := req.RepairEngine(); got != c.wantRepair {
			t.Errorf("%s: RepairEngine() = %v, want %v", c.name, got, c.wantRepair)
		}
	}

	// An engine request is fault-bearing on its own: it switches the session
	// to distributed repair even without a fault plan.
	req := SessionRequest{NetworkSpec: spec, Engine: "event"}
	if err := req.Normalize(1000); err != nil {
		t.Fatal(err)
	}
	if !req.FaultBearing() {
		t.Error("engine-only request not fault-bearing")
	}
	if !strings.Contains(req.Canonical(), "eng=event") {
		t.Errorf("canonical form omits the engine: %s", req.Canonical())
	}
}

func TestSessionCanonicalIncludesRepairConfig(t *testing.T) {
	a := SessionRequest{NetworkSpec: NetworkSpec{N: 30, AvgDegree: 8, Seed: 1}}
	b := a
	b.Faults = &simnet.FaultPlan{Seed: 9, DropRate: 0.3}
	b.Reliable = true
	ca, cb := a.Canonical(), b.Canonical()
	if ca == cb {
		t.Error("fault-bearing request canonicalizes identically to plain")
	}
	if !strings.Contains(cb, "dropRate") || !strings.Contains(cb, "rel=true") {
		t.Errorf("canonical form omits repair config: %s", cb)
	}
}
