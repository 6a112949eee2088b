package wcds

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// phasePinCase is one observed run of the phase-breakdown pins.
type phasePinCase struct {
	name string
	spec RunSpec
	run  func(nw *udg.Network, r Runner) error
}

func phasePinCases() []phasePinCase {
	algo1 := func(nw *udg.Network, r Runner) error { _, _, err := Algo1Distributed(nw.G, nw.ID, r); return err }
	algo2 := func(nw *udg.Network, r Runner) error {
		_, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, r)
		return err
	}
	zk := func(nw *udg.Network, r Runner) error {
		_, _, err := Algo2ZeroKnowledge(nw.G, nw.ID, Deferred, r)
		return err
	}
	lossy := func(eng simnet.Engine) RunSpec {
		return RunSpec{Engine: eng, Faults: &simnet.FaultPlan{Seed: 11, DropRate: 0.15}, Reliable: true, MaxRounds: 4000}
	}
	return []phasePinCase{
		{"algo1/sync", RunSpec{Engine: simnet.EngineSync}, algo1},
		{"algo1/event", RunSpec{Engine: simnet.EngineEvent}, algo1},
		{"algo1/async", RunSpec{Engine: simnet.EngineAsync, ScheduleSeed: 7}, algo1},
		{"algo2/sync", RunSpec{Engine: simnet.EngineSync}, algo2},
		{"algo2/event", RunSpec{Engine: simnet.EngineEvent}, algo2},
		{"algo2/async", RunSpec{Engine: simnet.EngineAsync, ScheduleSeed: 7}, algo2},
		{"algo2/sync+lossy", lossy(simnet.EngineSync), algo2},
		{"algo2/event+lossy", lossy(simnet.EngineEvent), algo2},
		{"algo2-zk/sync", RunSpec{Engine: simnet.EngineSync}, zk},
	}
}

func phasePinScene(t *testing.T) *udg.Network {
	t.Helper()
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(42)), 200, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestPhaseBreakdownPinned pins every run's phase breakdown as a recorder
// sees it: the phase names in first-seen order and obs.CanonicalSpans (all
// counters and round extents). The constants were recorded when every
// engine event went to the recorder one by one; accounting a run in a
// ledger and handing it over at run end must not move any of them.
func TestPhaseBreakdownPinned(t *testing.T) {
	want := map[string][2]string{
		"algo1/sync": {"election,levels,mis",
			"election:m=4990,d=14370,r=24,rtx=0;levels:m=399,d=2095,r=24,rtx=0;mis:m=200,d=1896,r=17,rtx=0"},
		"algo1/event": {"election,levels,mis",
			"election:m=5224,d=14529,r=24,rtx=0;levels:m=399,d=2095,r=23,rtx=0;mis:m=200,d=1896,r=16,rtx=0"},
		"algo1/async": {"election,levels,mis",
			"election:m=4539,d=13875,r=61,rtx=0;levels:m=399,d=2095,r=59,rtx=0;mis:m=200,d=1896,r=27,rtx=0"},
		"algo2/sync": {"mis,recruit",
			"mis:m=200,d=1896,r=5,rtx=0;recruit:m=474,d=3857,r=9,rtx=0"},
		"algo2/event": {"mis,recruit",
			"mis:m=200,d=1896,r=5,rtx=0;recruit:m=474,d=3857,r=8,rtx=0"},
		"algo2/async": {"mis,recruit",
			"mis:m=200,d=1896,r=14,rtx=0;recruit:m=474,d=3857,r=24,rtx=0"},
		"algo2/sync+lossy": {"mis,reliable,recruit",
			"mis:m=565,d=4649,r=141,rtx=365;recruit:m=1151,d=9063,r=146,rtx=677;reliable:m=13712,d=11629,r=148,rtx=0"},
		"algo2/event+lossy": {"mis,reliable,recruit",
			"mis:m=554,d=4630,r=71,rtx=354;recruit:m=1163,d=9075,r=70,rtx=689;reliable:m=13705,d=11606,r=72,rtx=0"},
		"algo2-zk/sync": {"discovery,mis,recruit",
			"discovery:m=200,d=1896,r=1,rtx=0;mis:m=200,d=1896,r=6,rtx=0;recruit:m=474,d=3857,r=9,rtx=0"},
	}

	nw := phasePinScene(t)
	for _, c := range phasePinCases() {
		rec := obs.NewSpans()
		c.spec.Phases = rec
		if err := c.run(nw, c.spec.Runner()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spans := rec.Snapshot()
		names := make([]string, len(spans))
		for i, sp := range spans {
			names[i] = sp.Name
		}
		got := [2]string{strings.Join(names, ","), obs.CanonicalSpans(spans)}
		if got != want[c.name] {
			t.Errorf("%s:\n got  %q\n want %q", c.name, got, want[c.name])
		}
	}
}

// eventCounter is a Recorder that is not *obs.Spans: it counts Event calls
// per (phase, kind) and the Add calls it receives.
type eventCounter struct {
	mu     sync.Mutex
	events map[string]int
	adds   int
}

func (r *eventCounter) Event(phase string, kind obs.Kind, _ int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		r.events = map[string]int{}
	}
	r.events[fmt.Sprintf("%s/%d", phase, kind)]++
}

func (r *eventCounter) Add(obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adds++
}

func (r *eventCounter) String() string {
	keys := make([]string, 0, len(r.events))
	for k := range r.events {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d", k, r.events[k])
	}
	return b.String()
}

// A recorder of another type keeps receiving one Event per send, delivery
// and retransmission, with the counts the per-event recorder always saw,
// and never an Add from the engine.
func TestForeignRecorderGetsEvents(t *testing.T) {
	want := map[string]string{
		"algo2/sync": "mis/1=200;mis/2=1896;recruit/1=474;recruit/2=3857",
		"algo2/sync+lossy": "mis/1=565;mis/2=4649;mis/3=365;recruit/1=1151;recruit/2=9063;recruit/3=677;" +
			"reliable/1=13712;reliable/2=11629",
		"algo2/event+lossy": "mis/1=554;mis/2=4630;mis/3=354;recruit/1=1163;recruit/2=9075;recruit/3=689;" +
			"reliable/1=13705;reliable/2=11606",
	}

	nw := phasePinScene(t)
	for _, c := range phasePinCases() {
		if _, ok := want[c.name]; !ok {
			continue
		}
		rec := &eventCounter{}
		c.spec.Phases = rec
		if err := c.run(nw, c.spec.Runner()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := rec.String(); got != want[c.name] {
			t.Errorf("%s events:\n got  %q\n want %q", c.name, got, want[c.name])
		}
		if rec.adds != 0 {
			t.Errorf("%s: foreign recorder got %d Add calls, want 0", c.name, rec.adds)
		}
	}
}
