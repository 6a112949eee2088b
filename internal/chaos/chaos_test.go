package chaos

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/service"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func TestRandomPlanIsValidAndReproducible(t *testing.T) {
	for _, n := range []int{1, 10, 60} {
		for _, intensity := range []float64{0, 0.3, 1, 2} {
			a := RandomPlan(rand.New(rand.NewSource(7)), n, intensity)
			if err := a.Validate(n); err != nil {
				t.Errorf("n=%d intensity=%v: invalid plan: %v", n, intensity, err)
			}
			b := RandomPlan(rand.New(rand.NewSource(7)), n, intensity)
			aj, bj := jsonPlan(t, a), jsonPlan(t, b)
			if aj != bj {
				t.Errorf("n=%d intensity=%v: plan not reproducible:\n%s\n%s", n, intensity, aj, bj)
			}
		}
	}
	empty := RandomPlan(rand.New(rand.NewSource(1)), 10, 0)
	if !(&simnet.FaultPlan{Seed: empty.Seed}).Empty() || empty.DropRate != 0 {
		t.Errorf("zero intensity produced faults: %+v", empty)
	}
}

func jsonPlan(t *testing.T, p simnet.FaultPlan) string {
	t.Helper()
	// FaultPlan is JSON-serializable by design; the encoding is the
	// harness's reproducibility token.
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSweepFindsNoViolations(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineAsync} {
		rep, err := Run(Config{
			Seeds:     seeds,
			BaseSeed:  100,
			N:         30,
			AvgDegree: 6,
			Intensity: 0.6,
			Engine:    eng,
		})
		if err != nil {
			t.Fatalf("engine=%v: %v", eng, err)
		}
		if rep.Failed() {
			for _, s := range rep.Scenarios {
				if s.Outcome == Violated {
					t.Errorf("engine=%v seed %d: VIOLATION: %s", eng, s.Seed, s.Detail)
				}
			}
		}
		if rep.Converged == 0 {
			t.Errorf("engine=%v: no scenario converged at intensity 0.6; harness too harsh: %s",
				eng, rep.Summary())
		}
		// Phase accounting must reconcile with the engine's own counters:
		// every sent message belongs to exactly one phase.
		wantMsgs := 0
		for _, s := range rep.Scenarios {
			wantMsgs += s.Stats.Messages
		}
		gotMsgs := obs.Total(rep.PhaseTotals, func(sp obs.Span) int { return sp.Messages })
		if gotMsgs != wantMsgs {
			t.Errorf("engine=%v: phase totals carry %d messages, stats %d", eng, gotMsgs, wantMsgs)
		}
		t.Logf("engine=%v: %s", eng, rep.Summary())
	}
}

func TestSweepZeroIntensityAllConverge(t *testing.T) {
	rep, err := Run(Config{Seeds: 4, BaseSeed: 7, N: 25, AvgDegree: 6, Intensity: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged != 4 || rep.Degraded != 0 || rep.Violations != 0 {
		t.Errorf("lossless sweep: %s", rep.Summary())
	}
	for _, s := range rep.Scenarios {
		if s.Stats.Retransmits != 0 {
			t.Errorf("seed %d: lossless scenario retransmitted %d frames", s.Seed, s.Stats.Retransmits)
		}
	}
}

// A configuration the job executor rejects fails the sweep up front: no
// scenario runs, so none can be counted as an honest Degraded outcome.
func TestSweepRejectsInvalidConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative retries": {Seeds: 2, N: 15, AvgDegree: 4, MaxRetries: -1},
		"unknown engine":   {Seeds: 2, N: 15, AvgDegree: 4, Engine: simnet.Engine(9)},
	} {
		rep, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: sweep ran: %s", name, rep.Summary())
		}
	}
}

// The harness itself must catch a corrupt runner — a converged run whose
// result diverges from the reference is a Violation, never silently
// accepted.
func TestHarnessCatchesCorruptRuns(t *testing.T) {
	corrupt := func(nw *udg.Network, plan simnet.FaultPlan, cfg Config) (wcds.Result, simnet.Stats, []obs.Span, error) {
		all := make([]int, nw.N())
		for i := range all {
			all[i] = i
		}
		// Claim every node is a dominator: a valid WCDS, but neither an
		// independent MIS nor the canonical reference.
		return wcds.Result{
			Dominators:    all,
			MISDominators: all,
			Spanner:       wcds.WeaklyInduced(nw.G, all),
		}, simnet.Stats{}, nil, nil
	}
	rep, err := RunWith(Config{Seeds: 2, N: 15, AvgDegree: 4}, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 2 {
		t.Errorf("corrupt runner produced %d violations, want 2: %s", rep.Violations, rep.Summary())
	}
}

func TestSweepThroughHTTPService(t *testing.T) {
	svc := service.New(service.Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	rep, err := RunWith(Config{
		Seeds:     seeds,
		BaseSeed:  300,
		N:         25,
		AvgDegree: 6,
		Intensity: 0.5,
	}, HTTPRunner(srv.URL, srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, s := range rep.Scenarios {
			if s.Outcome == Violated {
				t.Errorf("seed %d: VIOLATION over HTTP: %s", s.Seed, s.Detail)
			}
		}
	}
	if rep.Converged == 0 {
		t.Errorf("no scenario converged through the service: %s", rep.Summary())
	}
	// The breakdown must survive the round trip over the wire schema.
	if obs.Total(rep.PhaseTotals, func(sp obs.Span) int { return sp.Messages }) == 0 {
		t.Error("HTTP sweep carried no per-phase breakdown back from the service")
	}
	t.Logf("http: %s", rep.Summary())
}
