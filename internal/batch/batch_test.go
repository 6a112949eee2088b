package batch

import (
	"context"
	"strings"
	"testing"
	"time"

	"wcdsnet/internal/simnet"
)

func testSpec() *Spec {
	return &Spec{
		Sizes:   []int{30, 50},
		Degrees: []float64{6},
		Seeds:   []int64{1, 2},
		Workloads: []Workload{
			{Kind: Backbone, Algorithm: "II"},
			{Kind: Backbone, Algorithm: "I", Mode: "sync"},
			{Kind: Dilation, Pairs: 40, SampleSeed: 7},
			{Kind: Broadcast, Source: 3},
		},
	}
}

func TestExpandDeterministicOrder(t *testing.T) {
	spec := testSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != spec.NumScenarios() {
		t.Fatalf("expanded %d scenarios, want %d", len(scens), spec.NumScenarios())
	}
	for i, sc := range scens {
		if sc.Index != i {
			t.Fatalf("scenario %d carries index %d", i, sc.Index)
		}
		wantNet := i / len(spec.Workloads)
		if sc.Net != wantNet {
			t.Fatalf("scenario %d: net %d, want %d", i, sc.Net, wantNet)
		}
	}
	// First block is (30, 6, seed 1) across all four workloads.
	if scens[0].Size != 30 || scens[0].Seed != 1 || scens[0].Workload != 0 {
		t.Fatalf("unexpected first scenario %+v", scens[0])
	}
	if scens[len(scens)-1].Size != 50 || scens[len(scens)-1].Seed != 2 {
		t.Fatalf("unexpected last scenario %+v", scens[len(scens)-1])
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Spec{
		{Degrees: []float64{6}, Seeds: []int64{1}},
		{Sizes: []int{10}, Seeds: []int64{1}},
		{Sizes: []int{10}, Degrees: []float64{6}},
		{Sizes: []int{-5}, Degrees: []float64{6}, Seeds: []int64{1}},
		{Sizes: []int{10}, Degrees: []float64{0}, Seeds: []int64{1}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Algorithm: "III"}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Mode: "quantum"}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Kind: Broadcast, Source: 10}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Reliable: true}}}, // centralized + reliable
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Kind: Dilation, Reliable: true}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Algorithm: "I", Mode: "sync", Selection: "eager"}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Kind: Dilation, Engine: "sync"}}},
		{Sizes: []int{10}, Degrees: []float64{6}, Seeds: []int64{1},
			Workloads: []Workload{{Kind: Broadcast, Mode: "event"}}},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, spec)
		}
	}
}

func TestWorkloadEngineNormalize(t *testing.T) {
	norm := func(w Workload) (Workload, error) {
		err := w.normalize(0)
		return w, err
	}
	// Engine alone implies the matching distributed mode and vice versa.
	for _, eng := range []string{"sync", "async", "event"} {
		w, err := norm(Workload{Engine: eng})
		if err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		if w.Mode != eng || w.Engine != eng {
			t.Errorf("engine %q normalized to mode=%q engine=%q", eng, w.Mode, w.Engine)
		}
		w, err = norm(Workload{Mode: eng})
		if err != nil {
			t.Fatalf("mode %q: %v", eng, err)
		}
		if w.Mode != eng || w.Engine != eng {
			t.Errorf("mode %q normalized to mode=%q engine=%q", eng, w.Mode, w.Engine)
		}
	}
	// Centralized keeps an empty engine; contradictions are rejected.
	w, err := norm(Workload{})
	if err != nil || w.Mode != "centralized" || w.Engine != "" {
		t.Errorf("default workload normalized to mode=%q engine=%q (err %v)", w.Mode, w.Engine, err)
	}
	for _, bad := range []Workload{
		{Mode: "centralized", Engine: "event"},
		{Mode: "sync", Engine: "event"},
		{Engine: "turbo"},
	} {
		if _, err := norm(bad); err == nil {
			t.Errorf("accepted contradictory workload %+v", bad)
		}
	}
	// The event engine's label matches the mode spelling, so sweeps name it.
	w, _ = norm(Workload{Engine: "EVENT"})
	if got := w.label(); got != "backbone-II-event" {
		t.Errorf("event workload label %q", got)
	}
}

// TestExecOptionsCheck: the executor's in-process knobs need a distributed
// backbone run, a delivery budget must not be negative, and Normalize
// rejects eager selection without a distributed mode.
func TestExecOptionsCheck(t *testing.T) {
	backoff := func(int) int { return 1 }
	cases := []struct {
		name string
		w    Workload
		x    ExecOptions
		want string // substring of the error, "" for acceptance
	}{
		{"zero knowledge, sync", Workload{Engine: "sync"}, ExecOptions{ZeroKnowledge: true}, ""},
		{"max deliveries, event", Workload{Engine: "event"}, ExecOptions{MaxDeliveries: 100}, ""},
		{"backoff, reliable async", Workload{Engine: "async", Reliable: true}, ExecOptions{Backoff: backoff}, ""},
		{"phases, centralized", Workload{}, ExecOptions{Phases: true, MeasureWorkers: 2}, ""},
		{"zero knowledge, centralized", Workload{}, ExecOptions{ZeroKnowledge: true}, "require a distributed backbone run"},
		{"max deliveries, centralized", Workload{Mode: "centralized"}, ExecOptions{MaxDeliveries: 100}, "require a distributed backbone run"},
		{"backoff, centralized", Workload{}, ExecOptions{Backoff: backoff}, "require a distributed backbone run"},
		{"zero knowledge, dilation", Workload{Kind: Dilation}, ExecOptions{ZeroKnowledge: true}, "require a distributed backbone run"},
		{"negative max deliveries", Workload{Engine: "sync"}, ExecOptions{MaxDeliveries: -1}, "negative budget"},
		{"eager, centralized", Workload{Algorithm: "I", Selection: "eager"}, ExecOptions{}, "requires a distributed mode"},
		{"eager, sync", Workload{Engine: "sync", Selection: "eager"}, ExecOptions{}, ""},
		{"eager, algorithm I", Workload{Algorithm: "I", Engine: "sync", Selection: "eager"}, ExecOptions{}, "algorithm II only"},
		{"engine, dilation", Workload{Kind: Dilation, Engine: "sync"}, ExecOptions{}, "backbone workloads only"},
		{"mode, broadcast", Workload{Kind: Broadcast, Mode: "async"}, ExecOptions{}, "backbone workloads only"},
	}
	for _, tc := range cases {
		err := tc.w.Normalize()
		if err == nil {
			err = tc.x.Check(&tc.w)
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRunEventWorkloadMatchesSync: through the batch engine, an event-engine
// Deferred backbone workload reports the same backbone as the sync workload
// on every cell (schedule-independent), and its digest is stable.
func TestRunEventWorkloadMatchesSync(t *testing.T) {
	spec := func() *Spec {
		return &Spec{
			Sizes:   []int{30, 50},
			Degrees: []float64{6},
			Seeds:   []int64{1, 2},
			Workloads: []Workload{
				{Kind: Backbone, Algorithm: "II", Mode: "sync"},
				{Kind: Backbone, Algorithm: "II", Engine: "event"},
				{Kind: Backbone, Algorithm: "II", Engine: "event",
					Faults: &simnet.FaultPlan{Seed: 4, DropRate: 0.2}, Reliable: true, MaxRounds: 4000},
			},
		}
	}
	ctx := context.Background()
	rep, err := Run(ctx, spec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d scenarios failed", rep.Failed)
	}
	for i := 0; i < len(rep.Results); i += 3 {
		sync, event, lossy := rep.Results[i], rep.Results[i+1], rep.Results[i+2]
		if sync.Backbone != event.Backbone || sync.MIS != event.MIS {
			t.Errorf("cell %d: event backbone %d/%d != sync %d/%d",
				i/3, event.Backbone, event.MIS, sync.Backbone, sync.MIS)
		}
		if lossy.Backbone != sync.Backbone {
			t.Errorf("cell %d: reliable lossy event backbone %d != sync %d",
				i/3, lossy.Backbone, sync.Backbone)
		}
		if lossy.Retransmits == 0 {
			t.Errorf("cell %d: lossy run reports no retransmissions", i/3)
		}
	}
	again, err := Run(ctx, spec(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest() != again.Digest() {
		t.Errorf("event workload digest unstable:\n%s", firstDiff(rep.Canonical(), again.Canonical()))
	}
}

// TestRunWorkerCountsIdentical is the engine's core contract: the
// 1-worker and N-worker runs produce byte-identical per-scenario results
// (canonical form, wall time excluded) in index order.
func TestRunWorkerCountsIdentical(t *testing.T) {
	ctx := context.Background()
	one, err := Run(ctx, testSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Run(1): %v", err)
	}
	many, err := Run(ctx, testSpec(), Options{Workers: 8})
	if err != nil {
		t.Fatalf("Run(8): %v", err)
	}

	if one.Failed != 0 || many.Failed != 0 {
		t.Fatalf("failures: one=%d many=%d", one.Failed, many.Failed)
	}
	if o, m := one.Digest(), many.Digest(); o != m {
		t.Errorf("1-worker and 8-worker digests differ:\n%s",
			firstDiff(one.Canonical(), many.Canonical()))
	}
	if many.Workers != 8 {
		t.Errorf("report claims %d workers, want 8", many.Workers)
	}
	if spec := testSpec(); many.Scenarios != spec.NumScenarios() || many.Networks != spec.NumNetworks() {
		t.Errorf("report covers %d scenarios over %d networks, want %d over %d",
			many.Scenarios, many.Networks, spec.NumScenarios(), spec.NumNetworks())
	}
	for i, res := range many.Results {
		if res.Index != i {
			t.Fatalf("result %d out of order (index %d)", i, res.Index)
		}
	}
}

// TestRunRangeMergesToFullDigest is the shard contract the fleet
// coordinator builds on: executing disjoint [lo, hi) ranges independently
// and concatenating their rows in index order reproduces the full run's
// digest byte for byte, at any shard width.
func TestRunRangeMergesToFullDigest(t *testing.T) {
	ctx := context.Background()
	full, err := Run(ctx, testSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 3, 5, full.Scenarios} {
		merged := &Report{
			Scenarios: full.Scenarios,
			Networks:  full.Networks,
			Workers:   1,
		}
		for lo := 0; lo < full.Scenarios; lo += width {
			hi := min(lo+width, full.Scenarios)
			shard, err := RunRange(ctx, testSpec(), lo, hi, Options{Workers: 2})
			if err != nil {
				t.Fatalf("RunRange(%d, %d): %v", lo, hi, err)
			}
			if shard.Scenarios != hi-lo || len(shard.Results) != hi-lo {
				t.Fatalf("shard [%d, %d) carries %d/%d rows", lo, hi, shard.Scenarios, len(shard.Results))
			}
			for i, res := range shard.Results {
				if res.Index != lo+i {
					t.Fatalf("shard [%d, %d) row %d carries global index %d", lo, hi, i, res.Index)
				}
			}
			merged.Results = append(merged.Results, shard.Results...)
		}
		merged.Finalize()
		if merged.Digest() != full.Digest() {
			t.Errorf("width %d: merged digest differs:\n%s",
				width, firstDiff(full.Canonical(), merged.Canonical()))
		}
		if merged.Failed != full.Failed {
			t.Errorf("width %d: merged Failed %d != %d", width, merged.Failed, full.Failed)
		}
	}
}

func TestRunRangeRejectsBadRange(t *testing.T) {
	ctx := context.Background()
	n := testSpec().NumScenarios()
	for _, rg := range [][2]int{{-1, 2}, {0, n + 1}, {3, 3}, {5, 2}} {
		if _, err := RunRange(ctx, testSpec(), rg[0], rg[1], Options{}); err == nil {
			t.Errorf("RunRange accepted range [%d, %d) of %d", rg[0], rg[1], n)
		}
	}
}

// TestMeasureWorkersDigestStable extends the determinism contract to the
// dilation measurement parallelism: the sweep digest must be identical for
// every MeasureWorkers value, for every shard count.
func TestMeasureWorkersDigestStable(t *testing.T) {
	ctx := context.Background()
	base, err := Run(ctx, testSpec(), Options{Workers: 1, MeasureWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 1, MeasureWorkers: 4},
		{Workers: 4, MeasureWorkers: 7},
		{Workers: 4}, // default MeasureWorkers (1)
	} {
		rep, err := Run(ctx, testSpec(), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if rep.Digest() != base.Digest() {
			t.Errorf("digest differs for %+v:\n%s", opts, firstDiff(base.Canonical(), rep.Canonical()))
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "length mismatch"
}

func TestRunResultsSane(t *testing.T) {
	rep, err := Run(context.Background(), testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		switch {
		case strings.HasPrefix(res.Workload, "backbone"):
			if res.Backbone == 0 || !res.Valid || !res.Converged {
				t.Errorf("scenario %d (%s): bad backbone row %+v", res.Index, res.Workload, res)
			}
			if res.Ratio <= 0 || res.Ratio > 1 {
				t.Errorf("scenario %d: ratio %v out of (0,1]", res.Index, res.Ratio)
			}
		case strings.HasPrefix(res.Workload, "dilation"):
			if res.Pairs == 0 || res.AvgTopo < 1 {
				t.Errorf("scenario %d: bad dilation row %+v", res.Index, res)
			}
		case strings.HasPrefix(res.Workload, "broadcast"):
			if !res.Covered || res.FloodTx == 0 {
				t.Errorf("scenario %d: bad broadcast row %+v", res.Index, res)
			}
		}
		if res.WallNS <= 0 {
			t.Errorf("scenario %d: wallNS %d", res.Index, res.WallNS)
		}
	}
	if len(rep.Aggregates) == 0 {
		t.Fatal("no aggregates")
	}
	if agg, ok := rep.Aggregates["backbone-II-centralized/ratio"]; !ok || agg.N != 4 {
		t.Errorf("missing or short ratio aggregate: %+v (have %v)", agg, keys(rep.Aggregates))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRunStreamsResults(t *testing.T) {
	spec := &Spec{Sizes: []int{20}, Degrees: []float64{5}, Seeds: []int64{1, 2, 3}}
	seen := map[int]bool{}
	rep, err := Run(context.Background(), spec, Options{
		Workers: 3,
		OnResult: func(r Result) {
			if seen[r.Index] {
				t.Errorf("scenario %d streamed twice", r.Index)
			}
			seen[r.Index] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != rep.Scenarios {
		t.Fatalf("streamed %d of %d results", len(seen), rep.Scenarios)
	}
}

func TestRunCancellation(t *testing.T) {
	// Enough scenarios that cancellation lands mid-sweep.
	spec := &Spec{Sizes: []int{60}, Degrees: []float64{8}, Seeds: make([]int64, 200)}
	for i := range spec.Seeds {
		spec.Seeds[i] = int64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	rep, err := Run(ctx, spec, Options{
		Workers: 2,
		OnResult: func(Result) {
			n++
			if n == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Results) >= rep.Scenarios {
		t.Fatalf("cancelled run completed all %d scenarios", rep.Scenarios)
	}
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i-1].Index >= rep.Results[i].Index {
			t.Fatalf("compacted results out of index order at %d", i)
		}
	}

	// A context that expired before dispatch runs nothing.
	expired, cancelExpired := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()
	rep, err = Run(expired, spec, Options{Workers: 2})
	if err == nil || len(rep.Results) != 0 {
		t.Fatalf("expired context: err=%v, ran %d scenarios", err, len(rep.Results))
	}
}

func TestRunFaultyWorkloadRecordsFailureNotError(t *testing.T) {
	spec := &Spec{
		Sizes: []int{30}, Degrees: []float64{6}, Seeds: []int64{1},
		Workloads: []Workload{{
			Kind: Backbone, Algorithm: "II", Mode: "sync",
			Faults:    &simnet.FaultPlan{DropRate: 0.6, Seed: 9},
			MaxRounds: 60,
		}},
	}
	rep, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Err != "" {
		t.Fatalf("lossy run reported hard error %q", res.Err)
	}
	if res.Converged && !res.Valid {
		t.Fatalf("claims convergence with invalid WCDS: %+v", res)
	}
	if rep.Failed != 0 {
		t.Fatalf("detectable non-convergence counted as failure: %+v", res)
	}
}

// nonConvergingSpec is one scenario that can never quiesce on its own: a
// never-healing partition with an effectively unbounded retry and round
// budget, so the reliable layer retransmits forever. Only mid-run
// cancellation can end it quickly.
func nonConvergingSpec() *Spec {
	return &Spec{
		Sizes: []int{60}, Degrees: []float64{8}, Seeds: []int64{3},
		Workloads: []Workload{{
			Kind: Backbone, Algorithm: "II", Mode: "sync",
			Faults: &simnet.FaultPlan{
				Partitions: []simnet.PartitionWindow{{From: 0, Group: []int{0, 1, 2}}},
			},
			Reliable:   true,
			MaxRetries: 100_000_000,
			MaxRounds:  100_000_000,
		}},
	}
}

func TestRunCancelsMidScenario(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := Run(ctx, nonConvergingSpec(), Options{Workers: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("non-converging scenario completed without error")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the deadline did not interrupt the run", elapsed)
	}
	// The interrupted row is dropped: not a result, not a failure.
	if len(rep.Results) != 0 || rep.Failed != 0 {
		t.Fatalf("cancelled scenario surfaced as data: results=%d failed=%d", len(rep.Results), rep.Failed)
	}
}

func TestRunCollectsPhases(t *testing.T) {
	spec := &Spec{
		Sizes: []int{40}, Degrees: []float64{6}, Seeds: []int64{1},
		Workloads: []Workload{
			{Kind: Backbone, Algorithm: "I", Mode: "sync"},
			{Kind: Backbone, Algorithm: "II", Mode: "sync"},
			{Kind: Backbone, Algorithm: "II"}, // centralized: no phases
		},
	}
	rep, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		distributed := strings.Contains(res.Workload, "sync")
		if distributed && len(res.Phases) == 0 {
			t.Fatalf("distributed row %q has no phase breakdown", res.Workload)
		}
		if !distributed && len(res.Phases) != 0 {
			t.Fatalf("centralized row %q has phases: %+v", res.Workload, res.Phases)
		}
		total := 0
		for _, sp := range res.Phases {
			total += sp.Messages
		}
		if distributed && total != res.Messages {
			t.Fatalf("row %q: phase messages %d != total %d", res.Workload, total, res.Messages)
		}
	}
}
