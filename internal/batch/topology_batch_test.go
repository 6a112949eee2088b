package batch

import (
	"context"
	"strings"
	"testing"

	"wcdsnet/internal/udg"
)

// competitorTestSpec crosses four topologies with five algorithms — the
// acceptance shape of the topology axis (≥ 3 topologies × ≥ 4 algorithms).
func competitorTestSpec(t *testing.T) *Spec {
	t.Helper()
	topos := make([]udg.Topology, 0, 4)
	for _, s := range []string{"uniform", "clusters:k=3", "corridor", "annulus"} {
		topo, err := udg.ParseTopology(s)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return &Spec{
		Sizes:      []int{40},
		Degrees:    []float64{7},
		Seeds:      []int64{1, 2},
		Topologies: topos,
		Workloads: []Workload{
			{Kind: Backbone, Algorithm: "II", Mode: "sync"},
			{Kind: Backbone, Algorithm: "I"},
			{Kind: Backbone, Algorithm: "greedy-cds"},
			{Kind: Backbone, Algorithm: "weighted-ds", WeightSeed: 5},
			{Kind: Backbone, Algorithm: "prune-cds"},
		},
	}
}

// TestTopologyAxisDigestWorkerInvariance is the acceptance criterion: a
// spec sweeping the topology axis produces byte-identical digests at any
// worker count.
func TestTopologyAxisDigestWorkerInvariance(t *testing.T) {
	spec := competitorTestSpec(t)
	ctx := context.Background()

	one, err := Run(ctx, spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	digest := one.Digest()
	for _, workers := range []int{2, 5} {
		rep, err := Run(ctx, spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d := rep.Digest(); d != digest {
			t.Fatalf("digest at %d workers %s != 1 worker %s", workers, d[:12], digest[:12])
		}
	}
	if one.Failed != 0 {
		t.Fatalf("%d scenarios failed", one.Failed)
	}

	// Every row carries its topology label, every backbone is valid, and
	// the aggregates are keyed per (topology, workload).
	for i := range one.Results {
		r := &one.Results[i]
		if r.Topology == "" {
			t.Fatalf("scenario %d has no topology label", r.Index)
		}
		if !r.Valid {
			t.Fatalf("scenario %d (%s %s) produced an invalid backbone", r.Index, r.Topology, r.Workload)
		}
		if !strings.Contains(r.Canonical(), "topo="+r.Topology+"|") {
			t.Fatalf("scenario %d canonical line lacks its topology fragment", r.Index)
		}
	}
	found := false
	for k := range one.Aggregates {
		if strings.HasPrefix(k, "clusters:k=3,sigma=0.75/") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no aggregate keyed by topology; keys: %v", len(one.Aggregates))
	}
}

// TestLegacySpecRowsUnchanged: specs without a topology axis must keep
// pre-topology canonical lines — no topo= fragment, no Topology label — so
// committed digests remain comparable.
func TestLegacySpecRowsUnchanged(t *testing.T) {
	spec := &Spec{
		Sizes:   []int{30},
		Degrees: []float64{6},
		Seeds:   []int64{1},
		Workloads: []Workload{
			{Kind: Backbone, Algorithm: "II"},
			{Kind: Backbone, Algorithm: "greedy-wcds"},
		},
	}
	rep, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Topology != "" {
			t.Fatalf("legacy scenario %d grew a topology label %q", r.Index, r.Topology)
		}
		if strings.Contains(r.Canonical(), "topo=") {
			t.Fatalf("legacy scenario %d canonical line grew a topo fragment: %s", r.Index, r.Canonical())
		}
	}
	for k := range rep.Aggregates {
		if strings.Contains(k, "/backbone-") && strings.Count(k, "/") != 1 {
			t.Fatalf("legacy aggregate key %q grew a topology prefix", k)
		}
	}
}

// TestSpecTopologyValidation: registry and topology errors surface from
// Validate with the full choice lists.
func TestSpecTopologyValidation(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Sizes: []int{20}, Degrees: []float64{5}, Seeds: []int64{1},
			Workloads: []Workload{{Kind: Backbone, Algorithm: "II"}},
		}
	}

	sp := base()
	sp.Workloads[0].Algorithm = "dijkstra"
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "prune-cds") {
		t.Errorf("unknown algorithm error %v does not enumerate registered names", err)
	}

	sp = base()
	sp.Workloads[0].Algorithm = "greedy-cds"
	sp.Workloads[0].Mode = "sync"
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "no distributed protocol") {
		t.Errorf("centralized-only distributed request error %v", err)
	}

	sp = base()
	sp.Workloads[0].WeightSeed = 3
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "weighted") {
		t.Errorf("weightSeed on unweighted algorithm error %v", err)
	}

	sp = base()
	sp.Workloads[0].Kind = Dilation
	sp.Workloads[0].Algorithm = "weighted-ds"
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("dilation on a ds-kind construction error %v", err)
	}

	sp = base()
	sp.Topologies = []udg.Topology{{Kind: "torus"}}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "unknown topology kind") {
		t.Errorf("unknown topology error %v", err)
	}

	// Aliases normalize to canonical names.
	sp = base()
	sp.Workloads[0].Algorithm = "algo2"
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Workloads[0].Algorithm != "II" {
		t.Errorf("alias normalized to %q, want II", sp.Workloads[0].Algorithm)
	}
}
