package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"wcdsnet/internal/batch"
)

// shardCounts counts the shards placed on each worker.
func shardCounts(p *ShardPlan) map[string]int {
	counts := map[string]int{}
	for _, sh := range p.Shards {
		counts[sh.Worker]++
	}
	return counts
}

// planSpec has 3 scenarios (workloads) per network cell, so cell alignment
// is visible at every width; with seeds 1, 2, 3 it has 6 cells and 18
// scenarios.
func planSpec(seeds ...int64) *batch.Spec {
	return &batch.Spec{
		Sizes:   []int{30, 40},
		Degrees: []float64{6},
		Seeds:   seeds,
		Workloads: []batch.Workload{
			{Kind: batch.Backbone, Algorithm: "II"},
			{Kind: batch.Backbone, Algorithm: "II", Mode: "sync"},
			{Kind: batch.Broadcast, Source: 1},
		},
	}
}

func workerAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return addrs
}

func TestPlanCellAlignedAndBalanced(t *testing.T) {
	spec := planSpec(1, 2, 3)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	n := spec.NumScenarios()
	cell := n / spec.NumNetworks()
	for _, workers := range []int{1, 2, 3, 5} {
		for _, width := range []int{1, 4, 8, 16} {
			opts := Options{Workers: workerAddrs(workers), ShardWidth: width}
			plan, err := Plan(planSpec(1, 2, 3), opts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("workers=%d width=%d", workers, width)
			if want := (width + cell - 1) / cell * cell; plan.Width != want {
				t.Errorf("%s: effective width %d, want %d", name, plan.Width, want)
			}
			next := 0
			for _, sh := range plan.Shards {
				if sh.Lo != next || sh.Hi <= sh.Lo || sh.Lo%cell != 0 || (sh.Hi%cell != 0 && sh.Hi != n) {
					t.Fatalf("%s: shard [%d, %d) breaks the cell-aligned tiling", name, sh.Lo, sh.Hi)
				}
				next = sh.Hi
			}
			if next != n {
				t.Fatalf("%s: shards cover [0, %d) of %d scenarios", name, next, n)
			}
			owned := shardCounts(plan)
			lo, hi := len(plan.Shards), 0
			for _, a := range opts.Workers {
				lo, hi = min(lo, owned[a]), max(hi, owned[a])
			}
			if hi-lo > 1 || len(owned) > workers {
				t.Errorf("%s: unbalanced placement %v", name, owned)
			}
			again, err := Plan(planSpec(1, 2, 3), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, again) {
				t.Errorf("%s: plan is not deterministic", name)
			}
		}
	}
}

// TestPlanFewerCellsThanWorkers: whole cells would leave workers idle, so
// the given width stands.
func TestPlanFewerCellsThanWorkers(t *testing.T) {
	spec := planSpec(1) // 2 cells
	plan, err := Plan(spec, Options{Workers: workerAddrs(3), ShardWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Width != 1 || len(plan.Shards) != spec.NumScenarios() {
		t.Fatalf("width %d over %d shards, want width 1 over %d", plan.Width, len(plan.Shards), spec.NumScenarios())
	}
	if owned := shardCounts(plan); len(owned) != 3 {
		t.Errorf("6 shards reached only %d of 3 workers: %v", len(owned), owned)
	}
}

func TestPlanRejectsEmptyFleetAndBadSpec(t *testing.T) {
	if _, err := Plan(planSpec(1), Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := Plan(planSpec(), Options{Workers: workerAddrs(1)}); err == nil {
		t.Error("spec without seeds accepted")
	}
}
