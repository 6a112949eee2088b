package fleet

import (
	"fmt"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/service/api"
)

// ShardPlan is the slicing and placement of one sweep over a worker set.
type ShardPlan struct {
	// Width is the effective shard width in scenarios: the requested width
	// rounded up to whole network cells (see Plan).
	Width int
	// Shards are the sweep's [Lo, Hi) slices in index order.
	Shards []PlannedShard
}

// PlannedShard is one slice of the sweep, its content address (the cache
// key the worker stores its rows under) and the worker it is placed on.
type PlannedShard struct {
	Lo, Hi int
	Key    string
	Worker string
}

// Plan validates spec in place (so shard keys match the ones workers
// compute), slices it and places every shard; it reads only opts.Workers
// and opts.ShardWidth. It is the coordinator's placement,
// so code that must predict it — the kill test choosing the worker to
// kill — shares this one function.
//
// Slicing is cell-aligned: the width is rounded up to a whole number of
// network cells (the NumScenarios/NumNetworks consecutive scenarios of one
// scene), so each cell's shared work — scene generation, centralized
// constructions, the detailed run broadcasts reuse — is computed by one
// worker once instead of once per shard the cell straddles. A sweep with
// fewer cells than workers keeps the given width: whole cells would leave
// workers idle.
//
// Placement is consistent hashing with bounded loads: each shard walks the
// ring clockwise from its key to the first worker holding fewer than
// ⌈shards/workers⌉ shards, and only shards mod workers of the workers may
// reach that bound, so per-worker counts differ by at most one (a plain
// ring lookup can put 4 of 17 shards on one worker and 13 on the other,
// leaving the first idle for most of the sweep). Shards are placed in
// index order, so the plan is a pure function of the shard keys and the
// worker list, and a repeated sweep on a stable fleet lands every shard on
// the worker that cached it.
func Plan(spec *batch.Spec, opts Options) (*ShardPlan, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers given")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ring := NewRing(opts.Workers)
	n, cells := spec.NumScenarios(), spec.NumNetworks()
	width := opts.ShardWidth
	if cells >= ring.Len() {
		cell := n / cells
		width = (width + cell - 1) / cell * cell
	}

	plan := &ShardPlan{Width: width}
	for lo := 0; lo < n; lo += width {
		req := api.ShardRequest{BatchSpec: *spec, Lo: lo, Hi: min(lo+width, n)}
		plan.Shards = append(plan.Shards, PlannedShard{Lo: req.Lo, Hi: req.Hi, Key: req.CacheKey()})
	}
	// Every worker may take base shards and the first extra workers to get
	// there one more: the loads sum to exactly len(Shards), so some worker
	// always fits.
	base, extra := len(plan.Shards)/ring.Len(), len(plan.Shards)%ring.Len()
	load := map[string]int{}
	fits := func(addr string) bool { return load[addr] < base || load[addr] == base && extra > 0 }
	for i := range plan.Shards {
		sh := &plan.Shards[i]
		sh.Worker = ring.lookupBounded(sh.Key, fits)
		if load[sh.Worker]++; load[sh.Worker] > base {
			extra--
		}
	}
	return plan, nil
}
