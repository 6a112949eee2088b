package api

import (
	"encoding/json"
	"fmt"
	"strings"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/stats"
)

// ShardRequest asks the service to execute one contiguous index range
// [Lo, Hi) of a batch spec — the wire form of batch.RunRange, added in
// schema revision 7. The fleet coordinator slices a sweep into these,
// dispatches them across workers and merges the rows back in index order;
// rows keep their global scenario indices so the merged report digest is
// byte-identical to a local run.
type ShardRequest struct {
	BatchSpec
	// Lo and Hi bound the shard: scenarios with Lo <= Index < Hi execute.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Workers overrides the in-process shard parallelism (0 = GOMAXPROCS).
	// Like BatchRequest.Workers it cannot change results, only wall time,
	// so it is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// MeasureWorkers overrides the per-scenario dilation measurement
	// parallelism (0 = engine default of 1). Excluded from the cache key.
	MeasureWorkers int `json:"measureWorkers,omitempty"`
}

// Normalize validates the spec and the range in place, enforcing the same
// size and scenario-count bounds as POST /v1/batch (the bounds apply to the
// shard width, not the full sweep, so a fleet can execute sweeps wider than
// any single worker would accept in one request).
func (req *ShardRequest) Normalize(maxNodes, maxScenarios int) error {
	if err := normalizeSweep(&req.BatchSpec, req.Workers, req.MeasureWorkers, maxNodes); err != nil {
		return err
	}
	n := req.NumScenarios()
	if req.Lo < 0 || req.Hi > n || req.Lo >= req.Hi {
		return Errorf("shard range [%d, %d) out of bounds for %d scenarios", req.Lo, req.Hi, n)
	}
	if w := req.Hi - req.Lo; maxScenarios > 0 && w > maxScenarios {
		return Errorf("shard width %d exceeds the service limit of %d scenarios", w, maxScenarios)
	}
	return nil
}

// CacheKey returns the content address of the shard: the spec's
// deterministic JSON form plus the range. Distinct ranges of the same spec
// are distinct entries, so the fleet's consistent-hash placement gives each
// worker an affinity for "its" shards across repeated sweeps.
func (req *ShardRequest) CacheKey() string {
	var b strings.Builder
	b.WriteString("shard|")
	enc, _ := json.Marshal(req.BatchSpec)
	b.Write(enc)
	fmt.Fprintf(&b, "|%d:%d", req.Lo, req.Hi)
	return HashKey(b.String())
}

// ShardSummary is the closing line of a shard's NDJSON stream (POST
// /v1/shard): the shard's report without its rows, which already
// streamed, and without the partial per-shard aggregates — most of the
// summary's bytes, and never read: the coordinator re-derives the sweep's
// aggregates from the merged rows.
type ShardSummary struct {
	batch.Report
	// Digest is the SHA-256 of this shard's canonical rows, so a coordinator
	// can verify a cached or re-dispatched shard against a prior copy (the
	// coordinator recomputes the full-sweep digest after the merge).
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	Schema int    `json:"schema"`
	// Results and Aggregates shadow the embedded report's fields; they stay
	// nil, so the line carries neither key.
	Results    []batch.Result           `json:"results,omitempty"`
	Aggregates map[string]stats.Summary `json:"aggregates,omitempty"`
}
