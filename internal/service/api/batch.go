package api

import (
	"encoding/json"
	"strings"

	"wcdsnet/internal/batch"
)

// BatchSpec and BatchWorkload are the engine's declarative types, exposed
// verbatim on the wire so POST /v1/batch and internal/batch can never
// drift: the JSON schema IS the engine schema. The single-scenario
// requests keep their own JSON fields but describe the same job: each
// converts to a BatchWorkload (Workload), validates through its
// Normalize, and runs on the batch executor.
type (
	BatchSpec     = batch.Spec
	BatchWorkload = batch.Workload
)

// BatchRequest asks the service to execute a sweep with the sharded batch
// engine.
type BatchRequest struct {
	BatchSpec
	// Workers overrides the engine's shard count (0 = GOMAXPROCS). It does
	// not affect results, only wall time, and is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// MeasureWorkers overrides the per-scenario dilation measurement
	// parallelism (0 = engine default of 1). Like Workers it cannot change
	// results, only wall time, so it too is excluded from the cache key.
	MeasureWorkers int `json:"measureWorkers,omitempty"`
}

// Normalize validates the spec in place (workload enums are defaulted and
// case-folded) and enforces the service's size and scenario-count bounds.
func (req *BatchRequest) Normalize(maxNodes, maxScenarios int) error {
	if err := normalizeSweep(&req.BatchSpec, req.Workers, req.MeasureWorkers, maxNodes); err != nil {
		return err
	}
	if n := req.NumScenarios(); maxScenarios > 0 && n > maxScenarios {
		return Errorf("%d scenarios exceed the service limit of %d", n, maxScenarios)
	}
	return nil
}

// normalizeSweep makes the checks batch and shard requests share: the two
// parallelism knobs, the spec itself (validated in place) and the node
// bound on its sizes.
func normalizeSweep(spec *BatchSpec, workers, measureWorkers, maxNodes int) error {
	if workers < 0 {
		return Errorf("workers %d must be non-negative", workers)
	}
	if measureWorkers < 0 {
		return Errorf("measureWorkers %d must be non-negative", measureWorkers)
	}
	if err := spec.Validate(); err != nil {
		return Errorf("%v", err)
	}
	for _, n := range spec.Sizes {
		if n > maxNodes {
			return Errorf("size %d exceeds the service limit of %d nodes", n, maxNodes)
		}
	}
	return nil
}

// CacheKey returns the content address of the sweep. Normalize must have
// run first so equivalent spellings of a workload render identically.
func (req *BatchRequest) CacheKey() string {
	var b strings.Builder
	b.WriteString("batch|")
	// Spec marshals deterministically (fixed field order, omitempty), so
	// its JSON form is a sound cache key for the normalized request.
	enc, _ := json.Marshal(req.BatchSpec)
	b.Write(enc)
	return HashKey(b.String())
}

// BatchResponse is the engine report plus the canonical digest, which
// clients can compare across runs and worker counts.
type BatchResponse struct {
	batch.Report
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	// Schema echoes SchemaVersion (see api.go); revision 2 added per-phase
	// breakdowns to the embedded report's results.
	Schema int `json:"schema"`
}
