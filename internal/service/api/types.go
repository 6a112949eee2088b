package api

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"wcdsnet/internal/batch"
	"wcdsnet/internal/geom"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// NetworkSpec describes the network a request operates on: either a
// generated scenario (Seed/N/AvgDegree) or an explicit topology
// (Positions + optional IDs + optional Radius). Exactly one of the two
// forms must be used.
type NetworkSpec struct {
	// Scenario generation (mirrors wcdsnet.GenerateNetwork).
	Seed      int64   `json:"seed,omitempty"`
	N         int     `json:"n,omitempty"`
	AvgDegree float64 `json:"avgDegree,omitempty"`
	// Topology selects the scene family of a generated spec (schema v6;
	// see udg.Kinds). Absent means the uniform square, exactly as before.
	Topology *udg.Topology `json:"topology,omitempty"`

	// Explicit topology (mirrors wcdsnet.NewNetwork). IDs defaults to
	// 0..len(positions)-1 and Radius to 1.
	Positions [][2]float64 `json:"positions,omitempty"`
	IDs       []int        `json:"ids,omitempty"`
	Radius    float64      `json:"radius,omitempty"`
}

// Validate checks the spec against the service limits and reports which
// form it uses. Failures wrap ErrInvalidInput.
func (sp *NetworkSpec) Validate(maxNodes int) error {
	explicit := len(sp.Positions) > 0 || len(sp.IDs) > 0
	generated := sp.N != 0 || sp.AvgDegree != 0 || sp.Seed != 0
	switch {
	case explicit && (sp.N != 0 || sp.AvgDegree != 0):
		return Errorf("give either positions or n/avgDegree, not both")
	case explicit && sp.Topology != nil:
		return Errorf("topology applies to generated specs only, not explicit positions")
	case explicit:
		if len(sp.Positions) == 0 {
			return Errorf("ids given without positions")
		}
		if len(sp.Positions) > maxNodes {
			return Errorf("%d positions exceed the service limit of %d nodes", len(sp.Positions), maxNodes)
		}
		if len(sp.IDs) > 0 && len(sp.IDs) != len(sp.Positions) {
			return Errorf("%d ids for %d positions", len(sp.IDs), len(sp.Positions))
		}
		if sp.Radius < 0 || math.IsNaN(sp.Radius) || math.IsInf(sp.Radius, 0) {
			return Errorf("radius %v must be positive", sp.Radius)
		}
		for i, p := range sp.Positions {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return Errorf("position %d is not finite", i)
			}
		}
		return nil
	case generated:
		if sp.N <= 0 {
			return Errorf("node count n=%d must be positive", sp.N)
		}
		if sp.N > maxNodes {
			return Errorf("n=%d exceeds the service limit of %d nodes", sp.N, maxNodes)
		}
		if !(sp.AvgDegree > 0) || math.IsInf(sp.AvgDegree, 0) { // catches NaN and non-positive
			return Errorf("avgDegree %v must be positive and finite", sp.AvgDegree)
		}
		if sp.Topology != nil {
			if err := sp.Topology.Normalize(); err != nil {
				return Errorf("%v", err)
			}
		}
		return nil
	default:
		return Errorf("empty network spec: give n/avgDegree or positions")
	}
}

// nodes returns the node count the spec asks for, known in both forms
// before the network is built.
func (sp *NetworkSpec) nodes() int {
	if len(sp.Positions) > 0 {
		return len(sp.Positions)
	}
	return sp.N
}

// Build materialises the network. Validate must already have passed.
func (sp *NetworkSpec) Build() (*udg.Network, error) {
	if len(sp.Positions) > 0 {
		pos := make([]geom.Point, len(sp.Positions))
		for i, p := range sp.Positions {
			pos[i] = geom.Point{X: p[0], Y: p[1]}
		}
		ids := sp.IDs
		if len(ids) == 0 {
			ids = make([]int, len(pos))
			for i := range ids {
				ids[i] = i
			}
		}
		radius := sp.Radius
		if radius == 0 {
			radius = 1
		}
		nw, err := udg.New(pos, ids, radius)
		if err != nil {
			return nil, Errorf("%v", err)
		}
		return nw, nil
	}
	var topo udg.Topology // the legacy uniform generator, unless named
	if sp.Topology != nil {
		topo = *sp.Topology
	}
	nw, err := batch.Generate(topo, sp.N, sp.AvgDegree, sp.Seed)
	if err != nil {
		// The parameters parsed but no connected instance exists for them
		// (e.g. avgDegree ≈ n): the client's input is at fault, not us.
		return nil, Errorf("scenario not realisable: %v", err)
	}
	return nw, nil
}

// Canonical renders the spec as a deterministic string fragment for cache
// keys. Two specs describing the same computation render identically.
func (sp *NetworkSpec) Canonical(b *strings.Builder) {
	if len(sp.Positions) > 0 {
		b.WriteString("explicit:r=")
		radius := sp.Radius
		if radius == 0 {
			radius = 1
		}
		fmt.Fprintf(b, "%g;", radius)
		for i, p := range sp.Positions {
			fmt.Fprintf(b, "%g,%g", p[0], p[1])
			if len(sp.IDs) > 0 {
				fmt.Fprintf(b, "#%d", sp.IDs[i])
			} else {
				fmt.Fprintf(b, "#%d", i)
			}
			b.WriteByte(';')
		}
		return
	}
	fmt.Fprintf(b, "gen:seed=%d,n=%d,deg=%g", sp.Seed, sp.N, sp.AvgDegree)
	// The topology fragment appears only when the field does, so every
	// pre-v6 generated spec keeps its exact cache key.
	if sp.Topology != nil {
		fmt.Fprintf(b, ",topo=%s", sp.Topology.Canonical())
	}
}

// --- backbone --------------------------------------------------------------

// BackboneRequest asks for a backbone construction over the given network.
type BackboneRequest struct {
	NetworkSpec
	// The job: each field means what the batch.Workload field of the same
	// name means, and Normalize applies that type's rule. Algorithm takes
	// any registered construction (schema v6, as does WeightSeed; Engine is
	// schema v5); Faults, Reliable, MaxRetries and MaxRounds need a
	// distributed mode.
	Algorithm    string            `json:"algorithm,omitempty"`
	WeightSeed   int64             `json:"weightSeed,omitempty"`
	Mode         string            `json:"mode,omitempty"`
	Engine       string            `json:"engine,omitempty"`
	Selection    string            `json:"selection,omitempty"`
	ScheduleSeed int64             `json:"scheduleSeed,omitempty"`
	Faults       *simnet.FaultPlan `json:"faults,omitempty"`
	Reliable     bool              `json:"reliable,omitempty"`
	MaxRetries   int               `json:"maxRetries,omitempty"`
	MaxRounds    int               `json:"maxRounds,omitempty"`
}

// BackboneResponse reports the construction. Node-valued fields use dense
// graph indices 0..n-1 (the same indexing an explicit positions array uses).
type BackboneResponse struct {
	N                    int     `json:"n"`
	Edges                int     `json:"edges"`
	AvgDegree            float64 `json:"avgDegree"`
	Algorithm            string  `json:"algorithm"`
	Mode                 string  `json:"mode"`
	Engine               string  `json:"engine,omitempty"`
	Dominators           []int   `json:"dominators"`
	MISDominators        []int   `json:"misDominators,omitempty"`
	AdditionalDominators []int   `json:"additionalDominators,omitempty"`
	SpannerEdges         int     `json:"spannerEdges"`
	IsWCDS               bool    `json:"isWCDS"`
	// Kind and Valid report the construction's output class ("wcds",
	// "cds" or "ds") and whether the result satisfies that class's own
	// predicate — for CDS algorithms induced connectivity, for plain DS
	// algorithms domination only. For Algorithms I/II, Valid == IsWCDS.
	// Schema v6.
	Kind     string `json:"kind,omitempty"`
	Valid    bool   `json:"valid,omitempty"`
	Messages int    `json:"messages,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Cached   bool   `json:"cached"`
	// Schema echoes SchemaVersion so clients can detect which additive
	// revision of this response they are reading.
	Schema int `json:"schema"`

	// Phases breaks a distributed run's cost down by protocol phase
	// (discovery, election, levels, mis, recruit, reliable). Centralized
	// runs have no phases.
	Phases []obs.Span `json:"phases,omitempty"`

	// Converged is false when a fault-injected run quiesced without every
	// node deciding, or blew its round budget — a detectable failure, not
	// an HTTP error. FailureReason carries the detail. Lossless runs are
	// always converged (a failure there is answered 500 instead).
	Converged     bool   `json:"converged"`
	FailureReason string `json:"failureReason,omitempty"`
	// Fault and reliability accounting for distributed runs.
	Ticks          int `json:"ticks,omitempty"`
	Dropped        int `json:"dropped,omitempty"`
	Duplicated     int `json:"duplicated,omitempty"`
	Retransmits    int `json:"retransmits,omitempty"`
	DupsSuppressed int `json:"dupsSuppressed,omitempty"`
	Acks           int `json:"acks,omitempty"`
	Abandoned      int `json:"abandoned,omitempty"`
}

// Workload returns the batch job the request describes.
func (req *BackboneRequest) Workload() batch.Workload {
	return batch.Workload{Kind: batch.Backbone, Algorithm: req.Algorithm, WeightSeed: req.WeightSeed,
		Mode: req.Mode, Engine: req.Engine, Selection: req.Selection, ScheduleSeed: req.ScheduleSeed,
		Faults: req.Faults, Reliable: req.Reliable, MaxRetries: req.MaxRetries, MaxRounds: req.MaxRounds}
}

// Normalize canonicalises the request in place (default and case-fold the
// enum fields) and validates the field combination by the batch workload
// rule, plus the fault plan against the spec's node count.
func (req *BackboneRequest) Normalize() error {
	w := req.Workload()
	if err := w.Normalize(); err != nil {
		return Errorf("%v", err)
	}
	req.Algorithm, req.Mode, req.Engine, req.Selection, req.Faults = w.Algorithm, w.Mode, w.Engine, w.Selection, w.Faults
	if req.Faults != nil {
		if err := req.Faults.Validate(req.nodes()); err != nil {
			return Errorf("%v", err)
		}
	}
	return nil
}

// CacheKey returns the content address of the computation this request
// describes.
func (req *BackboneRequest) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backbone|algo=%s|mode=%s|eng=%s|sel=%s|sched=%d|", req.Algorithm, req.Mode, req.Engine, req.Selection, req.ScheduleSeed)
	fmt.Fprintf(&b, "rel=%v,retries=%d,rounds=%d|", req.Reliable, req.MaxRetries, req.MaxRounds)
	// v6 fields contribute fragments only when set, preserving pre-v6 keys.
	if req.WeightSeed != 0 {
		fmt.Fprintf(&b, "wseed=%d|", req.WeightSeed)
	}
	if req.Faults != nil {
		// FaultPlan marshals deterministically (fixed field order, omitempty),
		// so the JSON form is a sound cache-key fragment.
		plan, _ := json.Marshal(req.Faults)
		b.Write(plan)
		b.WriteByte('|')
	}
	req.NetworkSpec.Canonical(&b)
	return HashKey(b.String())
}

// --- dilation --------------------------------------------------------------

// DilationRequest measures the quality of a construction's spanner over the
// given network.
type DilationRequest struct {
	NetworkSpec
	// The job, as in batch.Workload: Algorithm names any registered
	// construction but a plain dominating set (schema v6), Pairs <= 0
	// measures every non-adjacent pair (quadratic — capped by the service's
	// MaxNodes) and SampleSeed seeds pair sampling. All dilation runs are
	// centralized.
	Algorithm  string `json:"algorithm,omitempty"`
	Pairs      int    `json:"pairs,omitempty"`
	SampleSeed int64  `json:"sampleSeed,omitempty"`
	// MeasureWorkers parallelises the measurement across sources
	// (spanner.DilationN). 0 means GOMAXPROCS. The result is identical for
	// every value, so it is excluded from the cache key.
	MeasureWorkers int `json:"measureWorkers,omitempty"`
}

// DilationResponse flattens spanner.Report plus network context.
type DilationResponse struct {
	N              int     `json:"n"`
	Edges          int     `json:"edges"`
	SpannerEdges   int     `json:"spannerEdges"`
	Algorithm      string  `json:"algorithm"`
	Pairs          int     `json:"pairs"`
	WorstTopoRatio float64 `json:"worstTopoRatio"`
	WorstGeoRatio  float64 `json:"worstGeoRatio"`
	AvgTopoRatio   float64 `json:"avgTopoRatio"`
	AvgGeoRatio    float64 `json:"avgGeoRatio"`
	TopoBoundHolds bool    `json:"topoBoundHolds"`
	GeoBoundHolds  bool    `json:"geoBoundHolds"`
	Cached         bool    `json:"cached"`
}

// Workload returns the batch job the request describes.
func (req *DilationRequest) Workload() batch.Workload {
	return batch.Workload{Kind: batch.Dilation, Algorithm: req.Algorithm, Pairs: req.Pairs, SampleSeed: req.SampleSeed}
}

// Normalize canonicalises the algorithm field and validates the request by
// the batch workload rule.
func (req *DilationRequest) Normalize() error {
	w := req.Workload()
	if err := w.Normalize(); err != nil {
		return Errorf("%v", err)
	}
	req.Algorithm = w.Algorithm
	if req.MeasureWorkers < 0 {
		return Errorf("measureWorkers %d must be non-negative", req.MeasureWorkers)
	}
	return nil
}

// CacheKey returns the content address of the computation this request
// describes. MeasureWorkers is deliberately absent: it changes how the
// answer is computed, not what it is.
func (req *DilationRequest) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dilation|algo=%s|pairs=%d|pseed=%d|", req.Algorithm, req.Pairs, req.SampleSeed)
	req.NetworkSpec.Canonical(&b)
	return HashKey(b.String())
}

// --- broadcast -------------------------------------------------------------

// BroadcastRequest floods a message from Source over the Algorithm II
// backbone relay set and over a blind flood for comparison.
type BroadcastRequest struct {
	NetworkSpec
	// Source is the originating node index (default 0).
	Source int `json:"source,omitempty"`
}

// BroadcastResponse compares backbone broadcast against blind flooding.
type BroadcastResponse struct {
	N                     int     `json:"n"`
	Edges                 int     `json:"edges"`
	Source                int     `json:"source"`
	RelaySetSize          int     `json:"relaySetSize"`
	BackboneTransmissions int     `json:"backboneTransmissions"`
	BackboneReceptions    int     `json:"backboneReceptions"`
	BackboneCovered       bool    `json:"backboneCovered"`
	FloodTransmissions    int     `json:"floodTransmissions"`
	FloodReceptions       int     `json:"floodReceptions"`
	TransmissionSaving    float64 `json:"transmissionSaving"`
	Cached                bool    `json:"cached"`
}

// Workload returns the batch job the request describes.
func (req *BroadcastRequest) Workload() batch.Workload {
	return batch.Workload{Kind: batch.Broadcast, Source: req.Source}
}

// Normalize validates the request by the batch workload rule, plus the
// source against the spec's node count.
func (req *BroadcastRequest) Normalize() error {
	w := req.Workload()
	if err := w.Normalize(); err != nil {
		return Errorf("%v", err)
	}
	if n := req.nodes(); n > 0 && req.Source >= n {
		return Errorf("source %d out of range for %d nodes", req.Source, n)
	}
	return nil
}

// CacheKey returns the content address of the computation this request
// describes.
func (req *BroadcastRequest) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "broadcast|src=%d|", req.Source)
	req.NetworkSpec.Canonical(&b)
	return HashKey(b.String())
}
