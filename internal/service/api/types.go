package api

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"wcdsnet/internal/algo"
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
	rng := rand.New(rand.NewSource(sp.Seed))
	var nw *udg.Network
	var err error
	if sp.Topology != nil {
		nw, err = sp.Topology.GenConnected(rng, sp.N, sp.AvgDegree, 2000)
	} else {
		nw, err = udg.GenConnectedAvgDegree(rng, sp.N, sp.AvgDegree, 2000)
	}
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
	// Algorithm names a registered construction (default "II"; see
	// algo.Names). Algorithms without a distributed protocol run
	// centralized only. Schema v6 widened this beyond "I"/"II".
	Algorithm string `json:"algorithm,omitempty"`
	// WeightSeed seeds the per-node weight vector of weighted algorithms
	// (0 = unit weights; rejected for unweighted algorithms). Schema v6.
	WeightSeed int64 `json:"weightSeed,omitempty"`
	// Mode is "centralized" (default), "sync", "async" or "event". For
	// distributed runs it is the same enum as Engine; setting either is
	// enough, setting both to different values is rejected.
	Mode string `json:"mode,omitempty"`
	// Engine selects the simulation engine of a distributed run: "sync",
	// "async" or "event" (the million-node single-scheduler engine).
	// Normalization keeps Mode and Engine equal for distributed requests.
	// Schema v5.
	Engine string `json:"engine,omitempty"`
	// Selection is Algorithm II's connector-selection mode: "deferred"
	// (default, schedule-independent) or "eager".
	Selection string `json:"selection,omitempty"`
	// ScheduleSeed seeds the per-link scramble of the delivery schedule.
	// Engine "async" always runs under it (seed 0 by default), so each
	// seed replays exactly; engine "event" scrambles only for a non-zero
	// seed; engine "sync" ignores it.
	ScheduleSeed int64 `json:"scheduleSeed,omitempty"`

	// Faults injects the given fault plan into the distributed run (any
	// distributed mode: "sync", "async" or "event"). See simnet.FaultPlan
	// for the schema.
	Faults *simnet.FaultPlan `json:"faults,omitempty"`
	// Reliable wraps the protocol in the ack/retransmit layer so it
	// converges under loss; implied counters appear in the response.
	Reliable bool `json:"reliable,omitempty"`
	// MaxRetries overrides the reliable layer's per-message retry budget
	// (0 = default).
	MaxRetries int `json:"maxRetries,omitempty"`
	// MaxRounds overrides the engine's quiescence budget: synchronous
	// rounds or async tick passes (0 = engine default). Heavy fault plans
	// with retransmission legitimately need more than the default.
	MaxRounds int `json:"maxRounds,omitempty"`
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

// Normalize canonicalises the request in place (default and case-fold the
// enum fields) and validates the field combination.
func (req *BackboneRequest) Normalize() error {
	if req.Algorithm == "" {
		req.Algorithm = "II"
	}
	construction, ok := algo.Lookup(req.Algorithm)
	if !ok {
		return Errorf("unknown algorithm %q (want %s)", req.Algorithm, algo.NamesString())
	}
	req.Algorithm = construction.Name
	if req.WeightSeed != 0 && !construction.Caps.Weighted {
		return Errorf("weightSeed applies to weighted algorithms only (got %q)", req.Algorithm)
	}
	mode, engine, err := simnet.NormalizeEngine(req.Mode, req.Engine)
	if err != nil {
		return Errorf("%v", err)
	}
	req.Mode, req.Engine = mode, engine
	if req.Mode != "centralized" && !construction.Caps.Distributed {
		return Errorf("algorithm %q has no distributed protocol (want mode centralized; distributed algorithms: %s)",
			req.Algorithm, strings.Join(algo.DistributedNames(), ", "))
	}
	switch strings.ToLower(req.Selection) {
	case "", "deferred":
		req.Selection = "deferred"
	case "eager":
		req.Selection = "eager"
	default:
		return Errorf("unknown selection %q (want deferred or eager)", req.Selection)
	}
	if req.Faults != nil && req.Faults.Empty() {
		req.Faults = nil
	}
	faulty := req.Faults != nil || req.Reliable || req.MaxRetries != 0 || req.MaxRounds != 0
	if faulty && req.Mode == "centralized" {
		return Errorf("faults/reliable/maxRetries/maxRounds require a distributed mode (sync, async or event)")
	}
	if req.MaxRetries < 0 {
		return Errorf("maxRetries %d must be non-negative", req.MaxRetries)
	}
	if req.MaxRounds < 0 {
		return Errorf("maxRounds %d must be non-negative", req.MaxRounds)
	}
	if req.Faults != nil {
		// Validate against the spec's node count; both spec forms know it
		// before the network is built.
		n := req.NetworkSpec.N
		if len(req.NetworkSpec.Positions) > 0 {
			n = len(req.NetworkSpec.Positions)
		}
		if err := req.Faults.Validate(n); err != nil {
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
	// Algorithm names a registered construction (default "II"; see
	// algo.Names). All dilation runs are centralized. Schema v6 widened
	// this beyond "I"/"II".
	Algorithm string `json:"algorithm,omitempty"`
	// Pairs is the number of sampled node pairs; <= 0 measures every
	// non-adjacent pair (quadratic — capped by the service's MaxNodes).
	Pairs int `json:"pairs,omitempty"`
	// SampleSeed seeds pair sampling (ignored when Pairs <= 0).
	SampleSeed int64 `json:"sampleSeed,omitempty"`
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

// Normalize canonicalises the algorithm field.
func (req *DilationRequest) Normalize() error {
	if req.Algorithm == "" {
		req.Algorithm = "II"
	}
	construction, ok := algo.Lookup(req.Algorithm)
	if !ok {
		return Errorf("unknown algorithm %q (want %s)", req.Algorithm, algo.NamesString())
	}
	req.Algorithm = construction.Name
	if construction.Kind == algo.KindDS {
		return Errorf("dilation is undefined for %q: a plain dominating set's weakly-induced spanner need not be connected", req.Algorithm)
	}
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

// CacheKey returns the content address of the computation this request
// describes.
func (req *BroadcastRequest) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "broadcast|src=%d|", req.Source)
	req.NetworkSpec.Canonical(&b)
	return HashKey(b.String())
}
