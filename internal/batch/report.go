package batch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/stats"
)

// Result is one finished scenario. Fields are grouped by workload kind;
// kinds leave the other groups zero. WallNS is the only
// non-deterministic field and is excluded from Canonical.
type Result struct {
	Index  int     `json:"index"`
	Size   int     `json:"size"`
	Degree float64 `json:"degree"`
	Seed   int64   `json:"seed"`
	// Topology is the cell's canonical scene descriptor (e.g.
	// "clusters:k=4,sigma=0.75"); empty for specs without a topology axis,
	// keeping their canonical lines byte-identical to the pre-topology
	// engine.
	Topology string `json:"topology,omitempty"`
	Workload string `json:"workload"`

	// Err is a hard scenario failure (unrealisable cell, engine error on a
	// lossless run, panic). Failure is a detectable non-convergence of a
	// fault-injected run — expected data, not an error.
	Err     string `json:"err,omitempty"`
	Failure string `json:"failure,omitempty"`

	// Backbone workloads.
	Edges        int     `json:"edges,omitempty"`
	Backbone     int     `json:"backbone,omitempty"`
	MIS          int     `json:"mis,omitempty"`
	Additional   int     `json:"additional,omitempty"`
	SpannerEdges int     `json:"spannerEdges,omitempty"`
	Valid        bool    `json:"valid,omitempty"`
	Ratio        float64 `json:"ratio,omitempty"`
	Converged    bool    `json:"converged,omitempty"`
	Messages     int     `json:"messages,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	Dropped      int     `json:"dropped,omitempty"`
	Retransmits  int     `json:"retransmits,omitempty"`

	// Dilation workloads.
	Pairs     int     `json:"pairs,omitempty"`
	WorstTopo float64 `json:"worstTopo,omitempty"`
	AvgTopo   float64 `json:"avgTopo,omitempty"`
	WorstGeo  float64 `json:"worstGeo,omitempty"`
	AvgGeo    float64 `json:"avgGeo,omitempty"`
	BoundsOK  bool    `json:"boundsOK,omitempty"`

	// Broadcast workloads.
	RelaySize  int     `json:"relaySize,omitempty"`
	BackboneTx int     `json:"backboneTx,omitempty"`
	FloodTx    int     `json:"floodTx,omitempty"`
	Saving     float64 `json:"saving,omitempty"`
	Covered    bool    `json:"covered,omitempty"`

	// Phases is the per-phase cost breakdown of a distributed backbone run
	// (messages, deliveries, rounds, retransmits, wall time per paper
	// phase). Wall times are excluded from Canonical like WallNS.
	Phases []obs.Span `json:"phases,omitempty"`

	WallNS int64 `json:"wallNS"`

	// cancelled marks a row interrupted by context expiry mid-run; the
	// engine drops such rows instead of reporting them as failures.
	cancelled bool
}

// Canonical renders every deterministic field as one line. Two runs of the
// same spec agree scenario-for-scenario exactly when their canonical lines
// are equal; cmd/bench compares digests of these to prove worker-count
// independence.
func (r *Result) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%g|%d|", r.Index, r.Size, r.Degree, r.Seed)
	if r.Topology != "" {
		fmt.Fprintf(&b, "topo=%s|", r.Topology)
	}
	fmt.Fprintf(&b, "%s|", r.Workload)
	fmt.Fprintf(&b, "err=%s|fail=%s|", r.Err, r.Failure)
	fmt.Fprintf(&b, "e=%d,b=%d,m=%d,a=%d,s=%d,v=%t,r=%g,c=%t,msg=%d,rnd=%d,drop=%d,rtx=%d|",
		r.Edges, r.Backbone, r.MIS, r.Additional, r.SpannerEdges, r.Valid, r.Ratio,
		r.Converged, r.Messages, r.Rounds, r.Dropped, r.Retransmits)
	fmt.Fprintf(&b, "p=%d,wt=%g,at=%g,wg=%g,ag=%g,ok=%t|",
		r.Pairs, r.WorstTopo, r.AvgTopo, r.WorstGeo, r.AvgGeo, r.BoundsOK)
	fmt.Fprintf(&b, "rel=%d,btx=%d,ftx=%d,sav=%g,cov=%t|",
		r.RelaySize, r.BackboneTx, r.FloodTx, r.Saving, r.Covered)
	fmt.Fprintf(&b, "ph=%s", obs.CanonicalSpans(r.Phases))
	return b.String()
}

// Report is the outcome of a Run or RunRange.
type Report struct {
	Scenarios int `json:"scenarios"`
	Networks  int `json:"networks"`
	Workers   int `json:"workers"`
	Failed    int `json:"failed"`

	WallNS     int64  `json:"wallNS"`
	AllocBytes uint64 `json:"allocBytes"`
	Mallocs    uint64 `json:"mallocs"`

	Results []Result `json:"results"`
	// Aggregates summarizes each workload's metrics over its successful
	// scenarios, keyed "<workload label>/<metric>".
	Aggregates map[string]stats.Summary `json:"aggregates"`
}

// Finalize derives Failed and Aggregates from Results. The engines call it
// internally; external assemblers (the fleet coordinator merging shard rows
// back into one report) call it after filling Results in index order so the
// merged report carries the same derived fields — and therefore the same
// Canonical and Digest — as a local run.
func (r *Report) Finalize() { r.finish() }

// finish derives Failed and Aggregates from Results.
func (r *Report) finish() {
	samples := map[string][]float64{}
	add := func(label, metric string, v float64) {
		k := label + "/" + metric
		samples[k] = append(samples[k], v)
	}
	r.Failed = 0
	for i := range r.Results {
		res := &r.Results[i]
		if res.Err != "" {
			r.Failed++
			continue
		}
		// Topology-axis sweeps aggregate per (topology, workload) so scene
		// families stay comparable; legacy keys are unchanged.
		label := res.Workload
		if res.Topology != "" {
			label = res.Topology + "/" + res.Workload
		}
		add(label, "wallMS", float64(res.WallNS)/1e6)
		if res.Backbone > 0 {
			add(label, "ratio", res.Ratio)
		}
		if res.Messages > 0 {
			add(label, "messages", float64(res.Messages))
		}
		if res.Rounds > 0 {
			add(label, "rounds", float64(res.Rounds))
		}
		if res.Pairs > 0 {
			add(label, "avgTopo", res.AvgTopo)
		}
		if res.FloodTx > 0 {
			add(label, "saving", res.Saving)
		}
		for _, sp := range res.Phases {
			if sp.Messages > 0 {
				add(label, "phase:"+sp.Name+"/messages", float64(sp.Messages))
			}
		}
	}
	r.Aggregates = make(map[string]stats.Summary, len(samples))
	for k, v := range samples {
		r.Aggregates[k] = stats.Summarize(v)
	}
}

// Canonical concatenates the per-scenario canonical lines in index order.
func (r *Report) Canonical() string {
	var b strings.Builder
	for i := range r.Results {
		b.WriteString(r.Results[i].Canonical())
		b.WriteByte('\n')
	}
	return b.String()
}

// Digest is the SHA-256 of Canonical: a compact per-run fingerprint equal
// across worker counts whenever the scenario results are.
func (r *Report) Digest() string {
	sum := sha256.Sum256([]byte(r.Canonical()))
	return hex.EncodeToString(sum[:])
}
