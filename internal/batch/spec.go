// Package batch is the sharded batch-run engine: it executes a declarative
// sweep — sizes × densities × seeds × workloads, optionally fault-injected —
// across worker goroutines and streams per-scenario results plus aggregate
// statistics.
//
// Large-scale evaluation of UDG backbone constructions is how the
// literature compares algorithms (sweeps over size, density and seed
// grids), and before this package every sweep in the repository ran
// scenarios one at a time through its own ad-hoc loop, regenerating the
// topology and re-running the construction for every measurement taken on
// it. The engine fixes both costs:
//
//   - Sharding: scenarios are dispatched to workers by a deterministic
//     scenario index. Every scenario is a pure function of the spec, so the
//     result array is identical — byte for byte under Report.Canonical —
//     regardless of the worker count.
//   - Shared subcomputations: scenarios over the same (size, degree, seed)
//     cell share one generated network, one centralized construction per
//     algorithm and one distributed table-building run, each computed once
//     behind a sync.Once instead of once per scenario.
//   - Pooled hot paths: udg.BuildGraph grid scratch and simnet message
//     queues are recycled through sync.Pools, cutting steady-state
//     allocations of the generate/construct loop.
//
// Run and RunRange (one index range, for the fleet) share one executor, so
// a sweep row is scheduled the same way whichever entry point runs it.
package batch

import (
	"fmt"
	"math"
	"strings"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// Kind names a workload: the measurement taken on a network cell.
type Kind string

// Workload kinds.
const (
	// Backbone runs a WCDS construction (Algorithm I or II; centralized,
	// sync or async; optionally fault-injected and reliable).
	Backbone Kind = "backbone"
	// Dilation runs the centralized construction and measures spanner
	// dilation over sampled pairs.
	Dilation Kind = "dilation"
	// Broadcast builds the backbone with routing tables and compares a
	// backbone broadcast from Source against a blind flood.
	Broadcast Kind = "broadcast"
)

// Workload describes one measurement applied to every network cell of the
// sweep. The zero value of each field selects the documented default.
type Workload struct {
	// Kind selects the measurement (default Backbone).
	Kind Kind `json:"kind,omitempty"`
	// Algorithm names a registered construction (default "II"; Backbone
	// and Dilation accept any algo.Names() entry, Broadcast is II-only).
	// Algorithms without a distributed protocol run centralized only.
	Algorithm string `json:"algorithm,omitempty"`
	// WeightSeed seeds the per-node weight vector of weighted algorithms
	// (0 = unit weights; rejected for unweighted algorithms).
	WeightSeed int64 `json:"weightSeed,omitempty"`
	// Mode is "centralized" (default), "sync", "async" or "event"
	// (Backbone only). For distributed runs it is the same enum as Engine;
	// setting either is enough, setting both to different values is an
	// error.
	Mode string `json:"mode,omitempty"`
	// Engine selects the simulation engine of a distributed run: "sync",
	// "async" or "event". Normalization keeps Mode and Engine equal for
	// distributed workloads; "" with a centralized Mode stays "".
	Engine string `json:"engine,omitempty"`
	// Selection is "deferred" (default) or "eager" (distributed Algorithm
	// II only).
	Selection string `json:"selection,omitempty"`
	// ScheduleSeed seeds the per-link scramble of the delivery schedule.
	// Engine "async" always runs under it (seed 0 by default), so each
	// seed replays exactly; engine "event" scrambles only for a non-zero
	// seed (its native FIFO schedule is already deterministic); engine
	// "sync" ignores it.
	ScheduleSeed int64 `json:"scheduleSeed,omitempty"`
	// Faults injects a fault plan into distributed backbone runs.
	Faults *simnet.FaultPlan `json:"faults,omitempty"`
	// Reliable wraps distributed runs in the ack/retransmit layer.
	Reliable bool `json:"reliable,omitempty"`
	// MaxRetries overrides the reliable layer's retry budget (0 = default).
	MaxRetries int `json:"maxRetries,omitempty"`
	// MaxRounds overrides the engine quiescence budget (0 = default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Pairs is the dilation sample size (Dilation; <= 0 means all pairs).
	Pairs int `json:"pairs,omitempty"`
	// SampleSeed seeds dilation pair sampling.
	SampleSeed int64 `json:"sampleSeed,omitempty"`
	// Source is the broadcast origin node (Broadcast).
	Source int `json:"source,omitempty"`
}

// normalize defaults and canonicalises the enum fields in place.
func (w *Workload) normalize(i int) error {
	switch w.Kind {
	case "", Backbone:
		w.Kind = Backbone
	case Dilation, Broadcast:
	default:
		return fmt.Errorf("batch: workload %d: unknown kind %q", i, w.Kind)
	}
	if w.Algorithm == "" {
		w.Algorithm = "II"
	}
	construction, ok := algo.Lookup(w.Algorithm)
	if !ok {
		return fmt.Errorf("batch: workload %d: unknown algorithm %q (want %s)", i, w.Algorithm, algo.NamesString())
	}
	w.Algorithm = construction.Name
	if w.Kind == Broadcast && construction.Name != "II" {
		return fmt.Errorf("batch: workload %d: broadcast workloads support algorithm II only (got %q)", i, w.Algorithm)
	}
	if w.WeightSeed != 0 && !construction.Caps.Weighted {
		return fmt.Errorf("batch: workload %d: weightSeed applies to weighted algorithms only (got %q)", i, w.Algorithm)
	}
	if w.Kind == Dilation && construction.Kind == algo.KindDS {
		return fmt.Errorf("batch: workload %d: dilation is undefined for %q: a plain dominating set's weakly-induced spanner need not be connected", i, w.Algorithm)
	}
	mode, engine, err := simnet.NormalizeEngine(w.Mode, w.Engine)
	if err != nil {
		return fmt.Errorf("batch: workload %d: %w", i, err)
	}
	w.Mode, w.Engine = mode, engine
	if w.Mode != "centralized" && !construction.Caps.Distributed {
		return fmt.Errorf("batch: workload %d: algorithm %q has no distributed protocol (want mode centralized; distributed algorithms: %s)",
			i, w.Algorithm, strings.Join(algo.DistributedNames(), ", "))
	}
	switch strings.ToLower(w.Selection) {
	case "", "deferred":
		w.Selection = "deferred"
	case "eager":
		w.Selection = "eager"
	default:
		return fmt.Errorf("batch: workload %d: unknown selection %q (want deferred or eager)", i, w.Selection)
	}
	if w.Faults != nil && w.Faults.Empty() {
		w.Faults = nil
	}
	faulty := w.Faults != nil || w.Reliable || w.MaxRetries != 0 || w.MaxRounds != 0
	if w.Kind == Backbone && faulty && w.Mode == "centralized" {
		return fmt.Errorf("batch: workload %d: faults/reliable/maxRetries/maxRounds require a distributed mode (sync, async or event)", i)
	}
	if w.Kind != Backbone && faulty {
		return fmt.Errorf("batch: workload %d: faults/reliable budgets apply to backbone workloads only", i)
	}
	if w.MaxRetries < 0 || w.MaxRounds < 0 {
		return fmt.Errorf("batch: workload %d: negative budget", i)
	}
	if w.Source < 0 {
		return fmt.Errorf("batch: workload %d: source %d must be non-negative", i, w.Source)
	}
	return nil
}

// label renders the workload as a short deterministic tag for result rows.
func (w *Workload) label() string {
	switch w.Kind {
	case Dilation:
		tag := fmt.Sprintf("dilation-%s-p%d", w.Algorithm, w.Pairs)
		if w.WeightSeed != 0 {
			tag += fmt.Sprintf("-w%d", w.WeightSeed)
		}
		return tag
	case Broadcast:
		return fmt.Sprintf("broadcast-src%d", w.Source)
	default:
		tag := fmt.Sprintf("backbone-%s-%s", w.Algorithm, w.Mode)
		if w.WeightSeed != 0 {
			tag += fmt.Sprintf("-w%d", w.WeightSeed)
		}
		if w.Faults != nil {
			tag += "-faulty"
		}
		if w.Reliable {
			tag += "-reliable"
		}
		return tag
	}
}

// Spec is a declarative sweep: the cartesian product of Sizes × Degrees ×
// Seeds × Topologies defines the network cells, and every Workload runs
// once per cell. Scenario i of the expansion is sizes-major,
// workloads-minor:
//
//	index = (((si·|Degrees| + di)·|Seeds| + ki)·|Topologies| + ti)·|Workloads| + wi
//
// An absent Topologies axis means one implicit uniform topology — the
// pre-topology expansion, index for index.
type Spec struct {
	// Sizes lists node counts.
	Sizes []int `json:"sizes"`
	// Degrees lists target average degrees.
	Degrees []float64 `json:"degrees"`
	// Seeds lists network generation seeds.
	Seeds []int64 `json:"seeds"`
	// Topologies lists the scene families swept (default: the uniform
	// square). Left nil when absent so legacy specs keep their exact JSON
	// form (and cache keys).
	Topologies []udg.Topology `json:"topologies,omitempty"`
	// Workloads lists the measurements taken on every cell (default: one
	// centralized Algorithm II backbone).
	Workloads []Workload `json:"workloads,omitempty"`
}

// Scenario is one expanded unit of work.
type Scenario struct {
	Index    int
	Size     int
	Degree   float64
	Seed     int64
	Topology int // index into Spec.Topologies (0 when the axis is absent)
	Workload int // index into Spec.Workloads
	Net      int // index of the (size, degree, seed, topology) network cell
}

// Validate normalizes the workloads in place and checks every axis. It
// must be called (directly or via Expand) before running the spec.
func (s *Spec) Validate() error {
	if len(s.Sizes) == 0 {
		return fmt.Errorf("batch: no sizes given")
	}
	minSize := s.Sizes[0]
	for _, n := range s.Sizes {
		if n <= 0 {
			return fmt.Errorf("batch: size %d must be positive", n)
		}
		minSize = min(minSize, n)
	}
	if len(s.Degrees) == 0 {
		return fmt.Errorf("batch: no degrees given")
	}
	for _, d := range s.Degrees {
		if !(d > 0) || math.IsInf(d, 0) {
			return fmt.Errorf("batch: degree %v must be positive and finite", d)
		}
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("batch: no seeds given")
	}
	for i := range s.Topologies {
		if err := s.Topologies[i].Normalize(); err != nil {
			return fmt.Errorf("batch: topology %d: %v", i, err)
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []Workload{{}}
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if err := w.normalize(i); err != nil {
			return err
		}
		if w.Kind == Broadcast && w.Source >= minSize {
			return fmt.Errorf("batch: workload %d: broadcast source %d out of range for size %d", i, w.Source, minSize)
		}
		if w.Faults != nil {
			if err := w.Faults.Validate(minSize); err != nil {
				return fmt.Errorf("batch: workload %d: %v", i, err)
			}
		}
	}
	return nil
}

// numTopologies returns the topology-axis length (1 for the implicit
// uniform topology of a legacy spec).
func (s *Spec) numTopologies() int {
	if len(s.Topologies) == 0 {
		return 1
	}
	return len(s.Topologies)
}

// NumScenarios returns the expansion size without expanding.
func (s *Spec) NumScenarios() int {
	w := len(s.Workloads)
	if w == 0 {
		w = 1
	}
	return len(s.Sizes) * len(s.Degrees) * len(s.Seeds) * s.numTopologies() * w
}

// NumNetworks returns the number of distinct network cells.
func (s *Spec) NumNetworks() int {
	return len(s.Sizes) * len(s.Degrees) * len(s.Seeds) * s.numTopologies()
}

// Expand validates the spec and returns the deterministic scenario list.
func (s *Spec) Expand() ([]Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scens := make([]Scenario, 0, s.NumScenarios())
	net := 0
	for _, size := range s.Sizes {
		for _, deg := range s.Degrees {
			for _, seed := range s.Seeds {
				for ti := 0; ti < s.numTopologies(); ti++ {
					for wi := range s.Workloads {
						scens = append(scens, Scenario{
							Index:    len(scens),
							Size:     size,
							Degree:   deg,
							Seed:     seed,
							Topology: ti,
							Workload: wi,
							Net:      net,
						})
					}
					net++
				}
			}
		}
	}
	return scens, nil
}

// topologyAt returns the descriptor of topology index ti (the zero-value
// uniform descriptor when the axis is absent) and its result label ("" for
// legacy specs, so pre-topology canonical lines are byte-identical).
func (s *Spec) topologyAt(ti int) (udg.Topology, string) {
	if len(s.Topologies) == 0 {
		return udg.Topology{}, ""
	}
	t := s.Topologies[ti]
	return t, t.Canonical()
}
