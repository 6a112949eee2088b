// Package algo is the backbone-construction registry: every algorithm the
// repo can race — the paper's Algorithms I/II, the MIS-tree CDS companion,
// the greedy WCDS/CDS comparators, a weighted greedy dominating set and a
// Butenko-style prune-from-whole-graph CDS — registered under one name with
// declared capabilities. The facade Run, cmd/wcds -algo, the batch engine,
// the HTTP service, chaos and cmd/bench all resolve algorithm names here,
// so adding a Construction makes it reachable from every sweep surface at
// once.
package algo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"wcdsnet/internal/baseline"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/wcds"
)

// Kind classifies what structure a Construction produces, which determines
// the validity predicate applied to its output.
type Kind string

const (
	// KindWCDS marks weakly-connected dominating sets (validated with
	// wcds.IsWCDS).
	KindWCDS Kind = "wcds"
	// KindCDS marks connected dominating sets (validated with
	// baseline.IsCDS; every CDS is also a WCDS).
	KindCDS Kind = "cds"
	// KindDS marks plain dominating sets with no connectivity promise
	// (validated with mis.IsDominating).
	KindDS Kind = "ds"
)

// Caps declares what execution modes a Construction supports beyond the
// centralized reference every entry provides.
type Caps struct {
	// Distributed marks entries with a faithful message-passing protocol
	// (dispatchable through DistributedRun on any simnet engine).
	Distributed bool
	// Async marks distributed entries proven correct on the asynchronous
	// engines (async, event).
	Async bool
	// Weighted marks entries that consume per-node weights.
	Weighted bool
}

// Input is what a centralized construction runs on. Weights is consulted
// only by Weighted entries; nil means unit weights.
type Input struct {
	G       *graph.Graph
	IDs     []int
	Weights []float64
}

// Construction is one registered backbone algorithm.
type Construction struct {
	// Name is the canonical registry name ("I", "II", "greedy-wcds", ...).
	Name string
	// Aliases are additional accepted spellings, resolved by Lookup.
	Aliases []string
	// Summary is a one-line description for CLI/API listings.
	Summary string
	// Kind selects the validity predicate for the output.
	Kind Kind
	// Caps declares supported execution modes.
	Caps Caps
	// Run is the centralized construction.
	Run func(Input) (wcds.Result, error)
}

// Valid reports whether set is a correct output for this construction's
// kind on g: WCDS entries need weak connectivity, CDS entries induced
// connectivity, DS entries domination only.
func (c *Construction) Valid(g *graph.Graph, set []int) bool {
	switch c.Kind {
	case KindCDS:
		return baseline.IsCDS(g, set)
	case KindDS:
		if g.N() == 0 {
			return true
		}
		return len(set) > 0 && mis.IsDominating(g, set)
	default:
		return wcds.IsWCDS(g, set)
	}
}

// setResult wraps a bare dominator set as a wcds.Result with its weakly
// induced spanner, the shape every non-I/II comparator returns.
func setResult(g *graph.Graph, set []int, err error) (wcds.Result, error) {
	if err != nil {
		return wcds.Result{}, err
	}
	return wcds.Result{Dominators: set, Spanner: wcds.WeaklyInduced(g, set)}, nil
}

// registry holds every Construction in registration order; lookup maps
// lower-cased canonical names and aliases to entries.
var (
	registry []*Construction
	lookup   = map[string]*Construction{}
)

func register(c *Construction) {
	registry = append(registry, c)
	for _, name := range append([]string{c.Name}, c.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := lookup[key]; dup {
			panic("algo: duplicate registration for " + name)
		}
		lookup[key] = c
	}
}

func init() {
	register(&Construction{
		Name:    "I",
		Aliases: []string{"1", "algo1", "algoi"},
		Summary: "Algorithm I: leader election + spanning tree + level-ranked MIS, |WCDS| <= 5*opt",
		Kind:    KindWCDS,
		Caps:    Caps{Distributed: true, Async: true},
		Run: func(in Input) (wcds.Result, error) {
			return wcds.Algo1Centralized(in.G, in.IDs), nil
		},
	})
	register(&Construction{
		Name:    "II",
		Aliases: []string{"2", "algo2", "algoii"},
		Summary: "Algorithm II: ID-ranked MIS + connectors, fully localized, dilation-3 spanner",
		Kind:    KindWCDS,
		Caps:    Caps{Distributed: true, Async: true},
		Run: func(in Input) (wcds.Result, error) {
			return wcds.Algo2Centralized(in.G, in.IDs), nil
		},
	})
	register(&Construction{
		Name:    "mis-cds",
		Aliases: []string{"miscds", "mis-tree"},
		Summary: "MIS-tree CDS: greedy MIS spliced into a tree, the paper's CDS comparator",
		Kind:    KindCDS,
		Run: func(in Input) (wcds.Result, error) {
			set, err := baseline.MISTreeCDS(in.G, in.IDs)
			return setResult(in.G, set, err)
		},
	})
	register(&Construction{
		Name:    "greedy-wcds",
		Summary: "Chen & Liestman coverage greedy WCDS, O(ln Delta) approximation",
		Kind:    KindWCDS,
		Run: func(in Input) (wcds.Result, error) {
			set, err := baseline.GreedyWCDS(in.G)
			return setResult(in.G, set, err)
		},
	})
	register(&Construction{
		Name:    "greedy-cds",
		Summary: "Guha & Khuller coverage greedy CDS",
		Kind:    KindCDS,
		Run: func(in Input) (wcds.Result, error) {
			set, err := baseline.GreedyCDS(in.G)
			return setResult(in.G, set, err)
		},
	})
	register(&Construction{
		Name:    "weighted-ds",
		Aliases: []string{"mwds"},
		Summary: "weighted greedy dominating set minimizing total node weight (battery/cost axis)",
		Kind:    KindDS,
		Caps:    Caps{Weighted: true},
		Run: func(in Input) (wcds.Result, error) {
			w := in.Weights
			if w == nil {
				w = UnitWeights(in.G.N())
			}
			set, err := baseline.GreedyWeightedDS(in.G, w)
			return setResult(in.G, set, err)
		},
	})
	register(&Construction{
		Name:    "prune-cds",
		Aliases: []string{"butenko"},
		Summary: "Butenko-style pruning CDS: start from V, delete while dominating + connected",
		Kind:    KindCDS,
		Run: func(in Input) (wcds.Result, error) {
			set, err := baseline.PruneCDS(in.G)
			return setResult(in.G, set, err)
		},
	})
}

// Lookup resolves a name or alias (case-insensitive) to its Construction.
func Lookup(name string) (*Construction, bool) {
	c, ok := lookup[strings.ToLower(strings.TrimSpace(name))]
	return c, ok
}

// Names returns the canonical names in registration order: the paper's
// algorithms first, then the comparators.
func Names() []string {
	out := make([]string, len(registry))
	for i, c := range registry {
		out[i] = c.Name
	}
	return out
}

// NamesString renders the canonical names for error messages: "I, II,
// mis-cds, ...".
func NamesString() string { return strings.Join(Names(), ", ") }

// All returns every registered Construction in registration order.
func All() []*Construction {
	return append([]*Construction(nil), registry...)
}

// DistributedNames returns the canonical names with a distributed protocol,
// sorted.
func DistributedNames() []string {
	var out []string
	for _, c := range registry {
		if c.Caps.Distributed {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// UnitWeights returns n weights of 1.0 — the degenerate weighting under
// which the weighted greedy reduces to the coverage greedy.
func UnitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Weights derives the per-node weight vector for a run: seed 0 means unit
// weights; any other seed draws uniformly from [1, 2) with a dedicated RNG,
// so weight assignment is independent of topology generation and stable
// across worker counts.
func Weights(seed int64, n int) []float64 {
	if seed == 0 {
		return UnitWeights(n)
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	return w
}

// DistributedRun dispatches a distributed protocol run for a registered
// entry: the I/II protocol switch, with optional zero-knowledge discovery.
// Its one caller is the batch executor, through which the facade, sweeps,
// the service and the chaos harness all run. Entries without
// Caps.Distributed return an error.
func DistributedRun(c *Construction, g *graph.Graph, ids []int, mode wcds.SelectionMode, zeroKnowledge bool, run wcds.Runner) (wcds.Result, simnet.Stats, error) {
	switch {
	case c == nil:
		return wcds.Result{}, simnet.Stats{}, fmt.Errorf("algo: nil construction")
	case !c.Caps.Distributed:
		return wcds.Result{}, simnet.Stats{}, fmt.Errorf("algo: %s has no distributed protocol (distributed entries: %s)", c.Name, strings.Join(DistributedNames(), ", "))
	case c.Name == "I" && zeroKnowledge:
		return wcds.Algo1ZeroKnowledge(g, ids, run)
	case c.Name == "I":
		return wcds.Algo1Distributed(g, ids, run)
	case zeroKnowledge:
		return wcds.Algo2ZeroKnowledge(g, ids, mode, run)
	default:
		return wcds.Algo2Distributed(g, ids, mode, run)
	}
}
