package udg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"wcdsnet/internal/geom"
)

// Topology is a spec-addressable scene descriptor: a generator kind plus
// its numeric parameters. Together with a node count, a target average
// degree and an RNG seed it names one reproducible network, which makes
// scene families first-class sweep axes (batch.Spec.Topologies) and wire
// values (/v1/backbone, /v1/batch).
//
// The zero value means "uniform" — the paper's default square scene — so
// legacy requests that never mention topologies keep their exact meaning.
type Topology struct {
	// Kind names the generator; see Kinds. Empty means "uniform".
	Kind string `json:"kind"`
	// Params overrides the kind's named parameters (see kindSpecs for the
	// accepted names and defaults). Unknown names are rejected.
	Params map[string]float64 `json:"params,omitempty"`
}

// kindSpec declares one topology kind: its tunable parameters with
// defaults, and a positivity constraint applied to every parameter.
type kindSpec struct {
	params []paramSpec
	doc    string
}

type paramSpec struct {
	name string
	def  float64
	min  float64 // inclusive lower bound
}

// kindSpecs is the topology-kind registry. Order here fixes Kinds() order.
var kindOrder = []string{"uniform", "clusters", "grid", "corridor", "annulus", "quasi"}

var kindSpecs = map[string]kindSpec{
	"uniform": {
		doc: "uniform placement in a square sized for the target degree",
	},
	"clusters": {
		doc: "k Gaussian clusters of spread sigma in the square",
		params: []paramSpec{
			{name: "k", def: 4, min: 1},
			{name: "sigma", def: 0.75, min: 0.01},
		},
	},
	"grid": {
		doc: "jittered grid spaced for the target degree (jitter is a fraction of the spacing)",
		params: []paramSpec{
			{name: "jitter", def: 0.25, min: 0},
		},
	},
	"corridor": {
		doc: "L-shaped corridor of the given width, arms sized for the target degree",
		params: []paramSpec{
			{name: "width", def: 2, min: 0.5},
		},
	},
	"annulus": {
		doc: "ring with the given inner radius, outer radius sized for the target degree",
		params: []paramSpec{
			{name: "inner", def: 2, min: 0},
		},
	},
	"quasi": {
		doc: "quasi-unit-disk links: sure below rmin, coin-flip p up to rmax",
		params: []paramSpec{
			{name: "rmin", def: 0.6, min: 0.05},
			{name: "rmax", def: 1, min: 0.05},
			{name: "p", def: 0.5, min: 0},
		},
	},
}

// Kinds returns the registered topology kinds in presentation order.
func Kinds() []string { return append([]string(nil), kindOrder...) }

// KindsString renders the kinds for error messages: "uniform, clusters, ...".
func KindsString() string { return strings.Join(kindOrder, ", ") }

// Normalize validates the descriptor in place: empty kind becomes
// "uniform", the kind must be registered, parameter names must belong to
// the kind and parameter values must respect their lower bounds. Errors
// enumerate the valid kinds / parameter names.
func (t *Topology) Normalize() error {
	if t.Kind == "" {
		t.Kind = "uniform"
	}
	t.Kind = strings.ToLower(t.Kind)
	spec, ok := kindSpecs[t.Kind]
	if !ok {
		return fmt.Errorf("unknown topology kind %q (want %s)", t.Kind, KindsString())
	}
	for name, v := range t.Params {
		ps := spec.param(name)
		if ps == nil {
			return fmt.Errorf("unknown parameter %q for topology %q (want %s)", name, t.Kind, spec.paramNames())
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < ps.min {
			return fmt.Errorf("topology %q parameter %s=%v must be a finite number >= %g", t.Kind, name, v, ps.min)
		}
	}
	if t.Kind == "quasi" && t.param("rmax") < t.param("rmin") {
		return fmt.Errorf("topology %q needs rmax >= rmin (got rmin=%g rmax=%g)", t.Kind, t.param("rmin"), t.param("rmax"))
	}
	return nil
}

func (s kindSpec) param(name string) *paramSpec {
	for i := range s.params {
		if s.params[i].name == name {
			return &s.params[i]
		}
	}
	return nil
}

func (s kindSpec) paramNames() string {
	if len(s.params) == 0 {
		return "no parameters"
	}
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

// param returns the effective value of a parameter: the override when set,
// the kind default otherwise.
func (t Topology) param(name string) float64 {
	if v, ok := t.Params[name]; ok {
		return v
	}
	if ps := kindSpecs[t.Kind].param(name); ps != nil {
		return ps.def
	}
	return 0
}

// Canonical renders the descriptor with every effective parameter value
// materialized, in sorted parameter order — e.g.
// "clusters:k=4,sigma=0.75". Two descriptors with equal Canonical strings
// generate identical scenes, so this is the cache-key and digest form.
// Call Normalize first.
func (t Topology) Canonical() string {
	kind := t.Kind
	if kind == "" {
		kind = "uniform"
	}
	spec := kindSpecs[kind]
	if len(spec.params) == 0 {
		return kind
	}
	names := make([]string, len(spec.params))
	for i, p := range spec.params {
		names[i] = p.name
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(kind)
	for i, name := range names {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(t.param(name), 'g', -1, 64))
	}
	return b.String()
}

func (t Topology) String() string { return t.Canonical() }

// ParseTopology parses the CLI form "kind" or "kind:name=value,name=value"
// and normalizes the result.
func ParseTopology(s string) (Topology, error) {
	var t Topology
	kind, rest, hasParams := strings.Cut(strings.TrimSpace(s), ":")
	t.Kind = kind
	if hasParams && rest != "" {
		t.Params = map[string]float64{}
		for _, kv := range strings.Split(rest, ",") {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Topology{}, fmt.Errorf("topology parameter %q is not name=value", kv)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return Topology{}, fmt.Errorf("topology parameter %q: %v", kv, err)
			}
			t.Params[strings.TrimSpace(name)] = f
		}
	}
	if err := t.Normalize(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Generate draws one scene of n nodes from the descriptor, with region
// extents derived from the target average degree the same way
// SideForAvgDegree sizes the uniform square (each unit-radius node covers
// area π, so the region area is (n-1)·π/deg). Call Normalize first; the
// scene is not necessarily connected — see GenConnected.
func (t Topology) Generate(rng *rand.Rand, n int, avgDegree float64) *Network {
	if t.Kind != "quasi" {
		return mustNew(t.draw(rng, n, avgDegree))
	}
	rMin, rMax, p := t.param("rmin"), t.param("rmax"), t.param("p")
	// The expected link area per node is π·(rmin² + p·(rmax²−rmin²));
	// size the square so the expected degree still hits the target.
	rEff := math.Sqrt(rMin*rMin + p*(rMax*rMax-rMin*rMin))
	qSide := 1.0
	if n >= 2 && avgDegree > 0 {
		qSide = math.Sqrt(float64(n-1) * math.Pi * rEff * rEff / avgDegree)
	}
	return GenQuasi(rng, n, qSide, rMin, rMax, p)
}

// draw places the nodes and IDs of one unit-disk scene; every kind but
// quasi is one.
func (t Topology) draw(rng *rand.Rand, n int, avgDegree float64) ([]geom.Point, []int) {
	side := SideForAvgDegree(n, avgDegree)
	switch t.Kind {
	case "clusters":
		return drawClusters(rng, n, int(t.param("k")), side, t.param("sigma"))
	case "grid":
		return drawGridN(rng, n, avgDegree, t.param("jitter"))
	case "corridor":
		width := t.param("width")
		area := regionArea(n, avgDegree)
		// Corridor area = 2·armLen·width − width² (the corner square is
		// shared); solve for armLen.
		armLen := (area + width*width) / (2 * width)
		return drawCorridor(rng, n, armLen, width)
	case "annulus":
		inner := t.param("inner")
		// Ring area π·(outer²−inner²) matches the target region area.
		outer := math.Sqrt(inner*inner + regionArea(n, avgDegree)/math.Pi)
		return drawAnnulus(rng, n, inner, outer)
	default: // uniform
		return drawUniform(rng, n, side)
	}
}

// GenConnected repeatedly draws from the descriptor until the graph is
// connected, up to maxTries attempts — the Topology-generic analogue of
// GenConnectedAvgDegree (for the uniform kind the two are draw-for-draw
// identical given the same rng state). Unit-disk kinds decide each draw
// on the cell grid and build only the kept scene; quasi's links are
// random draws themselves, so each of its attempts is a whole network.
func (t Topology) GenConnected(rng *rand.Rand, n int, avgDegree float64, maxTries int) (*Network, error) {
	var nw *Network
	if t.Kind == "quasi" {
		for try := 0; try < maxTries && nw == nil; try++ {
			if q := t.Generate(rng, n, avgDegree); q.G.Connected() {
				nw = q
			}
		}
	} else {
		nw = firstConnected(maxTries, func() ([]geom.Point, []int) { return t.draw(rng, n, avgDegree) })
	}
	if nw == nil {
		return nil, fmt.Errorf("udg: no connected %s instance with n=%d deg=%g in %d tries", t.Canonical(), n, avgDegree, maxTries)
	}
	return nw, nil
}

// regionArea is the placement area that gives n unit-radius nodes the
// target average degree: deg ≈ (n−1)·π/area.
func regionArea(n int, avgDegree float64) float64 {
	if n < 2 || avgDegree <= 0 {
		return 1
	}
	return float64(n-1) * math.Pi / avgDegree
}

// drawGridN places exactly n nodes on a near-square jittered grid whose
// spacing targets the average degree (π/spacing² − 1 ≈ deg for an infinite
// jitter-free grid), row-major in rows of ⌈√n⌉ nodes. jitterFrac scales
// the per-axis jitter relative to the spacing. Perturbed grids give
// near-worst-case regular packings.
func drawGridN(rng *rand.Rand, n int, avgDegree float64, jitterFrac float64) ([]geom.Point, []int) {
	if n == 0 {
		return nil, nil
	}
	if avgDegree <= 0 {
		avgDegree = 1
	}
	spacing := math.Sqrt(math.Pi / (avgDegree + 1))
	jitter := jitterFrac * spacing
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pos := make([]geom.Point, 0, n)
	for r := 0; len(pos) < n; r++ {
		for c := 0; c < cols && len(pos) < n; c++ {
			pos = append(pos, geom.Point{
				X: float64(c)*spacing + (rng.Float64()*2-1)*jitter,
				Y: float64(r)*spacing + (rng.Float64()*2-1)*jitter,
			})
		}
	}
	return pos, RandomIDs(rng, n)
}
