// Package wcdsnet is a Go implementation of the weakly-connected dominating
// set (WCDS) algorithms and position-less sparse spanners of
//
//	K. M. Alzoubi, P.-J. Wan, O. Frieder,
//	"Weakly-Connected Dominating Sets and Sparse Spanners in Wireless Ad
//	Hoc Networks", ICDCS 2003,
//
// together with the full substrate the paper's setting requires: a
// unit-disk-graph network model, a message-passing simulation kernel
// (synchronous and asynchronous), distributed leader election and spanning
// trees, spanner quality metrics, clusterhead routing, backbone broadcast,
// baseline constructions, exact small-instance solvers, and a mobility
// maintenance layer.
//
// This root package is the stable facade: it re-exports the types a
// downstream user needs and provides one-call helpers for the common
// workflows. The implementation lives in internal/ packages documented in
// DESIGN.md.
//
// # Quick start
//
//	nw, err := wcdsnet.GenerateNetwork(42, 500, 10) // seed, nodes, avg degree
//	if err != nil { ... }
//	res := wcdsnet.AlgorithmII(nw)                  // backbone + spanner
//	fmt.Println(len(res.Dominators), res.Spanner.M())
package wcdsnet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"

	"wcdsnet/internal/cluster"
	"wcdsnet/internal/discovery"
	"wcdsnet/internal/geom"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/route"
	"wcdsnet/internal/service"
	"wcdsnet/internal/session"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Point is a planar location.
	Point = geom.Point
	// Graph is an undirected graph over dense node indices.
	Graph = graph.Graph
	// Network is a wireless ad hoc network: positions, protocol IDs and
	// the induced unit-disk graph.
	Network = udg.Network
	// Topology is a spec-addressable scene descriptor {kind, params} over
	// the udg.Gen* generator family: "uniform", "clusters", "grid",
	// "corridor", "annulus", "quasi". The zero value means uniform. Parse
	// the CLI/wire form "kind:k=v,..." with ParseTopology and realise it
	// with GenerateNetworkTopology; the batch engine sweeps it as a fourth
	// spec axis and the service accepts it on generated network specs.
	Topology = udg.Topology
	// Result is a WCDS construction outcome: dominator sets plus the
	// weakly induced sparse spanner.
	Result = wcds.Result
	// Tables is the per-node neighbourhood knowledge accumulated by
	// distributed Algorithm II, consumed by the Router.
	Tables = wcds.Tables
	// SelectionMode picks Algorithm II's connector-selection semantics.
	SelectionMode = wcds.SelectionMode
	// DilationReport aggregates spanner dilation measurements.
	DilationReport = spanner.Report
	// Router performs clusterhead unicast over the spanner.
	Router = route.Router
	// BroadcastReport summarises a network-wide broadcast.
	BroadcastReport = route.BroadcastReport
	// Maintainer repairs the WCDS under mobility and churn.
	Maintainer = maintain.Maintainer
	// Partition is a radius-1 clustering around MIS dominators.
	Partition = cluster.Partition
	// NeighborTable is one node's HELLO-discovered neighbourhood.
	NeighborTable = discovery.Table
	// Service is the backbone-as-a-service daemon: worker pool, result
	// cache and metrics behind an http.Handler. See cmd/serve.
	Service = service.Service
	// ServiceOptions configures a Service (zero value = defaults).
	ServiceOptions = service.Options
	// FaultPlan is a declarative, serializable description of the faults a
	// distributed run injects: loss, duplication, delay, reordering,
	// crash/restart, partitions, link downtimes.
	FaultPlan = simnet.FaultPlan
	// CrashWindow takes one node offline for a logical-time interval.
	CrashWindow = simnet.CrashWindow
	// PartitionWindow splits the network for a logical-time interval.
	PartitionWindow = simnet.PartitionWindow
	// LinkWindow takes one (possibly directed) link down for an interval.
	LinkWindow = simnet.LinkWindow
	// ReliableOptions tunes the ack/retransmit layer (zero value =
	// defaults: 25 retries, capped-exponential backoff).
	ReliableOptions = reliable.Options
	// TopologySession is a long-lived streaming churn session: it owns a
	// live Network plus a Maintainer, applies epochs of SessionDeltas and
	// emits one SessionEvent per epoch. See OpenSession and cmd/chaos -churn.
	TopologySession = session.Session
	// SessionDelta is one topology change: {"op":"move"|"leave"|"join", ...}.
	SessionDelta = session.Delta
	// SessionEvent is the per-epoch repair result: changed roles, connector
	// diff and locality stats (nodes touched, repair radius).
	SessionEvent = session.Event
	// SessionConfig tunes one TopologySession (zero value = defaults).
	SessionConfig = session.Config
	// RepairPolicy selects a session's per-epoch repair strategy: the
	// zero value is the local worklist; Distributed runs the repair
	// protocol over the simnet under Faults with the escalation ladder
	// (bounded retries, local fallback, fixpoint rebuild) behind it.
	RepairPolicy = maintain.RepairPolicy
	// SessionRepairReport is the per-epoch repair field on SessionEvent:
	// mode, Converged/Degraded/Violated outcome, retry and escalation
	// counts.
	SessionRepairReport = session.RepairReport
)

// Delta operation names accepted by TopologySession.Apply and the service's
// NDJSON session stream.
const (
	DeltaJoin  = session.OpJoin
	DeltaLeave = session.OpLeave
	DeltaMove  = session.OpMove
)

// Algorithm II selection modes.
const (
	// Deferred is the canonical, schedule-independent mode (default).
	Deferred = wcds.Deferred
	// Eager follows the paper's event-driven prose literally.
	Eager = wcds.Eager
)

// GenerateNetwork samples a connected random network of n unit-radius nodes
// placed uniformly in a square sized for the target average degree, with
// protocol IDs drawn as a random permutation. n must be positive and
// avgDegree positive and finite; the service layer depends on these being
// rejected early with descriptive errors.
func GenerateNetwork(seed int64, n int, avgDegree float64) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wcdsnet: node count n=%d must be positive", n)
	}
	if math.IsNaN(avgDegree) || math.IsInf(avgDegree, 0) || avgDegree <= 0 {
		return nil, fmt.Errorf("wcdsnet: average degree %v must be positive and finite", avgDegree)
	}
	rng := rand.New(rand.NewSource(seed))
	nw, err := udg.GenConnectedAvgDegree(rng, n, avgDegree, 2000)
	if err != nil {
		return nil, fmt.Errorf("wcdsnet: %w", err)
	}
	return nw, nil
}

// ParseTopology parses the CLI/wire form "kind" or "kind:name=val,..."
// (e.g. "clusters:k=6,sigma=0.5") into a normalized Topology. Unknown kinds
// and parameters are rejected with errors enumerating the valid choices.
func ParseTopology(s string) (Topology, error) {
	return udg.ParseTopology(s)
}

// TopologyKinds lists the registered scene kinds ("uniform", "clusters",
// ...) — the values ParseTopology and the batch topologies axis accept.
func TopologyKinds() []string {
	return udg.Kinds()
}

// GenerateNetworkTopology is GenerateNetwork over an explicit scene
// descriptor: it samples a connected network of n unit-radius nodes from
// the topology's generator, sized for the target average degree, retrying
// disconnected draws. The zero-value Topology reproduces GenerateNetwork
// draw for draw.
func GenerateNetworkTopology(seed int64, n int, avgDegree float64, topo Topology) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wcdsnet: node count n=%d must be positive", n)
	}
	if math.IsNaN(avgDegree) || math.IsInf(avgDegree, 0) || avgDegree <= 0 {
		return nil, fmt.Errorf("wcdsnet: average degree %v must be positive and finite", avgDegree)
	}
	if err := topo.Normalize(); err != nil {
		return nil, fmt.Errorf("wcdsnet: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	nw, err := topo.GenConnected(rng, n, avgDegree, 2000)
	if err != nil {
		return nil, fmt.Errorf("wcdsnet: %w", err)
	}
	return nw, nil
}

// NewNetwork wraps explicit positions and unique IDs into a Network with
// unit radio radius. It rejects empty networks, mismatched pos/ids lengths,
// duplicate IDs and non-finite coordinates with descriptive errors.
func NewNetwork(pos []Point, ids []int) (*Network, error) {
	if len(pos) == 0 {
		return nil, fmt.Errorf("wcdsnet: empty network: no positions given")
	}
	if len(ids) != len(pos) {
		return nil, fmt.Errorf("wcdsnet: %d ids for %d positions", len(ids), len(pos))
	}
	for i, p := range pos {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("wcdsnet: position %d (%v, %v) is not finite", i, p.X, p.Y)
		}
	}
	nw, err := udg.New(pos, ids, 1)
	if err != nil {
		return nil, fmt.Errorf("wcdsnet: %w", err)
	}
	return nw, nil
}

// NewService starts the backbone-as-a-service layer: a worker pool, a
// content-addressed result cache and a metrics registry behind the handler
// returned by (*Service).Handler(). Stop it with Close. See cmd/serve for
// the daemon wrapper and README.md for the endpoint walkthrough.
func NewService(opts ServiceOptions) *Service {
	return service.New(opts)
}

// ServeHandler is a convenience for embedding the service into an existing
// http.ServeMux: it creates a Service with opts and returns its handler
// together with the Service for lifecycle control.
func ServeHandler(opts ServiceOptions) (http.Handler, *Service) {
	svc := service.New(opts)
	return svc.Handler(), svc
}

// AlgorithmIIWithTables is a distributed Algorithm II run (Deferred,
// synchronous) returning each node's accumulated routing tables as well.
// It stays a separate entry point: tables are a protocol byproduct the
// unified Run API deliberately does not expose.
func AlgorithmIIWithTables(nw *Network) (Result, []Tables, RunStats, error) {
	res, tabs, st, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred, wcds.EngineRunner(simnet.EngineSync))
	return res, tabs, RunStats{Stats: st}, err
}

// IsWCDS verifies that set is a weakly-connected dominating set of the
// network's unit-disk graph.
func IsWCDS(nw *Network, set []int) bool {
	return wcds.IsWCDS(nw.G, set)
}

// WeaklyInduced returns the subgraph of the network weakly induced by set:
// every node plus exactly the edges with at least one endpoint in set (the
// paper's "black edges").
func WeaklyInduced(nw *Network, set []int) *Graph {
	return wcds.WeaklyInduced(nw.G, set)
}

// MeasureDilation measures the spanner's topological and geometric dilation
// over sampled node pairs (Theorem 11's bounds are checked pair by pair).
// pairCount ≤ 0 measures every non-adjacent pair — quadratic, for moderate
// n only.
func MeasureDilation(nw *Network, res Result, pairCount int, seed int64) (DilationReport, error) {
	return MeasureDilationWorkers(nw, res, pairCount, seed, 0)
}

// MeasureDilationWorkers is MeasureDilation with an explicit measurement
// worker count (0 = GOMAXPROCS). The report is byte-identical for every
// worker count; see spanner.DilationN for the determinism argument.
func MeasureDilationWorkers(nw *Network, res Result, pairCount int, seed int64, workers int) (DilationReport, error) {
	return spanner.DilationN(context.Background(), nw.G, res.Spanner, nw.Weight(), spanner.Pairs(nw.G, pairCount, seed), workers)
}

// NewRouter builds the clusterhead unicast router from a distributed
// Algorithm II run (see AlgorithmIIWithTables).
func NewRouter(nw *Network, res Result, tables []Tables) (*Router, error) {
	return route.NewRouter(nw.G, nw.ID, res, tables)
}

// BackboneBroadcast floods a message from src with only the backbone's
// relay set retransmitting and reports the cost; compare with BlindFlood.
func BackboneBroadcast(nw *Network, res Result, tables []Tables, src int) BroadcastReport {
	relay := route.RelaySet(nw.G, nw.ID, res, tables)
	return route.Broadcast(nw.G, relay, src)
}

// BlindFlood floods a message with every node retransmitting once.
func BlindFlood(nw *Network, src int) BroadcastReport {
	return route.BlindFlood(nw.G, src)
}

// NewMaintainer starts WCDS maintenance over the network, which must be
// connected and a unit-disk graph of its positions; the network's
// positions are owned by the maintainer from then on.
func NewMaintainer(nw *Network) (*Maintainer, error) {
	return maintain.New(nw)
}

// sessionSeq numbers locally opened sessions (their Event.Session field).
var sessionSeq atomic.Int64

// OpenSession starts a streaming churn session over the (connected)
// network, which the session takes ownership of. Apply epochs of deltas
// with (*TopologySession).Apply or Stream, and release it with Close:
//
//	sess, err := wcdsnet.OpenSession(nw, wcdsnet.SessionConfig{})
//	if err != nil { ... }
//	defer sess.Close(nil)
//	node := 3
//	ev, err := sess.Apply(ctx, []wcdsnet.SessionDelta{
//		{Op: wcdsnet.DeltaMove, Node: &node, X: 0.5, Y: 0.5},
//	})
//
// The service layer exposes the same machinery over HTTP (POST /v1/session
// plus its NDJSON delta stream) with TTL and idle eviction managed server
// side; OpenSession is the embedded, single-process form.
func OpenSession(nw *Network, cfg SessionConfig) (*TopologySession, error) {
	id := fmt.Sprintf("local-%d", sessionSeq.Add(1))
	return session.New(id, nw, cfg)
}

// ClusterBy partitions the network into radius-1 clusters around the
// result's MIS dominators (the clustering application of Chen & Liestman
// the paper cites).
func ClusterBy(nw *Network, res Result) (Partition, error) {
	return cluster.ByClusterhead(nw.G, nw.ID, res.MISDominators)
}

// DiscoverNeighbors runs the HELLO-beacon discovery protocol with knowledge
// radius k (1 or 2) on the given engine and returns each node's discovered
// neighbourhood table. EngineAsync scrambles with seed 0.
func DiscoverNeighbors(nw *Network, k int, eng Engine) ([]NeighborTable, RunStats, error) {
	if !eng.Valid() {
		return nil, RunStats{}, fmt.Errorf("wcdsnet: unknown engine %v: %w", eng, ErrInvalidInput)
	}
	tabs, st, err := discovery.Run(nw.G, nw.ID, k, eng)
	return tabs, RunStats{Stats: st}, err
}
