package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/route"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// Generate draws the connected network of a (topology, size, degree,
// seed) cell for sweeps and single requests alike. The zero topology is the
// legacy uniform path, kept verbatim so pre-topology specs reproduce their
// exact networks (and error strings) byte for byte.
func Generate(topo udg.Topology, size int, degree float64, seed int64) (*udg.Network, error) {
	const maxTries = 2000
	rng := rand.New(rand.NewSource(seed))
	if topo.Kind == "" {
		return udg.GenConnectedAvgDegree(rng, size, degree, maxTries)
	}
	return topo.GenConnected(rng, size, degree, maxTries)
}

// cell supplies what the jobs on one network share: a sweep's netMemo
// computes each part once per cell, a single job's scene directly. network
// must succeed before the other two are called.
type cell interface {
	network() (*udg.Network, error)
	centralized(c *algo.Construction, weightSeed int64) (wcds.Result, error)
	relays(ctx context.Context) ([]bool, error)
}

// scene is the cell of a single job on a network its caller built:
// nothing is shared, so nothing is memoized.
type scene struct{ nw *udg.Network }

func (s scene) network() (*udg.Network, error) { return s.nw, nil }

func (s scene) centralized(c *algo.Construction, weightSeed int64) (wcds.Result, error) {
	return construct(s.nw, c, weightSeed)
}

func (s scene) relays(ctx context.Context) ([]bool, error) { return relaySet(ctx, s.nw) }

// construct runs c's centralized construction on nw.
func construct(nw *udg.Network, c *algo.Construction, weightSeed int64) (wcds.Result, error) {
	in := algo.Input{G: nw.G, IDs: nw.ID}
	if c.Caps.Weighted {
		in.Weights = algo.Weights(weightSeed, nw.N())
	}
	return c.Run(in)
}

// relaySet builds Algorithm II with routing tables on the sync engine and
// derives the broadcast relay set from it.
func relaySet(ctx context.Context, nw *udg.Network) ([]bool, error) {
	res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred,
		wcds.EngineRunner(simnet.EngineSync, simnet.WithContext(ctx)))
	if err != nil {
		return nil, err
	}
	return route.RelaySet(nw.G, nw.ID, res, tables), nil
}

// netMemo holds the shared subcomputations of one (size, degree, seed,
// topology) network cell. Each is computed at most once per Run (or
// RunRange), no matter how many scenarios of the cell execute or which
// workers pick them up.
type netMemo struct {
	size   int
	degree float64
	seed   int64
	// topo is the cell's scene descriptor; the zero value marks a legacy
	// spec without a topology axis (implicit uniform, empty result label).
	topo      udg.Topology
	topoLabel string

	netOnce sync.Once
	nw      *udg.Network
	netErr  error

	// Centralized constructions, one per (algorithm, weight seed), each
	// behind its own sync.Once so distinct algorithms on the same cell
	// still build concurrently.
	centMu sync.Mutex
	cent   map[string]*centEntry

	// The broadcast relay set (shared by every broadcast source over the
	// cell).
	relayOnce sync.Once
	relay     []bool
	relayErr  error
}

type centEntry struct {
	once sync.Once
	res  wcds.Result
	err  error
}

func (m *netMemo) network() (*udg.Network, error) {
	m.netOnce.Do(func() { m.nw, m.netErr = Generate(m.topo, m.size, m.degree, m.seed) })
	return m.nw, m.netErr
}

func (m *netMemo) centralized(c *algo.Construction, weightSeed int64) (wcds.Result, error) {
	key := fmt.Sprintf("%s|%d", c.Name, weightSeed)
	m.centMu.Lock()
	e := m.cent[key]
	if e == nil {
		if m.cent == nil {
			m.cent = map[string]*centEntry{}
		}
		e = &centEntry{}
		m.cent[key] = e
	}
	m.centMu.Unlock()
	e.once.Do(func() { e.res, e.err = construct(m.nw, c, weightSeed) })
	return e.res, e.err
}

func (m *netMemo) relays(ctx context.Context) ([]bool, error) {
	m.relayOnce.Do(func() {
		// Every scenario of a Run shares one ctx, so memoizing under the
		// first caller's context is sound: a cancellation that interrupts
		// this construction would have interrupted every other consumer too.
		m.relay, m.relayErr = relaySet(ctx, m.nw)
		if m.relayErr != nil {
			m.relayErr = fmt.Errorf("batch: backbone construction failed: %w", m.relayErr)
		}
	})
	return m.relay, m.relayErr
}

// Options configures Run and RunRange.
type Options struct {
	// Workers is the shard count (<= 0 means GOMAXPROCS). The result set is
	// identical for every value; only wall time changes.
	Workers int
	// OnResult, when non-nil, streams each finished scenario as it
	// completes. Calls are serialized but arrive in completion order, not
	// index order; Report.Results is always index-ordered regardless.
	OnResult func(Result)
	// MeasureWorkers is the per-scenario dilation measurement parallelism
	// (spanner.DilationN). <= 0 means 1: the engine already parallelizes
	// across scenarios, so nesting source-level workers only helps when the
	// sweep has fewer scenarios than cores. Reports are byte-identical for
	// every value.
	MeasureWorkers int
}

// Run executes the whole sweep: the range executor over every scenario.
// Results are deterministic in layout and content for any worker count;
// see execute.
//
// On context cancellation Run stops dispatching, returns the completed
// results (compacted, still index-ordered) and reports ctx.Err().
func Run(ctx context.Context, spec *Spec, opts Options) (*Report, error) {
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return execute(ctx, spec, scens, opts)
}

// RunRange executes only the scenarios whose global index lies in [lo, hi)
// and returns a report whose Results carry their global indices. Rows are
// byte-identical (per-row Canonical) to the corresponding rows of a full
// Run of the same spec, so a coordinator can execute disjoint ranges on
// different processes and merge them back into a digest-identical report
// (see internal/fleet). Network memos are shared within the range exactly
// as Run shares them across the whole sweep.
func RunRange(ctx context.Context, spec *Spec, lo, hi int, opts Options) (*Report, error) {
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(scens) || lo >= hi {
		return nil, fmt.Errorf("batch: shard range [%d, %d) out of bounds for %d scenarios", lo, hi, len(scens))
	}
	return execute(ctx, spec, scens[lo:hi], opts)
}

// execute is the one sweep executor behind Run and RunRange. It runs scens
// across opts.Workers goroutines that pull positions from a shared atomic
// counter and write into a results array addressed by position, so the
// output is deterministic in layout for any worker count; scenario content
// is deterministic too, since every engine, async included, replays from
// the scenario's seeds. Report.Networks counts the network cells scens
// touch.
//
// On context cancellation it stops dispatching, returns the completed
// results (compacted, still in order) and reports ctx.Err().
func execute(ctx context.Context, spec *Spec, scens []Scenario, opts Options) (*Report, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(len(scens), 1))
	measureWorkers := opts.MeasureWorkers
	if measureWorkers <= 0 {
		measureWorkers = 1
	}

	memos := make([]*netMemo, spec.NumNetworks())
	networks := 0
	for _, sc := range scens {
		if memos[sc.Net] == nil {
			topo, label := spec.topologyAt(sc.Topology)
			memos[sc.Net] = &netMemo{size: sc.Size, degree: sc.Degree, seed: sc.Seed,
				topo: topo, topoLabel: label}
			networks++
		}
	}

	results := make([]Result, len(scens))
	done := make([]bool, len(scens))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var (
		next atomic.Int64
		cbMu sync.Mutex
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scens) || ctx.Err() != nil {
					return
				}
				sc := scens[i]
				res := runScenario(ctx, sc, &spec.Workloads[sc.Workload], memos[sc.Net], measureWorkers)
				if res.cancelled {
					// Mid-scenario cancellation: the row is neither a result
					// nor a failure — drop it and stop pulling work.
					return
				}
				results[i] = res
				done[i] = true
				if opts.OnResult != nil {
					cbMu.Lock()
					opts.OnResult(res)
					cbMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	runtime.ReadMemStats(&ms1)
	rep := &Report{
		Scenarios: len(scens),
		Networks:  networks,
		Workers:   workers,
		WallNS:    time.Since(start).Nanoseconds(),
		// TotalAlloc and Mallocs are monotone, so the deltas are exact for
		// the run (plus whatever unrelated goroutines allocate meanwhile).
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
	}
	if err := ctx.Err(); err != nil {
		for i, ok := range done {
			if ok {
				rep.Results = append(rep.Results, results[i])
			}
		}
		rep.finish()
		return rep, err
	}
	rep.Results = results
	rep.finish()
	return rep, nil
}

// runScenario executes one scenario, converting panics in measurement code
// into failed rows so a single bad cell cannot take down a sweep.
func runScenario(ctx context.Context, sc Scenario, w *Workload, memo *netMemo, measureWorkers int) (res Result) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Index: sc.Index, Size: sc.Size, Degree: sc.Degree, Seed: sc.Seed,
				Topology: memo.topoLabel, Workload: w.label(), Err: fmt.Sprintf("panic: %v", r)}
		}
		res.WallNS = time.Since(start).Nanoseconds()
	}()
	o := exec(ctx, w, memo, ExecOptions{MeasureWorkers: measureWorkers, Phases: true})
	return o.row(sc, w, memo.topoLabel)
}

// isCancel reports whether err is a context expiry (from any layer).
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ErrClass says how to read a job's error. A cancelled job (its context
// expired mid-job) is neither data nor failure; a fault-plan failure (a
// fault-injected distributed run that stalled or blew its budget) is a
// detectable outcome, recorded as data; every other error is hard: an
// unrealisable scene, a construction outside its contract, an engine error
// on a lossless run, a measurement on a disconnected scene.
type ErrClass uint8

// Error classes.
const (
	NoError ErrClass = iota
	Cancelled
	FaultFailure
	HardError
)

// Outcome is everything one job measured. Which groups are filled depends
// on the workload kind; the others stay zero.
type Outcome struct {
	Net          *udg.Network       // nil if it could not be generated
	Construction *algo.Construction // the registry entry the workload names
	// Built reports that the backbone was constructed (Backbone and
	// Dilation); a dilation measurement can still fail after it.
	Built  bool
	Result wcds.Result
	// Stats and Phases are a distributed run's costs, kept when it fails;
	// Phases is nil unless the caller asked for it (ExecOptions.Phases).
	Stats  simnet.Stats
	Phases []obs.Span
	// Dilation measures the spanner over the workload's pairs; Backbone
	// and Flood compare the relay broadcast from its Source with a blind
	// flood.
	Dilation        spanner.Report
	Backbone, Flood route.BroadcastReport
	// Err is the job's error and Class how to read it.
	Err   error
	Class ErrClass
}

// fail records err, classed as a cancellation, as a fault-plan failure
// when faultRun is set, or else as a hard error.
func (o *Outcome) fail(err error, faultRun bool) {
	o.Err = err
	switch {
	case isCancel(err):
		o.Class = Cancelled
	case faultRun:
		o.Class = FaultFailure
	default:
		o.Class = HardError
	}
}

// Valid applies the construction's own predicate to the backbone; false
// when none was built. It is not cached: each call verifies anew, so only
// the callers that report validity pay for it.
func (o *Outcome) Valid() bool {
	return o.Built && o.Construction.Valid(o.Net.G, o.Result.Dominators)
}

// SpannerEdges returns the edge count of the backbone's spanner (0 without
// one).
func (o *Outcome) SpannerEdges() int {
	if o.Result.Spanner == nil {
		return 0
	}
	return o.Result.Spanner.M()
}

// Saving returns the share of blind-flood transmissions the relay
// broadcast saves.
func (o *Outcome) Saving() float64 {
	if o.Flood.Transmissions == 0 {
		return 0
	}
	return 1 - float64(o.Backbone.Transmissions)/float64(o.Flood.Transmissions)
}

// ExecOptions are the caller's arguments to one Exec call, not part of the
// job: none has a wire form, so none reaches a sweep or a cache key.
type ExecOptions struct {
	MeasureWorkers int                   // to spanner.DilationN as is (<= 0 means GOMAXPROCS)
	Phases         bool                  // record a protocol run's per-phase costs (else nothing is paid)
	ZeroKnowledge  bool                  // prepend HELLO neighbour discovery: nodes start knowing only their ID
	MaxDeliveries  int                   // per-link delivery budget (0 = engine default)
	Backoff        func(attempt int) int // reliable-layer retransmission backoff (nil = its default)
}

// Check reports whether x can run with the normalized workload w:
// ZeroKnowledge, MaxDeliveries and Backoff need a distributed backbone run,
// and a delivery budget must not be negative.
func (x *ExecOptions) Check(w *Workload) error {
	if (x.ZeroKnowledge || x.MaxDeliveries != 0 || x.Backoff != nil) && (w.Kind != Backbone || w.Mode == "centralized") {
		return fmt.Errorf("zero knowledge, maxDeliveries and backoff require a distributed backbone run")
	}
	if x.MaxDeliveries < 0 {
		return fmt.Errorf("negative budget")
	}
	return nil
}

// Exec runs one normalized workload on nw, a network its caller built,
// through the executor of every sweep scenario, memoizing nothing. x must
// pass Check against w.
func Exec(ctx context.Context, w *Workload, nw *udg.Network, x ExecOptions) Outcome {
	return exec(ctx, w, scene{nw}, x)
}

// exec is the one job executor: it runs the normalized workload w on the
// network of c and returns everything it measured. It verifies nothing;
// see Outcome.Valid.
func exec(ctx context.Context, w *Workload, c cell, x ExecOptions) (o Outcome) {
	nw, err := c.network()
	if err != nil {
		o.fail(err, false)
		return o
	}
	o.Net = nw
	o.Construction, _ = algo.Lookup(w.Algorithm)
	switch w.Kind {
	case Dilation:
		if o.Result, err = c.centralized(o.Construction, w.WeightSeed); err != nil {
			o.fail(err, false)
			return o
		}
		o.Built = true
		// A deadline that passed during the construction ends the job
		// before the pairs are even enumerated.
		if err = ctx.Err(); err == nil {
			pairs := spanner.Pairs(nw.G, w.Pairs, w.SampleSeed)
			o.Dilation, err = spanner.DilationN(ctx, nw.G, o.Result.Spanner, nw.Weight(), pairs, x.MeasureWorkers)
		}
		if err != nil {
			o.fail(err, false)
		}
		return o

	case Broadcast:
		relay, err := c.relays(ctx)
		if err != nil {
			o.fail(err, false)
			return o
		}
		o.Backbone = route.Broadcast(nw.G, relay, w.Source)
		o.Flood = route.BlindFlood(nw.G, w.Source)
		return o
	}

	if w.Mode == "centralized" {
		o.Result, err = c.centralized(o.Construction, w.WeightSeed)
	} else {
		eng, _ := simnet.ParseEngine(w.Engine)
		spec := wcds.RunSpec{
			Engine:          eng,
			ScheduleSeed:    w.ScheduleSeed,
			Faults:          w.Faults,
			MaxRounds:       w.MaxRounds,
			MaxDeliveries:   x.MaxDeliveries,
			Ctx:             ctx,
			Reliable:        w.Reliable,
			ReliableOptions: reliable.Options{MaxRetries: w.MaxRetries, Backoff: x.Backoff},
		}
		var rec *obs.Spans
		if x.Phases {
			rec = obs.NewSpans()
			spec.Phases = rec
		}
		mode := wcds.Deferred
		if w.Selection == "eager" {
			mode = wcds.Eager
		}
		o.Result, o.Stats, err = algo.DistributedRun(o.Construction, nw.G, nw.ID, mode, x.ZeroKnowledge, spec.Runner())
		if rec != nil {
			o.Phases = rec.Snapshot()
		}
	}
	if err != nil {
		o.fail(err, w.Faults != nil)
		return o
	}
	o.Built = true
	return o
}

// row projects the outcome of scenario sc onto its result row. Rows of
// failed jobs keep only the error and, for distributed runs, the costs.
func (o *Outcome) row(sc Scenario, w *Workload, topoLabel string) Result {
	r := Result{Index: sc.Index, Size: sc.Size, Degree: sc.Degree, Seed: sc.Seed,
		Topology: topoLabel, Workload: w.label(),
		Messages: o.Stats.Messages, Rounds: o.Stats.Rounds, Dropped: o.Stats.Dropped,
		Retransmits: o.Stats.Retransmits, Phases: o.Phases}
	if w.Kind == Dilation && o.Built {
		r.Edges = o.Net.G.M()
	}
	switch o.Class {
	case NoError:
	case FaultFailure:
		r.Failure = o.Err.Error()
		return r
	default:
		r.Err = o.Err.Error()
		r.cancelled = o.Class == Cancelled
		return r
	}
	r.Edges = o.Net.G.M()
	switch w.Kind {
	case Dilation:
		r.SpannerEdges = o.SpannerEdges()
		r.Pairs = o.Dilation.Pairs
		r.WorstTopo = o.Dilation.WorstTopo.TopoRatio()
		r.WorstGeo = o.Dilation.WorstGeo.GeoRatio()
		r.AvgTopo = o.Dilation.AvgTopoRatio
		r.AvgGeo = o.Dilation.AvgGeoRatio
		r.BoundsOK = o.Dilation.TopoBoundHolds && o.Dilation.GeoBoundHolds
	case Broadcast:
		r.RelaySize = o.Backbone.RelaySetSize
		r.BackboneTx = o.Backbone.Transmissions
		r.FloodTx = o.Flood.Transmissions
		r.Covered = o.Backbone.Covered
		r.Saving = o.Saving()
	default:
		r.Backbone = len(o.Result.Dominators)
		r.MIS = len(o.Result.MISDominators)
		r.Additional = len(o.Result.AdditionalDominators)
		r.SpannerEdges = o.SpannerEdges()
		r.Valid = o.Valid()
		if o.Net.N() > 0 {
			r.Ratio = float64(r.Backbone) / float64(o.Net.N())
		}
		r.Converged = true
	}
	return r
}
