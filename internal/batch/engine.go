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

// genMaxTries bounds connected-instance rejection sampling, matching the
// service's limit so batch and serve agree on which cells are realisable.
const genMaxTries = 2000

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

	// Distributed Algorithm II with routing tables, plus the derived relay
	// set (shared by every broadcast source over the cell).
	detOnce  sync.Once
	detRes   wcds.Result
	detRelay []bool
	detErr   error
}

type centEntry struct {
	once sync.Once
	res  wcds.Result
	err  error
}

func (m *netMemo) network() (*udg.Network, error) {
	m.netOnce.Do(func() {
		rng := rand.New(rand.NewSource(m.seed))
		if m.topo.Kind == "" {
			// Legacy path kept verbatim so pre-topology specs reproduce
			// their exact networks (and error strings) byte for byte.
			m.nw, m.netErr = udg.GenConnectedAvgDegree(rng, m.size, m.degree, genMaxTries)
		} else {
			m.nw, m.netErr = m.topo.GenConnected(rng, m.size, m.degree, genMaxTries)
		}
	})
	return m.nw, m.netErr
}

func (m *netMemo) centralized(name string, weightSeed int64) (*udg.Network, wcds.Result, error) {
	nw, err := m.network()
	if err != nil {
		return nil, wcds.Result{}, err
	}
	key := fmt.Sprintf("%s|%d", name, weightSeed)
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
	e.once.Do(func() {
		c, ok := algo.Lookup(name)
		if !ok {
			e.err = fmt.Errorf("batch: unknown algorithm %q (want %s)", name, algo.NamesString())
			return
		}
		in := algo.Input{G: nw.G, IDs: nw.ID}
		if c.Caps.Weighted {
			in.Weights = algo.Weights(weightSeed, nw.N())
		}
		e.res, e.err = c.Run(in)
	})
	return nw, e.res, e.err
}

func (m *netMemo) detailed(ctx context.Context) (*udg.Network, wcds.Result, []bool, error) {
	nw, err := m.network()
	if err != nil {
		return nil, wcds.Result{}, nil, err
	}
	m.detOnce.Do(func() {
		// Every scenario of a Run shares one ctx, so memoizing under the
		// first caller's context is sound: a cancellation that interrupts
		// this construction would have interrupted every other consumer too.
		res, tables, _, err := wcds.Algo2DistributedDetailed(nw.G, nw.ID, wcds.Deferred,
			wcds.EngineRunner(simnet.EngineSync, simnet.WithContext(ctx)))
		if err != nil {
			m.detErr = fmt.Errorf("batch: backbone construction failed: %w", err)
			return
		}
		m.detRes = res
		m.detRelay = route.RelaySet(nw.G, nw.ID, res, tables)
	})
	return nw, m.detRes, m.detRelay, m.detErr
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
	res = execScenario(ctx, sc, w, memo, measureWorkers)
	return res
}

// isCancel reports whether err is a context expiry (from any layer).
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func execScenario(ctx context.Context, sc Scenario, w *Workload, memo *netMemo, measureWorkers int) Result {
	r := Result{Index: sc.Index, Size: sc.Size, Degree: sc.Degree, Seed: sc.Seed,
		Topology: memo.topoLabel, Workload: w.label()}
	switch w.Kind {
	case Dilation:
		nw, res, err := memo.centralized(w.Algorithm, w.WeightSeed)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		r.Edges = nw.G.M()
		var pairs [][2]int
		if w.Pairs <= 0 {
			pairs = spanner.AllPairs(nw.G)
		} else {
			pairs = spanner.SamplePairs(rand.New(rand.NewSource(w.SampleSeed)), nw.N(), w.Pairs)
		}
		report, err := spanner.DilationN(nw.G, res.Spanner, nw.Weight(), pairs, measureWorkers)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		r.SpannerEdges = res.Spanner.M()
		r.Pairs = report.Pairs
		if report.WorstTopo.HopsG > 0 {
			r.WorstTopo = float64(report.WorstTopo.HopsSpanner) / float64(report.WorstTopo.HopsG)
		}
		if report.WorstGeo.LenG > 0 {
			r.WorstGeo = report.WorstGeo.LenSpanner / report.WorstGeo.LenG
		}
		r.AvgTopo = report.AvgTopoRatio
		r.AvgGeo = report.AvgGeoRatio
		r.BoundsOK = report.TopoBoundHolds && report.GeoBoundHolds
		return r

	case Broadcast:
		nw, _, relay, err := memo.detailed(ctx)
		if err != nil {
			if isCancel(err) {
				r.cancelled = true
			}
			r.Err = err.Error()
			return r
		}
		r.Edges = nw.G.M()
		backbone := route.Broadcast(nw.G, relay, w.Source)
		flood := route.BlindFlood(nw.G, w.Source)
		r.RelaySize = backbone.RelaySetSize
		r.BackboneTx = backbone.Transmissions
		r.FloodTx = flood.Transmissions
		r.Covered = backbone.Covered
		if flood.Transmissions > 0 {
			r.Saving = 1 - float64(backbone.Transmissions)/float64(flood.Transmissions)
		}
		return r

	default: // Backbone
		construction, okAlgo := algo.Lookup(w.Algorithm)
		if !okAlgo {
			r.Err = fmt.Sprintf("batch: unknown algorithm %q (want %s)", w.Algorithm, algo.NamesString())
			return r
		}
		if w.Mode == "centralized" {
			nw, res, err := memo.centralized(w.Algorithm, w.WeightSeed)
			if err != nil {
				r.Err = err.Error()
				return r
			}
			fillBackbone(&r, nw, res, construction)
			r.Converged = true
			return r
		}
		nw, err := memo.network()
		if err != nil {
			r.Err = err.Error()
			return r
		}
		var (
			res wcds.Result
			st  simnet.Stats
		)
		eng, _ := simnet.ParseEngine(w.Engine)
		rec := obs.NewSpans()
		runner := wcds.RunSpec{
			Engine:          eng,
			ScheduleSeed:    w.ScheduleSeed,
			Faults:          w.Faults,
			MaxRounds:       w.MaxRounds,
			Ctx:             ctx,
			Reliable:        w.Reliable,
			ReliableOptions: reliable.Options{MaxRetries: w.MaxRetries},
			Phases:          rec,
		}.Runner()
		mode := wcds.Deferred
		if w.Selection == "eager" {
			mode = wcds.Eager
		}
		res, st, err = algo.DistributedRun(construction, nw.G, nw.ID, mode, false, runner)
		r.Messages = st.Messages
		r.Rounds = st.Rounds
		r.Dropped = st.Dropped
		r.Retransmits = st.Retransmits
		r.Phases = rec.Snapshot()
		if err != nil {
			// A cancellation is neither data nor failure: the caller drops
			// the row. Under injected faults a stalled run is a detectable
			// outcome, recorded as non-convergence; without faults it is a
			// hard error.
			switch {
			case isCancel(err):
				r.cancelled = true
				r.Err = err.Error()
			case w.Faults == nil:
				r.Err = err.Error()
			default:
				r.Failure = err.Error()
			}
			return r
		}
		fillBackbone(&r, nw, res, construction)
		r.Converged = true
		return r
	}
}

// fillBackbone records the backbone metrics, validating the output with the
// construction's own kind predicate (WCDS / CDS / DS).
func fillBackbone(r *Result, nw *udg.Network, res wcds.Result, c *algo.Construction) {
	r.Edges = nw.G.M()
	r.Backbone = len(res.Dominators)
	r.MIS = len(res.MISDominators)
	r.Additional = len(res.AdditionalDominators)
	if res.Spanner != nil {
		r.SpannerEdges = res.Spanner.M()
	}
	r.Valid = c.Valid(nw.G, res.Dominators)
	if nw.N() > 0 {
		r.Ratio = float64(r.Backbone) / float64(nw.N())
	}
}
