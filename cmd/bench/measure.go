package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"wcdsnet/internal/spanner"
	"wcdsnet/internal/stats"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// The measurement-core suite isolates spanner.Dilation from the batch
// engine: a pinned set of networks with their Algorithm II spanners and
// pair samples, measured directly. The measure phase runs spanner.DilationN
// over it at the requested worker count, so the gate watches the
// measurement core's throughput and allocs/op on their own.

// measureCase is one network of the measurement-core suite.
type measureCase struct {
	nw    *udg.Network
	res   wcds.Result
	pairs [][2]int
}

// measurePairCount makes the phase dilation-heavy: enough sampled pairs
// that traversal dominates construction.
const measurePairCount = 250

// measureCases builds the pinned measurement suite. Full: 2 sizes × 3
// seeds = 6 networks; quick: 1 × 3 = 3.
func measureCases(quick bool) ([]measureCase, error) {
	sizes := []int{100, 200}
	if quick {
		sizes = []int{60}
	}
	var cases []measureCase
	for _, n := range sizes {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			nw, err := udg.GenConnectedAvgDegree(rng, n, 8, 2000)
			if err != nil {
				return nil, fmt.Errorf("measure suite (n=%d seed=%d): %w", n, seed, err)
			}
			res := wcds.Algo2Centralized(nw.G, nw.ID)
			pairs := spanner.SamplePairs(rand.New(rand.NewSource(seed+100)), n, measurePairCount)
			cases = append(cases, measureCase{nw: nw, res: res, pairs: pairs})
		}
	}
	return cases, nil
}

// measureRun is one timed execution of the measurement suite.
type measureRun struct {
	wallNS  int64
	callMS  []float64
	allocB  uint64
	mallocs uint64
	reports []spanner.Report
}

func measureOnce(cases []measureCase, workers int) (*measureRun, error) {
	r := &measureRun{
		callMS:  make([]float64, 0, len(cases)),
		reports: make([]spanner.Report, 0, len(cases)),
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, c := range cases {
		t0 := time.Now()
		rep, err := spanner.DilationN(context.Background(), c.nw.G, c.res.Spanner, c.nw.Weight(), c.pairs, workers)
		if err != nil {
			return nil, err
		}
		r.callMS = append(r.callMS, float64(time.Since(t0))/1e6)
		r.reports = append(r.reports, rep)
	}
	r.wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r, nil
}

// measurePhase runs the measurement suite reps times (fastest wins, like
// timed) and returns the phase. Every repetition must reproduce the first
// one's per-case dilation reports exactly.
func measurePhase(label string, cases []measureCase, reps, workers int) (Phase, error) {
	var best *measureRun
	for i := 0; i < reps; i++ {
		run, err := measureOnce(cases, workers)
		if err != nil {
			return Phase{}, fmt.Errorf("%s: %w", label, err)
		}
		if best != nil && !reflect.DeepEqual(run.reports, best.reports) {
			return Phase{}, fmt.Errorf("%s: repetition %d produced different reports", label, i+1)
		}
		if best == nil || run.wallNS < best.wallNS {
			if best != nil {
				run.reports = best.reports // identical; keep one copy
			}
			best = run
		}
	}
	sum := stats.Summarize(best.callMS)
	n := float64(len(cases))
	p := Phase{
		Workers:     workers,
		WallNS:      best.wallNS,
		OpsPerSec:   n / (float64(best.wallNS) / 1e9),
		P50MS:       sum.P50,
		P95MS:       sum.P95,
		AllocPerOp:  float64(best.allocB) / n,
		MallocPerOp: float64(best.mallocs) / n,
	}
	fmt.Printf("%s: %8.1f dilations/s  wall %7.1fms  p50 %6.2fms  p95 %6.2fms  %7.0f B/op  %5.0f allocs/op\n",
		label, p.OpsPerSec, float64(best.wallNS)/1e6, p.P50MS, p.P95MS, p.AllocPerOp, p.MallocPerOp)
	return p, nil
}
