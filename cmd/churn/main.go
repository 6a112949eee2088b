// Command churn replays seeded random churn traces against streaming
// topology sessions and prints a locality/latency report: the measurement
// harness for the paper's Section 4.2 claim that backbone maintenance stays
// local to the event site.
//
// Per trace: a connected random network, a session over it
// (wcdsnet.OpenSession), then a sequence of epochs of random deltas —
// moves, leaves, rejoins and brand-new joins — applied through the same
// incremental-repair path the service's NDJSON endpoint drives. The report
// aggregates epoch apply latency and repair locality (nodes whose role
// changed, hop radius from the event sites). Maintained invariants are
// re-verified every -validate epochs; any violation fails the run, and the
// error ends with the command that replays the failing trace alone.
//
// Usage:
//
//	churn [flags]
//
//	-n 200       nodes per trace
//	-deg 8       target average degree
//	-seeds 5     number of traces (seeds seed, seed+1, ...)
//	-seed 1      base seed
//	-epochs 200  epochs per trace
//	-validate 25 verify WCDS invariants every this many epochs (0 = final only)
//	-drop 0      message drop rate for fault-bearing repair (0 = in-process
//	             local repair, the default; >0 runs every epoch's repair as
//	             the distributed protocol over a lossy simnet)
//	-reliable    wrap fault-bearing repair in the ack/retransmit layer
//	             (default true; only meaningful with -drop > 0)
//	-retries 0   reliable-layer retry budget (0 = default)
//	-smoke       quick CI mode: small traces, validate every epoch
//	-v           per-trace progress
//
// With -drop > 0 the report gains a repair line: how many epochs converged
// to the exact lossless fixpoint, how many were served degraded through the
// escalation ladder's fallback, and the retry/escalation cost.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"wcdsnet"
	"wcdsnet/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 200, "nodes per trace")
		deg      = flag.Float64("deg", 8, "target average degree")
		seeds    = flag.Int("seeds", 5, "number of traces")
		seed     = flag.Int64("seed", 1, "base seed")
		epochs   = flag.Int("epochs", 200, "epochs per trace")
		validate = flag.Int("validate", 25, "verify invariants every this many epochs (0 = final only)")
		drop     = flag.Float64("drop", 0, "repair-message drop rate (>0 = distributed repair over a lossy simnet)")
		reliable = flag.Bool("reliable", true, "wrap fault-bearing repair in the ack/retransmit layer")
		retries  = flag.Int("retries", 0, "reliable retry budget (0 = default)")
		smoke    = flag.Bool("smoke", false, "quick CI mode: small traces, validate every epoch")
		verbose  = flag.Bool("v", false, "per-trace progress")
	)
	flag.Parse()
	if *smoke {
		*n, *deg, *seeds, *epochs, *validate = 40, 8, 2, 25, 1
	}
	if *drop < 0 || *drop > 1 {
		return fmt.Errorf("-drop %g must be in [0,1]", *drop)
	}

	var agg stats
	start := time.Now()
	for s := 0; s < *seeds; s++ {
		traceSeed := *seed + int64(s)
		st, err := replay(traceSeed, *n, *deg, *epochs, *validate, *drop, *reliable, *retries)
		if err != nil {
			return fmt.Errorf("trace seed=%d: %w\nreplay: go run ./cmd/churn -seed %d -seeds 1 -n %d -deg %s -epochs %d -validate %d -drop %s -reliable=%t -retries %d",
				traceSeed, err, traceSeed, *n, strconv.FormatFloat(*deg, 'g', -1, 64), *epochs, *validate,
				strconv.FormatFloat(*drop, 'g', -1, 64), *reliable, *retries)
		}
		if *verbose {
			fmt.Printf("trace seed=%-3d n=%3d: %d epochs, %d deltas, p95=%v touched mean=%.1f\n",
				traceSeed, *n, st.epochs, st.deltas, st.latencyP(95), st.touchedMean())
		}
		agg.merge(st)
	}
	elapsed := time.Since(start)

	fmt.Printf("churn: %d traces (n=%d deg=%.0f): %d epochs, %d deltas in %v\n",
		*seeds, *n, *deg, agg.epochs, agg.deltas, elapsed.Round(time.Millisecond))
	fmt.Printf("churn: latency   p50=%v p95=%v max=%v\n",
		agg.latencyP(50), agg.latencyP(95), agg.latencyP(100))
	fmt.Printf("churn: locality  role changes mean=%.2f/epoch max=%d | quiet epochs %.1f%%\n",
		agg.touchedMean(), agg.touchedMax, agg.pct(agg.quiet))
	fmt.Printf("churn: radius    ≤1 %.1f%%  ≤2 %.1f%%  >2 %.1f%% (max %d) of repairing epochs\n",
		agg.rpct(agg.radius1), agg.rpct(agg.radius1+agg.radius2), agg.rpct(agg.radiusFar), agg.radiusMax)
	fmt.Printf("churn: backbone  connector changes mean=%.2f/epoch | connected %.1f%% of epochs\n",
		float64(agg.connectors)/float64(max(agg.epochs, 1)), agg.pct(agg.connected))
	if *drop > 0 {
		fmt.Printf("churn: repair    drop=%.0f%% reliable=%v: %d converged, %d degraded, %d violated | retries=%d escalations=%d\n",
			*drop*100, *reliable, agg.repConverged, agg.repDegraded, agg.repViolated, agg.repRetries, agg.repEscalations)
	}
	fmt.Printf("churn: verified  %d invariant checks, 0 violations\n", agg.validations)
	if *smoke {
		fmt.Println("churn: smoke PASS")
	}
	return nil
}

// replay drives one seeded trace through a session and collects its stats.
func replay(seed int64, n int, deg float64, epochs, validate int, drop float64, reliable bool, retries int) (stats, error) {
	nw, err := wcdsnet.GenerateNetwork(seed, n, deg)
	if err != nil {
		return stats{}, err
	}
	var cfg wcdsnet.SessionConfig
	if drop > 0 {
		cfg.Repair = wcdsnet.RepairPolicy{
			Distributed: true,
			Faults:      &wcdsnet.FaultPlan{Seed: seed, DropRate: drop},
			Reliable:    reliable,
			MaxRetries:  retries,
		}
	}
	sess, err := wcdsnet.OpenSession(nw, cfg)
	if err != nil {
		return stats{}, err
	}
	defer sess.Close(nil)

	rng := rand.New(rand.NewSource(seed * 7919))
	ctx := context.Background()
	var st stats
	for e := 0; e < epochs; e++ {
		ev, err := sess.Apply(ctx, session.RandomEpoch(rng, sess))
		if err != nil {
			return st, fmt.Errorf("epoch %d: %w", e, err)
		}
		st.record(ev)
		if validate > 0 && (e+1)%validate == 0 {
			if err := sess.Maintainer().Validate(); err != nil {
				return st, fmt.Errorf("epoch %d: invariants violated: %w", e, err)
			}
			st.validations++
		}
	}
	if err := sess.Maintainer().Validate(); err != nil {
		return st, fmt.Errorf("final state: invariants violated: %w", err)
	}
	st.validations++
	return st, nil
}

// stats accumulates per-epoch measurements across one or more traces.
type stats struct {
	epochs, deltas int
	latencies      []int64 // microseconds, one per epoch
	touched        int
	touchedMax     int
	quiet          int // epochs with no role change
	radius1        int // repairing epochs with radius ≤ 1
	radius2        int // radius == 2
	radiusFar      int // radius > 2 or unreachable
	radiusMax      int
	connectors     int
	connected      int
	validations    int
	// Repair-outcome tallies from the per-epoch repair field (all zero for
	// plain in-process sessions except repConverged, which counts every
	// epoch: local repair is always exact).
	repConverged   int
	repDegraded    int
	repViolated    int
	repRetries     int
	repEscalations int
}

func (st *stats) record(ev wcdsnet.SessionEvent) {
	st.epochs++
	st.deltas += ev.Deltas
	st.latencies = append(st.latencies, ev.ElapsedMicros)
	st.touched += ev.NodesTouched
	if ev.NodesTouched > st.touchedMax {
		st.touchedMax = ev.NodesTouched
	}
	st.connectors += ev.ConnectorChanges
	if ev.Connected {
		st.connected++
	}
	if r := ev.Repair; r != nil {
		switch r.Outcome {
		case "converged":
			st.repConverged++
		case "degraded":
			st.repDegraded++
		case "violated":
			st.repViolated++
		}
		st.repRetries += r.Retries
		st.repEscalations += r.Escalations
	}
	if ev.NodesTouched == 0 {
		st.quiet++
		return
	}
	switch r := ev.RepairRadius; {
	case r >= 0 && r <= 1:
		st.radius1++
	case r == 2:
		st.radius2++
	default: // r > 2, or -1 = a changed node became unreachable
		st.radiusFar++
	}
	if ev.RepairRadius > st.radiusMax {
		st.radiusMax = ev.RepairRadius
	}
}

func (st *stats) merge(o stats) {
	st.epochs += o.epochs
	st.deltas += o.deltas
	st.latencies = append(st.latencies, o.latencies...)
	st.touched += o.touched
	st.touchedMax = max(st.touchedMax, o.touchedMax)
	st.quiet += o.quiet
	st.radius1 += o.radius1
	st.radius2 += o.radius2
	st.radiusFar += o.radiusFar
	st.radiusMax = max(st.radiusMax, o.radiusMax)
	st.connectors += o.connectors
	st.connected += o.connected
	st.validations += o.validations
	st.repConverged += o.repConverged
	st.repDegraded += o.repDegraded
	st.repViolated += o.repViolated
	st.repRetries += o.repRetries
	st.repEscalations += o.repEscalations
}

// latencyP returns the p-th percentile epoch latency (p=100 → max).
func (st *stats) latencyP(p int) time.Duration {
	if len(st.latencies) == 0 {
		return 0
	}
	s := append([]int64(nil), st.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return time.Duration(s[idx]) * time.Microsecond
}

func (st *stats) touchedMean() float64 {
	if st.epochs == 0 {
		return 0
	}
	return float64(st.touched) / float64(st.epochs)
}

// pct expresses k as a percentage of all epochs.
func (st *stats) pct(k int) float64 {
	if st.epochs == 0 {
		return 0
	}
	return 100 * float64(k) / float64(st.epochs)
}

// rpct expresses k as a percentage of the epochs that repaired anything.
func (st *stats) rpct(k int) float64 {
	repairing := st.epochs - st.quiet
	if repairing == 0 {
		return 0
	}
	return 100 * float64(k) / float64(repairing)
}
