// Package chaos is the randomized fault-sweep harness: it generates
// networks and randomized fault schedules, runs the reliable distributed
// constructions under them, and checks hard invariants on every run.
//
// The harness's contract is stronger than "it didn't crash":
//
//   - Every CONVERGED Deferred-mode Algorithm II run — no matter the fault
//     schedule — must produce the exact WCDS of the lossless centralized
//     reference. Exactly-once delivery (the reliable layer) plus schedule
//     independence (Deferred mode) make equality, not mere validity, the
//     invariant.
//   - Every converged run's result must be a verified WCDS with an
//     independent MIS and a connected weakly induced spanner.
//   - A run that does NOT converge must say so through the error or the
//     Abandoned counter — silent corruption is the only fatal outcome.
//
// The chaos CLI (cmd/chaos) drives this package across seeds and
// intensities; TestSweepFindsNoViolations keeps a slice of it in `go test`
// and CI runs it race-enabled.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// RandomPlan draws a randomized fault schedule for an n-node network.
// intensity in [0, 1] scales every fault class: at 0 the plan is empty, at
// 1 the schedule combines ~30% loss with duplication, reordering, delay,
// up to three crash windows, a healing partition and flapping links. The
// plan is a pure function of (rng, n, intensity).
func RandomPlan(rng *rand.Rand, n int, intensity float64) simnet.FaultPlan {
	if intensity <= 0 || n == 0 {
		return simnet.FaultPlan{Seed: rng.Int63()}
	}
	if intensity > 1 {
		intensity = 1
	}
	plan := simnet.FaultPlan{
		Seed:        rng.Int63(),
		DropRate:    0.30 * intensity * rng.Float64(),
		DupRate:     0.25 * intensity * rng.Float64(),
		ReorderRate: 0.30 * intensity * rng.Float64(),
	}
	if rng.Float64() < intensity {
		plan.DelayMax = 1 + rng.Intn(3)
	}
	// Scheduled outages all heal: a never-ending crash or partition makes
	// convergence impossible by design, which is a different experiment.
	// Logical time here is sync rounds / async deliveries+ticks; windows in
	// the low hundreds land mid-protocol for the network sizes the harness
	// uses.
	crashes := rng.Intn(1 + int(3*intensity))
	for c := 0; c < crashes; c++ {
		from := rng.Intn(60)
		plan.Crashes = append(plan.Crashes, simnet.CrashWindow{
			Node: rng.Intn(n), From: from, Until: from + 5 + rng.Intn(40),
		})
	}
	if rng.Float64() < 0.5*intensity && n >= 4 {
		// Partition off a random prefix of a permutation — connectedness of
		// the group does not matter for the blackout semantics.
		perm := rng.Perm(n)
		group := perm[:1+rng.Intn(n/2)]
		from := rng.Intn(40)
		plan.Partitions = append(plan.Partitions, simnet.PartitionWindow{
			From: from, Until: from + 5 + rng.Intn(30), Group: group,
		})
	}
	links := rng.Intn(1 + int(4*intensity))
	for l := 0; l < links; l++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if rng.Float64() < 0.5 {
			plan.LinkDowns = append(plan.LinkDowns,
				simnet.Flap(a, b, rng.Intn(20), 3+rng.Intn(5), 2+rng.Intn(4), 120)...)
		} else {
			start := rng.Intn(40)
			plan.LinkDowns = append(plan.LinkDowns, simnet.LinkWindow{
				A: a, B: b, Start: start, Until: start + 5 + rng.Intn(40),
				OneWay: rng.Float64() < 0.5,
			})
		}
	}
	return plan
}

// Config parameterizes a sweep.
type Config struct {
	// Seeds is the number of (network, plan) scenarios to run.
	Seeds int
	// BaseSeed offsets the scenario RNG so sweeps are reproducible.
	BaseSeed int64
	// N and AvgDegree shape the generated networks.
	N         int
	AvgDegree float64
	// Intensity scales RandomPlan (0..1).
	Intensity float64
	// Algorithm picks the distributed protocol under test from the registry
	// ("" = "II"). Only distributed-capable constructions are accepted; the
	// exact-equality invariant applies to Algorithm II's Deferred mode,
	// Algorithm I runs are held to the structural invariants.
	Algorithm string
	// Engine is the simulation engine the protocol runs on (the zero
	// value is EngineSync). The fault plan's seed doubles as the schedule
	// seed, so scrambling engines replay per scenario.
	Engine simnet.Engine
	// MaxRetries overrides the reliable layer's retry budget (0 = default).
	MaxRetries int
	// MaxRounds overrides the engine quiescence budget (0 = a generous
	// chaos default scaled for retransmission under heavy faults).
	MaxRounds int
}

func (cfg Config) withDefaults() Config {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 20
	}
	if cfg.N <= 0 {
		cfg.N = 40
	}
	if cfg.AvgDegree <= 0 {
		cfg.AvgDegree = 7
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "II"
	}
	return cfg
}

// Replay returns the cmd/chaos command line that reruns scenario seed of
// this sweep, and only it; http adds the sweep through the service layer
// (-http), which runs at the same intensity on the sync engine.
func (cfg Config) Replay(seed int64, http bool) string {
	cfg = cfg.withDefaults()
	line := fmt.Sprintf("go run ./cmd/chaos -seed %d -seeds 1 -n %d -deg %s -algo %s -intensities %s -engines %s -retries %d -rounds %d",
		seed, cfg.N, formatFloat(cfg.AvgDegree), cfg.Algorithm, formatFloat(cfg.Intensity), cfg.Engine, cfg.MaxRetries, cfg.MaxRounds)
	if http {
		line += " -http"
	}
	return line
}

// formatFloat prints v so that parsing it back gives v exactly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Outcome classifies one scenario.
type Outcome int

// Scenario outcomes, ordered by severity.
const (
	// Converged: the run finished, all invariants held, and the result
	// equals the lossless centralized reference.
	Converged Outcome = iota
	// Degraded: the run finished and reported its failure honestly
	// (abandoned frames / undecided nodes / budget exhaustion).
	Degraded
	// Violated: a converged run broke an invariant — the fatal outcome.
	Violated
)

// ScenarioResult is one scenario's verdict.
type ScenarioResult struct {
	Seed    int64
	Outcome Outcome
	Detail  string
	Stats   simnet.Stats
	// Phases is the run's per-phase cost breakdown (empty for runners that
	// do not instrument, e.g. a corrupt test double).
	Phases []obs.Span
}

// Report aggregates a sweep.
type Report struct {
	Scenarios  []ScenarioResult
	Converged  int
	Degraded   int
	Violations int
	// PhaseTotals merges every scenario's breakdown: where the sweep's
	// message and retransmission budget actually went, phase by phase.
	PhaseTotals []obs.Span
}

// Failed reports whether the sweep found any invariant violation.
func (r *Report) Failed() bool { return r.Violations > 0 }

// Summary renders a one-line sweep verdict.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d scenarios: %d converged, %d degraded (detectable), %d VIOLATIONS",
		len(r.Scenarios), r.Converged, r.Degraded, r.Violations)
}

// Runner executes one scenario: given the network and plan, produce a
// result, run stats, a per-phase breakdown (nil when the runner does not
// instrument) and an error. Run uses the in-process reliable protocol named
// by cfg.Algorithm; cmd/chaos can substitute an HTTP-backed runner to
// exercise the service layer end to end.
type Runner func(nw *udg.Network, plan simnet.FaultPlan, cfg Config) (wcds.Result, simnet.Stats, []obs.Span, error)

// Run sweeps cfg.Seeds randomized scenarios through the in-process
// reliable distributed protocol and verifies every invariant.
func Run(cfg Config) (*Report, error) {
	return RunWith(cfg, reliableDistributed)
}

// RunWith is Run with a custom scenario runner.
func RunWith(cfg Config, run Runner) (*Report, error) {
	cfg = cfg.withDefaults()
	c, ok := algo.Lookup(cfg.Algorithm)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown algorithm %q (want %s)",
			cfg.Algorithm, strings.Join(algo.DistributedNames(), ", "))
	}
	if !c.Caps.Distributed {
		return nil, fmt.Errorf("chaos: algorithm %s is centralized-only; the harness sweeps distributed protocols (%s)",
			c.Name, strings.Join(algo.DistributedNames(), ", "))
	}
	cfg.Algorithm = c.Name
	// A configuration the executor rejects (an unknown engine, a negative
	// retry budget) fails the sweep here rather than degrading every
	// scenario.
	w := cfg.workload(cfg.N, &simnet.FaultPlan{})
	if err := w.Normalize(); err != nil {
		return nil, fmt.Errorf("chaos: %v", err)
	}
	rep := &Report{}
	totals := obs.NewSpans()
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + int64(i)
		sr, err := runScenario(seed, cfg, run)
		if err != nil {
			return rep, err
		}
		rep.Scenarios = append(rep.Scenarios, sr)
		totals.Merge(sr.Phases)
		switch sr.Outcome {
		case Converged:
			rep.Converged++
		case Degraded:
			rep.Degraded++
		case Violated:
			rep.Violations++
		}
	}
	rep.PhaseTotals = totals.Snapshot()
	return rep, nil
}

func runScenario(seed int64, cfg Config, run Runner) (ScenarioResult, error) {
	rng := rand.New(rand.NewSource(seed))
	nw, err := udg.GenConnectedAvgDegree(rng, cfg.N, cfg.AvgDegree, 300)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("chaos: seed %d: network generation: %w", seed, err)
	}
	plan := RandomPlan(rng, nw.N(), cfg.Intensity)
	sr := ScenarioResult{Seed: seed}

	res, st, phases, err := run(nw, plan, cfg)
	sr.Stats = st
	sr.Phases = phases
	if err != nil || st.Abandoned > 0 {
		// An honest failure: the protocol stalled, blew its budget, or the
		// reliable layer gave up on frames. All detectable; none fatal.
		sr.Outcome = Degraded
		if err != nil {
			sr.Detail = err.Error()
		} else {
			sr.Detail = fmt.Sprintf("%d frames abandoned", st.Abandoned)
		}
		return sr, nil
	}

	// The run claims convergence: every invariant must hold now.
	if v := verify(nw, res, cfg.Algorithm); v != "" {
		sr.Outcome = Violated
		sr.Detail = v
		return sr, nil
	}
	sr.Outcome = Converged
	return sr, nil
}

// verify checks every invariant of a converged run; it returns "" when all
// hold, or a description of the first violation. The exact-equality check
// against the lossless centralized reference applies to Algorithm II only:
// its Deferred mode is schedule-independent, whereas Algorithm I's spanning
// tree (and hence its level-ranked MIS) legitimately depends on message
// arrival order under asynchrony.
func verify(nw *udg.Network, res wcds.Result, algoName string) string {
	var problems []string
	if !wcds.IsWCDS(nw.G, res.Dominators) {
		problems = append(problems, "result is not a WCDS")
	}
	if !mis.IsIndependent(nw.G, res.MISDominators) {
		problems = append(problems, "MIS dominators are not independent")
	}
	if res.Spanner == nil || !res.Spanner.Connected() {
		problems = append(problems, "weakly induced spanner is not connected")
	}
	if algoName == "II" {
		want := wcds.Algo2Centralized(nw.G, nw.ID)
		if !slices.Equal(res.MISDominators, want.MISDominators) ||
			!slices.Equal(res.AdditionalDominators, want.AdditionalDominators) {
			problems = append(problems, "converged result differs from the lossless centralized reference")
		}
	}
	return strings.Join(problems, "; ")
}

// workload is the batch job of one scenario: the reliable protocol on an
// n-node network under plan, with the harness's round budget.
func (cfg *Config) workload(n int, plan *simnet.FaultPlan) batch.Workload {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		// Generous default: heavy fault schedules legitimately need many
		// retransmission epochs beyond the paper's lossless bounds.
		maxRounds = 200*n + 5000
	}
	return batch.Workload{Algorithm: cfg.Algorithm, Engine: cfg.Engine.String(), ScheduleSeed: plan.Seed,
		Faults: plan, Reliable: true, MaxRetries: cfg.MaxRetries, MaxRounds: maxRounds}
}

func reliableDistributed(nw *udg.Network, plan simnet.FaultPlan, cfg Config) (wcds.Result, simnet.Stats, []obs.Span, error) {
	w := cfg.workload(nw.N(), &plan)
	if err := w.Normalize(); err != nil {
		return wcds.Result{}, simnet.Stats{}, nil, fmt.Errorf("chaos: %v", err)
	}
	out := batch.Exec(context.Background(), &w, nw, batch.ExecOptions{Phases: true})
	return out.Result, out.Stats, out.Phases, out.Err
}
