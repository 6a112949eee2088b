// Command chaos is the fault-injection sweep harness: it runs the reliable
// distributed Algorithm II across randomized fault schedules and verifies
// that every run either converges to the exact lossless reference result
// (with all structural invariants) or fails detectably. Any other outcome —
// a converged run with a wrong or invalid result — is a violation and the
// process exits nonzero.
//
// Usage:
//
//	chaos [flags]
//
//	-seeds 40        scenarios per (engine, intensity) cell
//	-seed 1          base scenario seed
//	-n 40            nodes per generated network
//	-deg 7           target average degree
//	-algo II         distributed protocol under test (I or II); Algorithm I
//	                 is held to the structural invariants, Algorithm II
//	                 additionally to exact reference equality
//	-intensities 0.3,0.6,1.0   comma-separated fault intensities in [0,1]
//	-engines both    sync | async | both
//	-retries 0       reliable-layer retry budget (0 = default 25)
//	-rounds 0        engine quiescence budget (0 = scaled chaos default)
//	-http            additionally drive one sweep through the in-process
//	                 service HTTP layer (fault plan as JSON over the wire)
//	-v               per-scenario detail
//
// Churn-under-faults mode (-churn) replays seeded delta streams through
// streaming topology sessions whose per-epoch repair runs the distributed
// protocol over the lossy simnet, across a grid of drop rates. Every epoch
// is audited independently of the session's own labels (invariants, plus
// converged ⇒ equal to the lossless fixpoint); any violation exits nonzero.
//
//	-churn           run the churn-under-faults sweep instead
//	-churn-epochs 12 epochs per replayed delta stream
//	-drops 0.1,0.3   comma-separated drop rates for the fault grid
//	-reliable        wrap the repair protocol in the ack/retransmit layer
//	                 (default true; -reliable=false shows rung-3 rebuilds)
//
// -seeds, -seed, -n, -deg, -engines, -retries and -rounds apply to both
// modes.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"wcdsnet/internal/algo"
	"wcdsnet/internal/chaos"
	"wcdsnet/internal/service"
	"wcdsnet/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seeds       = flag.Int("seeds", 40, "scenarios per (engine, intensity) cell")
		seed        = flag.Int64("seed", 1, "base scenario seed")
		n           = flag.Int("n", 40, "nodes per generated network")
		deg         = flag.Float64("deg", 7, "target average degree")
		algoName    = flag.String("algo", "II", "distributed protocol under test: "+strings.Join(algo.DistributedNames(), ", "))
		intensities = flag.String("intensities", "0.3,0.6,1.0", "comma-separated fault intensities")
		engines     = flag.String("engines", "both", "sync | async | both")
		retries     = flag.Int("retries", 0, "reliable retry budget (0 = default)")
		rounds      = flag.Int("rounds", 0, "quiescence budget (0 = chaos default)")
		httpSweep   = flag.Bool("http", false, "also sweep through the service HTTP layer")
		verbose     = flag.Bool("v", false, "per-scenario detail")

		churn       = flag.Bool("churn", false, "run the churn-under-faults session sweep instead")
		churnEpochs = flag.Int("churn-epochs", 12, "epochs per replayed delta stream")
		drops       = flag.String("drops", "0.1,0.3", "comma-separated drop rates for the churn fault grid")
		reliableRep = flag.Bool("reliable", true, "wrap the churn repair protocol in the ack/retransmit layer")
	)
	flag.Parse()

	engs, err := parseEngines(*engines)
	if err != nil {
		return err
	}
	if *churn {
		return runChurn(*seeds, *seed, *n, *deg, *churnEpochs, *drops, engs, *reliableRep, *retries, *rounds, *verbose)
	}

	levels, err := parseIntensities(*intensities)
	if err != nil {
		return err
	}

	violations := 0
	for _, intensity := range levels {
		for _, eng := range engs {
			cfg := chaos.Config{
				Seeds:      *seeds,
				BaseSeed:   *seed,
				N:          *n,
				AvgDegree:  *deg,
				Intensity:  intensity,
				Algorithm:  *algoName,
				Engine:     eng,
				MaxRetries: *retries,
				MaxRounds:  *rounds,
			}
			rep, err := chaos.Run(cfg)
			if err != nil {
				return err
			}
			report(rep, fmt.Sprintf("algo=%s intensity=%.2f async=%v", *algoName, intensity, eng == simnet.EngineAsync), *verbose)
			violations += rep.Violations
		}
	}

	if *httpSweep {
		svc := service.New(service.Options{})
		srv := httptest.NewServer(svc.Handler())
		cfg := chaos.Config{
			Seeds:      *seeds,
			BaseSeed:   *seed,
			N:          *n,
			AvgDegree:  *deg,
			Intensity:  levels[len(levels)-1],
			Algorithm:  *algoName,
			MaxRetries: *retries,
			MaxRounds:  *rounds,
		}
		rep, err := chaos.RunWith(cfg, chaos.HTTPRunner(srv.URL, srv.Client()))
		srv.Close()
		svc.Close()
		if err != nil {
			return err
		}
		report(rep, "http service sweep", *verbose)
		violations += rep.Violations
	}

	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	fmt.Println("chaos: all sweeps clean — every run converged exactly or failed detectably")
	return nil
}

// runChurn executes the churn-under-faults sweep across (engine × drop
// rate × seed) cells and exits nonzero on any audited violation.
func runChurn(seeds int, seed int64, n int, deg float64, epochs int, drops string, engs []simnet.Engine, reliable bool, retries, rounds int, verbose bool) error {
	rates, err := parseIntensities(drops)
	if err != nil {
		return err
	}

	violations := 0
	for _, eng := range engs {
		cfg := chaos.ChurnConfig{
			Seeds:      seeds,
			BaseSeed:   seed,
			N:          n,
			AvgDegree:  deg,
			Epochs:     epochs,
			DropRates:  rates,
			Reliable:   reliable,
			MaxRetries: retries,
			MaxRounds:  rounds,
			Engine:     eng,
		}
		rep, err := chaos.RunChurn(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %s\n", fmt.Sprintf("churn async=%v:", eng == simnet.EngineAsync), rep.Summary())
		for _, c := range rep.Cells {
			switch {
			case c.Violated > 0:
				fmt.Printf("  drop=%.2f seed %-6d VIOLATION (%d/%d epochs): %s\n",
					c.DropRate, c.Seed, c.Violated, c.Epochs, c.Detail)
			case verbose:
				fmt.Printf("  drop=%.2f seed %-6d %d epochs: %d converged, %d degraded, retries=%d escalations=%d msgs=%d\n",
					c.DropRate, c.Seed, c.Epochs, c.Converged, c.Degraded, c.Retries, c.Escalations, c.Messages)
			}
		}
		violations += rep.Violations
	}
	if violations > 0 {
		return fmt.Errorf("%d churn epoch violations", violations)
	}
	fmt.Println("chaos: churn sweep clean — every epoch converged exactly or degraded detectably")
	return nil
}

func report(rep *chaos.Report, label string, verbose bool) {
	fmt.Printf("%-28s %s\n", label+":", rep.Summary())
	if len(rep.PhaseTotals) > 0 {
		fmt.Print("  phases: ")
		for i, sp := range rep.PhaseTotals {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%s msgs=%d rtx=%d", sp.Name, sp.Messages, sp.Retransmits)
		}
		fmt.Println()
	}
	for _, s := range rep.Scenarios {
		switch {
		case s.Outcome == chaos.Violated:
			fmt.Printf("  seed %-6d VIOLATION: %s\n", s.Seed, s.Detail)
		case verbose && s.Outcome == chaos.Degraded:
			fmt.Printf("  seed %-6d degraded: %s\n", s.Seed, s.Detail)
		case verbose:
			fmt.Printf("  seed %-6d converged: msgs=%d retransmits=%d dropped=%d ticks=%d\n",
				s.Seed, s.Stats.Messages, s.Stats.Retransmits, s.Stats.Dropped, s.Stats.Ticks)
		}
	}
}

// parseEngines maps the -engines value onto the engines to sweep, in
// sweep order.
func parseEngines(s string) ([]simnet.Engine, error) {
	switch s {
	case "sync":
		return []simnet.Engine{simnet.EngineSync}, nil
	case "async":
		return []simnet.Engine{simnet.EngineAsync}, nil
	case "both":
		return []simnet.Engine{simnet.EngineSync, simnet.EngineAsync}, nil
	}
	return nil, fmt.Errorf("unknown -engines %q (want sync, async or both)", s)
}

func parseIntensities(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("bad intensity %q (want numbers in [0,1])", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no intensities given")
	}
	return out, nil
}
