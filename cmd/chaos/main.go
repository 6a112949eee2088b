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
//
// Every VIOLATION line is followed by a "replay:" line: the command that
// reruns that one scenario or churn cell, with every flag it depends on.
package main

import (
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// sweeps is one parsed command line: the in-process fault-sweep cells in
// sweep order, the service-layer cell (-http) and, in churn mode, one churn
// sweep per engine.
type sweeps struct {
	faults  []chaos.Config
	http    *chaos.Config
	churn   []chaos.ChurnConfig
	verbose bool
}

// parse reads the command line into the sweeps it names.
func parse(args []string) (*sweeps, error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		seeds       = fs.Int("seeds", 40, "scenarios per (engine, intensity) cell")
		seed        = fs.Int64("seed", 1, "base scenario seed")
		n           = fs.Int("n", 40, "nodes per generated network")
		deg         = fs.Float64("deg", 7, "target average degree")
		algoName    = fs.String("algo", "II", "distributed protocol under test: "+strings.Join(algo.DistributedNames(), ", "))
		intensities = fs.String("intensities", "0.3,0.6,1.0", "comma-separated fault intensities")
		engines     = fs.String("engines", "both", "sync | async | both")
		retries     = fs.Int("retries", 0, "reliable retry budget (0 = default)")
		rounds      = fs.Int("rounds", 0, "quiescence budget (0 = chaos default)")
		httpSweep   = fs.Bool("http", false, "also sweep through the service HTTP layer")
		verbose     = fs.Bool("v", false, "per-scenario detail")

		churn       = fs.Bool("churn", false, "run the churn-under-faults session sweep instead")
		churnEpochs = fs.Int("churn-epochs", 12, "epochs per replayed delta stream")
		drops       = fs.String("drops", "0.1,0.3", "comma-separated drop rates for the churn fault grid")
		reliableRep = fs.Bool("reliable", true, "wrap the churn repair protocol in the ack/retransmit layer")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	engs, err := parseEngines(*engines)
	if err != nil {
		return nil, err
	}
	sw := &sweeps{verbose: *verbose}
	if *churn {
		rates, err := parseIntensities(*drops)
		if err != nil {
			return nil, err
		}
		for _, eng := range engs {
			sw.churn = append(sw.churn, chaos.ChurnConfig{
				Seeds:      *seeds,
				BaseSeed:   *seed,
				N:          *n,
				AvgDegree:  *deg,
				Epochs:     *churnEpochs,
				DropRates:  rates,
				Reliable:   *reliableRep,
				MaxRetries: *retries,
				MaxRounds:  *rounds,
				Engine:     eng,
			})
		}
		return sw, nil
	}

	levels, err := parseIntensities(*intensities)
	if err != nil {
		return nil, err
	}
	cell := chaos.Config{
		Seeds:      *seeds,
		BaseSeed:   *seed,
		N:          *n,
		AvgDegree:  *deg,
		Algorithm:  *algoName,
		MaxRetries: *retries,
		MaxRounds:  *rounds,
	}
	for _, intensity := range levels {
		for _, eng := range engs {
			cell.Intensity, cell.Engine = intensity, eng
			sw.faults = append(sw.faults, cell)
		}
	}
	if *httpSweep {
		cell.Intensity, cell.Engine = levels[len(levels)-1], simnet.EngineSync
		sw.http = &cell
	}
	return sw, nil
}

// run parses args, runs the sweeps they name and writes the report to w;
// it fails on any invariant violation.
func run(w io.Writer, args []string) error {
	sw, err := parse(args)
	if err != nil {
		return err
	}
	if sw.churn != nil {
		return runChurn(w, sw)
	}

	violations := 0
	for _, cfg := range sw.faults {
		rep, err := chaos.Run(cfg)
		if err != nil {
			return err
		}
		report(w, rep, cfg, false, sw.verbose)
		violations += rep.Violations
	}

	if sw.http != nil {
		svc := service.New(service.Options{})
		srv := httptest.NewServer(svc.Handler())
		rep, err := chaos.RunWith(*sw.http, chaos.HTTPRunner(srv.URL, srv.Client()))
		srv.Close()
		svc.Close()
		if err != nil {
			return err
		}
		report(w, rep, *sw.http, true, sw.verbose)
		violations += rep.Violations
	}

	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	fmt.Fprintln(w, "chaos: all sweeps clean — every run converged exactly or failed detectably")
	return nil
}

// runChurn executes the churn-under-faults sweep across (engine × drop
// rate × seed) cells and exits nonzero on any audited violation.
func runChurn(w io.Writer, sw *sweeps) error {
	violations := 0
	for _, cfg := range sw.churn {
		rep, err := chaos.RunChurn(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s %s\n", fmt.Sprintf("churn async=%v:", cfg.Engine == simnet.EngineAsync), rep.Summary())
		for _, c := range rep.Cells {
			switch {
			case c.Violated > 0:
				fmt.Fprintf(w, "  drop=%.2f seed %-6d VIOLATION (%d/%d epochs): %s\n",
					c.DropRate, c.Seed, c.Violated, c.Epochs, c.Detail)
				fmt.Fprintf(w, "    replay: %s\n", cfg.Replay(c.DropRate, c.Seed))
			case sw.verbose:
				fmt.Fprintf(w, "  drop=%.2f seed %-6d %d epochs: %d converged, %d degraded, retries=%d escalations=%d msgs=%d\n",
					c.DropRate, c.Seed, c.Epochs, c.Converged, c.Degraded, c.Retries, c.Escalations, c.Messages)
			}
		}
		violations += rep.Violations
	}
	if violations > 0 {
		return fmt.Errorf("%d churn epoch violations", violations)
	}
	fmt.Fprintln(w, "chaos: churn sweep clean — every epoch converged exactly or degraded detectably")
	return nil
}

// report prints one sweep's verdict, its phase totals and, per scenario,
// each violation with its replay line (every scenario with -v).
func report(w io.Writer, rep *chaos.Report, cfg chaos.Config, http, verbose bool) {
	label := fmt.Sprintf("algo=%s intensity=%.2f async=%v", cfg.Algorithm, cfg.Intensity, cfg.Engine == simnet.EngineAsync)
	if http {
		label = "http service sweep"
	}
	fmt.Fprintf(w, "%-28s %s\n", label+":", rep.Summary())
	if len(rep.PhaseTotals) > 0 {
		fmt.Fprint(w, "  phases: ")
		for i, sp := range rep.PhaseTotals {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%s msgs=%d rtx=%d", sp.Name, sp.Messages, sp.Retransmits)
		}
		fmt.Fprintln(w)
	}
	for _, s := range rep.Scenarios {
		switch {
		case s.Outcome == chaos.Violated:
			fmt.Fprintf(w, "  seed %-6d VIOLATION: %s\n", s.Seed, s.Detail)
			fmt.Fprintf(w, "    replay: %s\n", cfg.Replay(s.Seed, http))
		case verbose && s.Outcome == chaos.Degraded:
			fmt.Fprintf(w, "  seed %-6d degraded: %s\n", s.Seed, s.Detail)
		case verbose:
			fmt.Fprintf(w, "  seed %-6d converged: msgs=%d retransmits=%d dropped=%d ticks=%d\n",
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
