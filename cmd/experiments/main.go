// Command experiments runs the full claim-validation suite (E1–E12 and the
// ablations A1–A2 from DESIGN.md) and prints the tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-quick] [-trials N] [-seed S] [-only E6]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wcdsnet/internal/exp"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and writes each selected experiment's section to w,
// followed by its "(ID completed in …)" timing line.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick  = fs.Bool("quick", false, "small instances (smoke run)")
		trials = fs.Int("trials", 0, "trials per row (0 = config default)")
		seed   = fs.Int64("seed", 0, "seed (0 = config default)")
		only   = fs.String("only", "", "run a single experiment, e.g. E6")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	experiments := exp.All()
	failed := 0
	for i, runner := range append(experiments, exp.Ablations()...) {
		id := fmt.Sprintf("E%d", i+1)
		if i >= len(experiments) {
			id = fmt.Sprintf("A%d", i+1-len(experiments))
		}
		if *only != "" && !strings.EqualFold(*only, id) {
			continue
		}
		start := time.Now()
		res, err := runner(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if _, err := fmt.Fprintf(w, "%s\n(%s completed in %s)\n\n", res, res.ID, time.Since(start).Round(time.Millisecond)); err != nil {
			return err
		}
		if !res.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their bound checks", failed)
	}
	return nil
}
