// Package exp is the experiment harness: one runner per experiment in
// DESIGN.md's per-experiment index (E1–E12, ablations A1–A2), each
// regenerating the numbers recorded in EXPERIMENTS.md and checking the
// paper's bound for that claim.
//
// The paper itself reports no measurement tables (it is analytical), so
// each experiment validates a stated theorem/lemma empirically and records
// the measured distributions; see DESIGN.md §2.
//
// Every scene is a batch cell: the network batch.Generate draws for a
// (size, degree, seed) triple. The sweep-shaped experiments (E5–E9, A1)
// run as batch.Specs through batch.Run and aggregate its rows; the others
// draw their cells with batch.Generate and measure them directly.
package exp

import (
	"context"
	"fmt"
	"strings"

	"wcdsnet/internal/batch"
)

// Config controls experiment scale.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// Trials is the number of random instances per table row.
	Trials int
	// Quick shrinks instance sizes for use in unit tests and smoke runs.
	Quick bool
}

// DefaultConfig is the configuration used to produce EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: 20030519, Trials: 20} // ICDCS 2003 conference date
}

// QuickConfig is a fast configuration for tests.
func QuickConfig() Config {
	return Config{Seed: 1, Trials: 3, Quick: true}
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates the paper claim under test.
	Claim string
	// Table is the rendered measurement table.
	Table string
	// Pass reports whether every checked bound held.
	Pass bool
	// Notes carries free-form observations.
	Notes []string
}

// String renders the result as a markdown-ish section.
func (r Result) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "## %s — %s [%s]\n\nClaim: %s\n\n```\n%s```\n", r.ID, r.Title, status, r.Claim, r.Table)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner func(cfg Config) (Result, error)

// All returns the experiment runners in index order.
func All() []Runner {
	return []Runner{
		RunE1, RunE2, RunE3, RunE4, RunE5,
		RunE6, RunE7, RunE8, RunE9, RunE10,
		RunE11, RunE12,
	}
}

// RunAll executes every experiment and returns the results; it stops at the
// first infrastructure error (bound violations are reported via Pass, not
// via errors).
func RunAll(cfg Config) ([]Result, error) {
	var out []Result
	for _, run := range All() {
		res, err := run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// sizes returns experiment instance sizes, shrunk under Quick.
func (c Config) sizes(full ...int) []int {
	if !c.Quick {
		return full
	}
	out := make([]int, 0, len(full))
	for _, n := range full {
		if n/4 >= 10 {
			out = append(out, n/4)
		}
	}
	if len(out) == 0 {
		out = []int{20}
	}
	if len(out) > 2 {
		out = out[:2]
	}
	return out
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 1
	}
	return c.Trials
}

// seeds returns the cell seeds of count trials of experiment k (1–12 for
// E1–E12, 101 and 102 for A1 and A2): trial t's is cfg.Seed + 1000·k + t.
// An experiment's trials never share a random stream, and a trial's scene
// does not depend on how many trials or experiments ran before it.
func (c Config) seeds(k, count int) []int64 {
	out := make([]int64, count)
	for t := range out {
		out[t] = c.Seed + 1000*int64(k) + int64(t)
	}
	return out
}

// cells is a finished sweep, addressed by cell.
type cells struct {
	spec    *batch.Spec
	results []batch.Result
}

// sweep runs spec through the batch executor (GOMAXPROCS workers; the rows
// are the same for any count). A failed row is an error: every cell of an
// experiment must be measured.
func sweep(spec *batch.Spec) (cells, error) {
	rep, err := batch.Run(context.Background(), spec, batch.Options{})
	if err != nil {
		return cells{}, err
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			return cells{}, fmt.Errorf("exp: n=%d deg=%g seed=%d %s: %s", r.Size, r.Degree, r.Seed, r.Workload, r.Err)
		}
	}
	return cells{spec, rep.Results}, nil
}

// at returns the rows of workload wi over every seed of the cell
// (Sizes[si], Degrees[di]), in seed order. The spec has no topology axis.
func (c cells) at(si, di, wi int) []batch.Result {
	seeds, workloads := len(c.spec.Seeds), len(c.spec.Workloads)
	lo := (si*len(c.spec.Degrees) + di) * seeds * workloads
	out := make([]batch.Result, seeds)
	for k := range out {
		out[k] = c.results[lo+k*workloads+wi]
	}
	return out
}

// mean averages one integer field over rows.
func mean(rows []batch.Result, field func(batch.Result) int) float64 {
	sum := 0
	for _, r := range rows {
		sum += field(r)
	}
	return float64(sum) / float64(len(rows))
}

// passMark renders a boolean as a table cell.
func passMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
