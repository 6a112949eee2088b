package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// fullTables is the heading after which EXPERIMENTS.md holds the program's
// output verbatim.
const fullTables = "## Full tables (cmd/experiments output)\n\n"

// timing matches the per-experiment wall-time lines, the only part of the
// output that differs between runs.
var timing = regexp.MustCompile(`(?m)^\([A-Z][0-9]+ completed in [^)]*\)\n`)

// TestRecordMatchesOutput holds EXPERIMENTS.md to the program: its "Full
// tables" section must equal a default run's output, timing lines aside.
// Regenerate the section with `go run ./cmd/experiments` when it fails.
func TestRecordMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	record, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(record), fullTables)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", strings.TrimSpace(fullTables))
	}
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	want, got = timing.ReplaceAllString(want, ""), timing.ReplaceAllString(got, "")
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("EXPERIMENTS.md differs from the output at table line %d:\nrecord: %q\noutput: %q", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md has %d table lines, the output %d", len(wl), len(gl))
}
