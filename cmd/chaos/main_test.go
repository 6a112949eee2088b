package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wcdsnet/internal/chaos"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// corrupt claims every node is a dominator: a valid WCDS, but neither an
// independent MIS nor the reference, so every scenario is a violation.
func corrupt(nw *udg.Network, plan simnet.FaultPlan, cfg chaos.Config) (wcds.Result, simnet.Stats, []obs.Span, error) {
	all := make([]int, nw.N())
	for i := range all {
		all[i] = i
	}
	return wcds.Result{Dominators: all, MISDominators: all, Spanner: wcds.WeaklyInduced(nw.G, all)},
		simnet.Stats{}, nil, nil
}

// replayArgs returns the flags of every "replay:" line in out.
func replayArgs(t *testing.T, out string) [][]string {
	t.Helper()
	var args [][]string
	for _, line := range strings.Split(out, "\n") {
		cmd, ok := strings.CutPrefix(strings.TrimSpace(line), "replay: ")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(cmd, "go run ./cmd/chaos ")
		if !ok {
			t.Fatalf("replay line %q does not run cmd/chaos", line)
		}
		args = append(args, strings.Fields(rest))
	}
	return args
}

// A planted violation is reported with a replay line, and that line, parsed
// back through the command's own flags, reruns exactly the failing
// scenario: one scenario, same seed, outcome and detail. The same sweep
// run clean prints no replay line.
func TestViolationReplaysFromItsLine(t *testing.T) {
	sweep := []string{"-seeds", "3", "-seed", "11", "-n", "15", "-deg", "4.3",
		"-intensities", "0.35", "-engines", "async", "-retries", "3", "-rounds", "9000"}
	var clean bytes.Buffer
	if err := run(&clean, sweep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "replay:") {
		t.Errorf("clean sweep printed a replay line:\n%s", clean.String())
	}

	sw, err := parse(sweep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sw.faults[0]
	rep, err := chaos.RunWith(cfg, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, rep, cfg, false, false)
	lines := replayArgs(t, out.String())
	if rep.Violations != 3 || len(lines) != 3 {
		t.Fatalf("%d violations, %d replay lines, want 3 each:\n%s", rep.Violations, len(lines), out.String())
	}
	for i, args := range lines {
		re, err := parse(args)
		if err != nil {
			t.Fatalf("replay line %d: %v", i, err)
		}
		want := rep.Scenarios[i]
		single := cfg
		single.Seeds, single.BaseSeed = 1, want.Seed
		if len(re.faults) != 1 || re.http != nil || re.churn != nil || re.faults[0] != single {
			t.Fatalf("replay line %d parses to %+v, want the one sweep %+v", i, re, single)
		}
		got, err := chaos.RunWith(re.faults[0], corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Scenarios) != 1 {
			t.Fatalf("replay line %d ran %d scenarios, want 1", i, len(got.Scenarios))
		}
		if s := got.Scenarios[0]; s.Seed != want.Seed || s.Outcome != want.Outcome || s.Detail != want.Detail {
			t.Errorf("replay line %d: seed %d %v %q, want seed %d %v %q",
				i, s.Seed, s.Outcome, s.Detail, want.Seed, want.Outcome, want.Detail)
		}
	}
}

// The HTTP sweep's and a churn cell's replay lines parse back to the one
// cell they name.
func TestReplayLinesParseBack(t *testing.T) {
	sw, err := parse([]string{"-seed", "4", "-n", "22", "-deg", "6.1", "-intensities", "0.2,0.9", "-http"})
	if err != nil {
		t.Fatal(err)
	}
	want := *sw.http
	want.Seeds, want.BaseSeed = 1, 5
	re, err := parse(replayArgs(t, "replay: "+sw.http.Replay(5, true))[0])
	if err != nil {
		t.Fatal(err)
	}
	if re.http == nil || *re.http != want || len(re.faults) != 1 || re.faults[0] != want {
		t.Errorf("http replay parses to %+v, want the sync sweep and the http sweep of %+v", re, want)
	}

	sw, err = parse([]string{"-churn", "-seed", "2", "-n", "30", "-deg", "7.5", "-engines", "both",
		"-drops", "0.15,0.3", "-churn-epochs", "5", "-reliable=false", "-retries", "4", "-rounds", "700"})
	if err != nil {
		t.Fatal(err)
	}
	cc := sw.churn[1]
	wantChurn := cc
	wantChurn.Seeds, wantChurn.BaseSeed, wantChurn.DropRates = 1, 3, []float64{0.15}
	re, err = parse(replayArgs(t, "replay: "+cc.Replay(0.15, 3))[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(re.churn) != 1 || !reflect.DeepEqual(re.churn[0], wantChurn) {
		t.Errorf("churn replay parses to %+v, want %+v", re.churn, wantChurn)
	}
}
