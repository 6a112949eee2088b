package main

import (
	"errors"
	"os"
	"sort"
	"testing"
	"time"
)

func readBenchmarkJSON() ([]byte, error) { return os.ReadFile("../BENCHMARK.json") }

// exactCounts are the per-layer metrics that are exact counts over the
// traced prefix: the same seed must reproduce them digit for digit.
var exactCounts = []string{
	"udg.gen_attempts", "simnet.messages_per_op", "simnet.deliveries_per_op",
	"simnet.rounds_per_op", "maintain.nodes_touched", "fleet.row_bytes",
}

// tracedCounts runs one traced segment of w (just its pinned prefix) on a
// fresh instance and returns its exact counters.
func tracedCounts(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	setup, err := w.prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(true)
	if err != nil {
		t.Fatal(err)
	}
	st := loop(e, w, time.Millisecond, true)
	if err := e.verify(); err != nil {
		t.Fatal(err)
	}
	e.close()
	if st.failed > 0 || len(st.badOutputs) > 0 {
		t.Fatalf("%s: %d failed ops: %v", w.name, st.failed, st.badOutputs)
	}
	if st.prefixOps != w.clients*w.prefix {
		t.Fatalf("%s: traced prefix has %d ops, want %d", w.name, st.prefixOps, w.clients*w.prefix)
	}
	if l := newLedger(st.spans); l.total() != l.wall {
		t.Fatalf("%s: ledger rows sum to %v, traced wall is %v", w.name, l.total(), l.wall)
	}
	return st.counts
}

// At one seed, two traced runs report the same exact counts digit for
// digit, whatever the timing of either run.
func TestTracedExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced prefix twice")
	}
	for _, name := range names() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			a, b := tracedCounts(t, w, 5), tracedCounts(t, w, 5)
			keys := make([]string, 0, len(a))
			for k := range a {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if len(keys) == 0 {
				t.Fatal("no exact counts recorded")
			}
			for _, k := range keys {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v", k, a[k], b[k])
				}
			}
			if len(a) != len(b) {
				t.Errorf("counter sets differ: %d vs %d", len(a), len(b))
			}
			for _, k := range exactCounts {
				if _, ok := a[k]; ok {
					t.Logf("%s = %v", k, a[k]/float64(w.clients*w.prefix))
				}
			}
		})
	}
}

// A wrong output is caught: a corrupted repeat record, a corrupted sweep
// digest and an out-of-order session stream each fail their check.
func TestCorruptedOutputsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process services")
	}
	t.Run("serve", func(t *testing.T) {
		e, err := setupFor("serve", 3)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		se := e.(*serveEnv)
		for i := 0; i < 200; i++ {
			op := se.gen.op(0, i)
			if op.orig != i {
				se.firsts[0][op.orig] = []byte("corrupted")
				if _, err := e.do(0, i, nil); !isBadOutput(err) {
					t.Fatalf("corrupted repeat record not caught: %v", err)
				}
				return
			}
			if _, err := e.do(0, i, nil); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatal("no repeat in 200 ops")
	})
	t.Run("sweep-fleet", func(t *testing.T) {
		e, err := setupFor("sweep-fleet", 3)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		if _, err := e.do(0, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.verify(); err != nil {
			t.Fatalf("honest digest rejected: %v", err)
		}
		e.(*sweepEnv).digests[0] = "corrupted"
		if err := e.verify(); err == nil {
			t.Fatal("corrupted sweep digest not caught")
		}
	})
	t.Run("session-churn", func(t *testing.T) {
		e, err := setupFor("session-churn", 3)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		if _, err := e.do(0, 0, nil); err != nil {
			t.Fatal(err)
		}
		e.(*churnEnv).streams[0][0].seq++ // expect a sequence number the server skips
		if _, err := e.do(0, 1, nil); !isBadOutput(err) {
			t.Fatalf("out-of-order event not caught: %v", err)
		}
	})
}

// setupFor builds one untraced instance of the named workload.
func setupFor(name string, seed int64) (env, error) {
	setup, err := workloads[name].prepare(seed)
	if err != nil {
		return nil, err
	}
	return setup(false)
}

func isBadOutput(err error) bool {
	var bad *badOutput
	return errors.As(err, &bad)
}
