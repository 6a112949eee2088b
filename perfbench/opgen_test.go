package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"wcdsnet"
)

// opStream renders a seed's operation sequence as bytes: serve request
// bodies, sweep specs and both sessions' delta streams for two clients.
func opStream(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	gen, err := newServeGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 300; i++ {
			buf.Write(gen.op(c, i).body)
			buf.WriteByte('\n')
		}
	}
	for i := -1; i < 5; i++ {
		b, err := json.Marshal(sweepSpec(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	for c := 0; c < 2; c++ {
		for _, lossy := range []bool{false, true} {
			nw, err := wcdsnet.GenerateNetwork(churnSessionSeed(seed, c, lossy), churnNodes, churnDegree)
			if err != nil {
				t.Fatal(err)
			}
			m := newChurnMirror(nw, churnDeltaRNG(seed, c, lossy))
			for e := 0; e < 300; e++ {
				b, err := json.Marshal(m.epoch())
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
				buf.WriteByte('\n')
			}
		}
	}
	for i := -1; i < 10; i++ {
		b, _ := json.Marshal(scaleSeed(seed, i))
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestOperationSequenceIsPinnedBySeed(t *testing.T) {
	a, b := opStream(t, 42), opStream(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different operation sequences")
	}
	if bytes.Equal(a, opStream(t, 43)) {
		t.Fatal("different seeds produced the same operation sequence")
	}
}

// Each part of the sequence differs between seeds on its own, not only
// in aggregate.
func TestSequencePartsDependOnSeed(t *testing.T) {
	g1, err := newServeGen(1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newServeGen(2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g1.op(0, 0).body, g2.op(0, 0).body) && bytes.Equal(g1.op(0, 1).body, g2.op(0, 1).body) {
		t.Error("serve requests do not depend on the seed")
	}
	s1, _ := json.Marshal(sweepSpec(1, 0))
	s2, _ := json.Marshal(sweepSpec(2, 0))
	if bytes.Equal(s1, s2) {
		t.Error("sweep specs do not depend on the seed")
	}
	if churnSessionSeed(1, 0, false) == churnSessionSeed(2, 0, false) || scaleSeed(1, 0) == scaleSeed(2, 0) {
		t.Error("session or scale scenes do not depend on the seed")
	}
}

// The serve mix is what the workload claims: about a quarter repeats,
// about a third of fresh requests explicit, repeats never reaching past
// the window, and no two fresh requests alike.
func TestServeMix(t *testing.T) {
	gen, err := newServeGen(7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	seen := map[string]int{}
	repeats, explicit, fresh := 0, 0, 0
	for i := 0; i < n; i++ {
		op := gen.op(0, i)
		if op.orig != i {
			repeats++
			if i-op.orig > serveMaxReach {
				t.Fatalf("op %d repeats op %d, beyond the %d kept", i, op.orig, serveMaxReach)
			}
			continue
		}
		fresh++
		if op.explicit {
			explicit++
		}
		if j, dup := seen[string(op.body)]; dup {
			t.Fatalf("fresh ops %d and %d have the same body", j, i)
		}
		seen[string(op.body)] = i
	}
	if share := float64(repeats) / n; share < 0.22 || share > 0.28 {
		t.Errorf("repeat share %.3f, want about %.2f", share, serveRepeatShare)
	}
	if share := float64(explicit) / float64(fresh); share < 0.29 || share > 0.38 {
		t.Errorf("explicit share %.3f, want about 1/3", share)
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics the
// program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workload), len(workloads))
	}
	for _, w := range b.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not registered", w.Name)
		}
	}
}
