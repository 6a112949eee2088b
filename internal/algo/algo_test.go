package algo

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func testNetwork(t *testing.T, seed int64, n int, deg float64) *udg.Network {
	t.Helper()
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(seed)), n, deg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRegistryNamesAndAliases(t *testing.T) {
	want := []string{"I", "II", "mis-cds", "greedy-wcds", "greedy-cds", "weighted-ds", "prune-cds"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !strings.Contains(NamesString(), n) {
			t.Errorf("NamesString() %q missing %q", NamesString(), n)
		}
	}
	aliases := map[string]string{
		"1": "I", "algo1": "I", "ALGOI": "I",
		"2": "II", "algo2": "II", "ii": "II",
		"miscds": "mis-cds", "mis-tree": "mis-cds",
		"mwds": "weighted-ds", "butenko": "prune-cds",
		" II ": "II",
	}
	for alias, canonical := range aliases {
		c, ok := Lookup(alias)
		if !ok {
			t.Errorf("Lookup(%q) missed", alias)
			continue
		}
		if c.Name != canonical {
			t.Errorf("Lookup(%q) = %s, want %s", alias, c.Name, canonical)
		}
	}
	if _, ok := Lookup("III"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
	if got := DistributedNames(); !reflect.DeepEqual(got, []string{"I", "II"}) {
		t.Fatalf("DistributedNames() = %v", got)
	}
}

// TestEveryConstructionProducesAValidSet runs each registered construction
// centralized on one network and checks its own validity predicate plus a
// non-nil spanner — the invariant the batch engine, service and bench all
// rely on.
func TestEveryConstructionProducesAValidSet(t *testing.T) {
	nw := testNetwork(t, 7, 120, 8)
	for _, c := range All() {
		in := Input{G: nw.G, IDs: nw.ID}
		if c.Caps.Weighted {
			in.Weights = Weights(3, nw.N())
		}
		res, err := c.Run(in)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if len(res.Dominators) == 0 {
			t.Errorf("%s: empty dominator set", c.Name)
		}
		if !c.Valid(nw.G, res.Dominators) {
			t.Errorf("%s: result fails its own %s validity predicate", c.Name, c.Kind)
		}
		if res.Spanner == nil {
			t.Errorf("%s: nil spanner", c.Name)
		}
	}
}

func TestWeights(t *testing.T) {
	if w := Weights(0, 5); !reflect.DeepEqual(w, []float64{1, 1, 1, 1, 1}) {
		t.Fatalf("Weights(0, 5) = %v, want unit weights", w)
	}
	a, b := Weights(9, 50), Weights(9, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Weights is not deterministic for a fixed seed")
	}
	for i, v := range a {
		if v < 1 || v >= 2 {
			t.Fatalf("weight %d = %v outside [1, 2)", i, v)
		}
	}
	if reflect.DeepEqual(Weights(9, 50), Weights(10, 50)) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestDistributedRun(t *testing.T) {
	nw := testNetwork(t, 11, 60, 7)

	// The distributed protocols must reproduce their centralized references.
	for _, name := range DistributedNames() {
		c, _ := Lookup(name)
		res, st, err := DistributedRun(c, nw.G, nw.ID, wcds.Deferred, false, wcds.EngineRunner(simnet.EngineSync))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Messages == 0 {
			t.Errorf("%s: distributed run reported zero messages", name)
		}
		want, err := c.Run(Input{G: nw.G, IDs: nw.ID})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Dominators, want.Dominators) {
			t.Errorf("%s: distributed dominators %v != centralized %v", name, res.Dominators, want.Dominators)
		}
	}

	// Centralized-only constructions are rejected with the distributed list.
	c, _ := Lookup("greedy-cds")
	if _, _, err := DistributedRun(c, nw.G, nw.ID, wcds.Deferred, false, wcds.EngineRunner(simnet.EngineSync)); err == nil {
		t.Fatal("DistributedRun accepted a centralized-only construction")
	} else if !strings.Contains(err.Error(), "I, II") {
		t.Errorf("error %q does not enumerate the distributed protocols", err)
	}
	if _, _, err := DistributedRun(nil, nw.G, nw.ID, wcds.Deferred, false, wcds.EngineRunner(simnet.EngineSync)); err == nil {
		t.Fatal("DistributedRun accepted a nil construction")
	}
}
