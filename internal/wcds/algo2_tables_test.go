package wcds

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
)

// TestAlgo2TablesDigest pins every node's Tables from
// Algo2DistributedDetailed: the 1-hop list as returned, the 2-hop and
// 3-hop maps as key-sorted pairs, and the node's WCDS role. Both selection
// modes run on the sync, event and scrambled async engines over three
// ~150-node unit-disk scenes; each (mode, engine) cell hashes its three
// scenes in order. The constants were recorded from the implementation
// that kept the Deferred candidates and the 3-hop records in maps, so a
// change to how Algorithm II stores its state must leave them unchanged.
func TestAlgo2TablesDigest(t *testing.T) {
	var scenes []*udg.Network
	for _, seed := range []int64{3, 17, 29} {
		nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(seed)), 150, 9, 300)
		if err != nil {
			t.Fatal(err)
		}
		scenes = append(scenes, nw)
	}
	engines := []struct {
		name string
		spec RunSpec
	}{
		{"sync", RunSpec{Engine: simnet.EngineSync}},
		{"event", RunSpec{Engine: simnet.EngineEvent}},
		{"async", RunSpec{Engine: simnet.EngineAsync, ScheduleSeed: 5}},
	}
	want := map[string]string{
		"deferred/sync":  "7033e5cf681fa75e",
		"deferred/event": "7033e5cf681fa75e",
		"deferred/async": "7033e5cf681fa75e",
		"eager/sync":     "9aff50225b08ffc0",
		"eager/event":    "6340f4a9c7b8a64c",
		"eager/async":    "c6e8fa981a98a8ef",
	}
	for _, mode := range []struct {
		name string
		mode SelectionMode
	}{{"deferred", Deferred}, {"eager", Eager}} {
		for _, eng := range engines {
			name := mode.name + "/" + eng.name
			h := sha256.New()
			for i, nw := range scenes {
				_, tables, _, err := Algo2DistributedDetailed(nw.G, nw.ID, mode.mode, eng.spec.Runner())
				if err != nil {
					t.Fatalf("%s scene %d: %v", name, i, err)
				}
				fmt.Fprintf(h, "scene %d\n", i)
				for v, tb := range tables {
					hashTables(h, v, tb)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[name] {
				t.Errorf("%s: tables digest %s, want %s", name, got, want[name])
			}
		}
	}
}

func hashTables(h hash.Hash, v int, tb Tables) {
	fmt.Fprintf(h, "%d id=%d mis=%v add=%v one=%v two=", v, tb.ID, tb.IsMISDominator, tb.IsAdditional, tb.OneHopDoms)
	for _, dom := range sortedKeys(tb.TwoHopDoms) {
		fmt.Fprintf(h, "(%d,%d)", dom, tb.TwoHopDoms[dom])
	}
	h.Write([]byte(" three="))
	for _, dom := range sortedKeys(tb.ThreeHopDoms) {
		fmt.Fprintf(h, "(%d,%v)", dom, tb.ThreeHopDoms[dom])
	}
	h.Write([]byte("\n"))
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestAlgo2TablesObeyPackingLemmas checks the paper's packing lemmas on
// the protocol's own tables over uniform unit-disk scenes: every non-MIS
// node has at most 5 adjacent MIS dominators (Lemma 1), and every MIS
// dominator knows at most 23 MIS dominators exactly two hops away and at
// most 47 within three hops (Lemma 2). Additional dominators also join the
// 1-hop lists, so those are filtered to MIS dominators first.
func TestAlgo2TablesObeyPackingLemmas(t *testing.T) {
	const n = 2000
	for _, deg := range []float64{6, 10, 20} {
		nw := udg.GenUniform(rand.New(rand.NewSource(int64(deg))), n, udg.SideForAvgDegree(n, deg))
		res, tables, _, err := Algo2DistributedDetailed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineEvent))
		if err != nil {
			t.Fatalf("degree %v: %v", deg, err)
		}
		isMIS := make(map[int]bool, len(res.MISDominators))
		for _, v := range res.MISDominators {
			isMIS[nw.ID[v]] = true
		}
		maxOne, maxTwo, maxWithin3 := 0, 0, 0
		for v, tb := range tables {
			if tb.IsMISDominator {
				two, three := len(tb.TwoHopDoms), len(tb.ThreeHopDoms)
				if two > 23 || two+three > 47 {
					t.Errorf("degree %v: MIS dominator %d knows %d dominators at 2 hops and %d at 3 hops, Lemma 2 allows 23 and 47 in all",
						deg, v, two, three)
				}
				maxTwo, maxWithin3 = max(maxTwo, two), max(maxWithin3, two+three)
				continue
			}
			mis := 0
			for _, id := range tb.OneHopDoms {
				if isMIS[id] {
					mis++
				}
			}
			if mis > 5 {
				t.Errorf("degree %v: node %d has %d adjacent MIS dominators, Lemma 1 allows 5", deg, v, mis)
			}
			maxOne = max(maxOne, mis)
		}
		t.Logf("degree %v: max adjacent MIS %d, max 2-hop %d, max within 3 hops %d", deg, maxOne, maxTwo, maxWithin3)
	}
}
