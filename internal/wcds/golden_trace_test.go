package wcds

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"wcdsnet/internal/graph"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/udg"
)

// TestSyncEngineGoldenTrace pins the synchronous engine's exact schedule:
// every send and delivery event (kind, endpoints, round, payload type) and
// the final Stats of a set of runs hash to values recorded from the
// sort-based engine that preceded the counting-order delivery. Any change
// to the per-round delivery order, the fault fates or the trace callback
// order shows up here as a hash mismatch.
func TestSyncEngineGoldenTrace(t *testing.T) {
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(7)), 150, 9, 300)
	if err != nil {
		t.Fatal(err)
	}
	line := goldenLineGraph(256)
	lineIDs := rand.New(rand.NewSource(11)).Perm(line.N())
	plan := simnet.FaultPlan{
		Seed:        5,
		DropRate:    0.15,
		DupRate:     0.1,
		DelayMin:    0,
		DelayMax:    2,
		ReorderRate: 0.2,
		Crashes:     []simnet.CrashWindow{{Node: 3, From: 4, Until: 20}},
		Partitions:  []simnet.PartitionWindow{{From: 6, Until: 18, Group: []int{0, 1, 2, 5, 8, 13}}},
	}
	type run func(opts ...simnet.Option) (simnet.Stats, error)
	cases := []struct {
		name string
		run  run
		want [2]string // without, with WithScramble
	}{
		{"algo1", func(opts ...simnet.Option) (simnet.Stats, error) {
			_, st, err := Algo1Distributed(nw.G, nw.ID, EngineRunner(simnet.EngineSync, opts...))
			return st, err
		}, [2]string{
			"686306ad5bcc0860b821ba15e77165d9ad017080dad86675f650097a55698d55",
			"32d0989a6556d1a55783f2f378d0cfab738afbc7d4d16a703a3460586d3dfdf7",
		}},
		{"algo2-deferred", func(opts ...simnet.Option) (simnet.Stats, error) {
			_, st, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync, opts...))
			return st, err
		}, [2]string{
			"0546ea4f97122cac4ff0f5751ff6780d4b4d922786b1ac0b8bfd6642e5b2ecbf",
			"afccbe59bfb39dceb9ee63508a0b26f78cd9796bd9f9393125a3c6b26f61fb5f",
		}},
		{"algo2-reliable-faults", func(opts ...simnet.Option) (simnet.Stats, error) {
			opts = append(opts, simnet.WithFaults(plan))
			_, st, err := Algo2Distributed(nw.G, nw.ID, Deferred,
				ReliableRunner(simnet.EngineSync, reliable.Options{}, opts...))
			return st, err
		}, [2]string{
			"3cbb1f477188679eb64e93a70b71cfa978b1538b53300114d7e8394e11c9aaee",
			"b1c8d1bcb628db4858d4984bcccb608553a307ea2f3a034bffe509d8a3a38b73",
		}},
		{"algo2-reliable-long-delay", func(opts ...simnet.Option) (simnet.Stats, error) {
			long := simnet.FaultPlan{Seed: 3, DropRate: 0.1, DupRate: 0.1, DelayMin: 40, DelayMax: 90, ReorderRate: 0.1}
			opts = append(opts, simnet.WithFaults(long), simnet.WithMaxRounds(1_000_000))
			_, st, err := Algo2Distributed(nw.G, nw.ID, Deferred,
				ReliableRunner(simnet.EngineSync, reliable.Options{}, opts...))
			return st, err
		}, [2]string{
			"2b8cdbc5bfdfdf752c3f7be16d47992b12d70d7187e56cffd9ad63934f964733",
			"5dd2560827b957d8806c93d2539820786d08a4d621f9379543d8ccc46b2905c1",
		}},
		{"algo1-line", func(opts ...simnet.Option) (simnet.Stats, error) {
			_, st, err := Algo1Distributed(line, lineIDs, EngineRunner(simnet.EngineSync, opts...))
			return st, err
		}, [2]string{
			"14767c89eb04abcff1d44a663f606fd37857f0f178b42b732ff01a2b0c7a4f84",
			"0996a918663625dc4be82b578a73550168986d7325e912d648fbe79f8eafaa01",
		}},
	}
	for _, tc := range cases {
		for i, scrambled := range []bool{false, true} {
			h := sha256.New()
			opts := []simnet.Option{simnet.WithTrace(func(ev simnet.Event) { hashEvent(h, ev) })}
			if scrambled {
				opts = append(opts, simnet.WithScramble(rand.New(rand.NewSource(99))))
			}
			st, err := tc.run(opts...)
			fmt.Fprintf(h, "stats %+v err %v\n", st, err)
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want[i] {
				t.Errorf("%s scrambled=%v: trace hash %s, want %s", tc.name, scrambled, got, tc.want[i])
			}
		}
	}
}

func hashEvent(h hash.Hash, ev simnet.Event) {
	fmt.Fprintf(h, "%d %d %d %d %T\n", ev.Kind, ev.From, ev.To, ev.Round, ev.Payload)
}

// goldenLineGraph is a path on n nodes: its rounds carry a handful of
// deliveries each, far fewer than n/16.
func goldenLineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	g.SortAdjacency()
	return g
}
