// Command soak hammers the whole system with randomized instances and
// verifies every paper invariant on each: a release-gate fuzz run.
//
// Per instance: a random topology (uniform / clustered / corridor /
// annulus), random density and size; both algorithms (centralized,
// distributed sync, distributed async-scrambled, zero-knowledge); all
// structural invariants; sampled dilation bounds; routing bound; backbone
// broadcast coverage; a distributed repair round, both lossless and over a
// lossy simnet (seeded 10% drop) through the reliable retransmit layer.
//
// Usage:
//
//	soak [-instances 50] [-seed 1] [-maxn 250] [-v]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"wcdsnet"
	"wcdsnet/internal/maintain"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/route"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		instances = flag.Int("instances", 50, "random instances to verify")
		seed      = flag.Int64("seed", 1, "base seed")
		maxN      = flag.Int("maxn", 250, "maximum node count")
		verbose   = flag.Bool("v", false, "per-instance progress")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	for inst := 0; inst < *instances; inst++ {
		nw, kind := randomInstance(rng, *maxN)
		if nw == nil {
			continue // unlucky disconnected draw
		}
		if err := verifyInstance(rng, nw); err != nil {
			return fmt.Errorf("instance %d (%s, n=%d): %w", inst, kind, nw.N(), err)
		}
		if *verbose {
			fmt.Printf("instance %3d ok: %-9s n=%3d m=%4d\n", inst, kind, nw.N(), nw.G.M())
		}
	}
	fmt.Printf("soak: %d instances verified, 0 violations\n", *instances)
	return nil
}

// randomInstance draws a connected random network of a random topology
// class, or nil when the draw disconnects.
func randomInstance(rng *rand.Rand, maxN int) (*udg.Network, string) {
	n := 20 + rng.Intn(maxN-20)
	switch rng.Intn(4) {
	case 0:
		nw, err := udg.GenConnectedAvgDegree(rng, n, 5+rng.Float64()*15, 500)
		if err != nil {
			return nil, "uniform"
		}
		return nw, "uniform"
	case 1:
		nw := udg.GenClusters(rng, n, 2+rng.Intn(4), 6+rng.Float64()*4, 0.8+rng.Float64())
		if !nw.G.Connected() {
			return nil, "clustered"
		}
		return nw, "clustered"
	case 2:
		nw := udg.GenCorridor(rng, n, 8+rng.Float64()*8, 1.2+rng.Float64())
		if !nw.G.Connected() {
			return nil, "corridor"
		}
		return nw, "corridor"
	default:
		nw := udg.GenAnnulus(rng, n, 2+rng.Float64()*2, 5+rng.Float64()*2)
		if !nw.G.Connected() {
			return nil, "annulus"
		}
		return nw, "annulus"
	}
}

func verifyInstance(rng *rand.Rand, nw *udg.Network) error {
	// Centralized constructions + invariants.
	res1, _, err := wcdsnet.Run(nw, wcdsnet.AlgoI)
	if err != nil {
		return err
	}
	res2, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII)
	if err != nil {
		return err
	}
	if !wcdsnet.IsWCDS(nw, res1.Dominators) {
		return fmt.Errorf("Algorithm I result not a WCDS")
	}
	if !wcdsnet.IsWCDS(nw, res2.Dominators) {
		return fmt.Errorf("Algorithm II result not a WCDS")
	}
	if !mis.IsMaximalIndependent(nw.G, res2.MISDominators) {
		return fmt.Errorf("Algorithm II MIS part invalid")
	}
	if m := mis.MaxMISNeighbors(nw.G, res2.MISDominators); m > 5 {
		return fmt.Errorf("Lemma 1 violated: %d MIS neighbours", m)
	}
	if two, three := mis.PackingCounts(nw.G, res2.MISDominators); two > 23 || three > 47 {
		return fmt.Errorf("Lemma 2 violated: %d/%d", two, three)
	}

	// Distributed equivalences.
	dSync, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.Distributed())
	if err != nil {
		return err
	}
	if !equal(dSync.Dominators, res2.Dominators) {
		return fmt.Errorf("sync distributed Algorithm II diverged")
	}
	dAsync, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineAsync), wcdsnet.WithScheduleSeed(rng.Int63()))
	if err != nil {
		return err
	}
	if !equal(dAsync.Dominators, res2.Dominators) {
		return fmt.Errorf("async distributed Algorithm II diverged")
	}
	zk, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineAsync), wcdsnet.WithScheduleSeed(rng.Int63()), wcdsnet.ZeroKnowledge())
	if err != nil {
		return err
	}
	if !equal(zk.Dominators, res2.Dominators) {
		return fmt.Errorf("zero-knowledge Algorithm II diverged")
	}

	// Dilation bounds on sampled pairs.
	rep, err := wcdsnet.MeasureDilation(nw, res2, 300, rng.Int63())
	if err != nil {
		return err
	}
	if !rep.TopoBoundHolds || !rep.GeoBoundHolds {
		return fmt.Errorf("Theorem 11 violated: %+v", rep)
	}

	// Routing and broadcast.
	resT, tables, _, err := wcdsnet.AlgorithmIIWithTables(nw)
	if err != nil {
		return err
	}
	router, err := wcdsnet.NewRouter(nw, resT, tables)
	if err != nil {
		return err
	}
	for q := 0; q < 40; q++ {
		src, dst := rng.Intn(nw.N()), rng.Intn(nw.N())
		path, err := router.Route(src, dst)
		if err != nil {
			return err
		}
		if h := nw.G.HopDist(src, dst); h > 0 && len(path)-1 > 3*h+2 {
			return fmt.Errorf("routing bound violated %d→%d: %d > 3·%d+2", src, dst, len(path)-1, h)
		}
	}
	relay := route.RelaySet(nw.G, nw.ID, resT, tables)
	if bb := route.Broadcast(nw.G, relay, rng.Intn(nw.N())); !bb.Covered {
		return fmt.Errorf("backbone broadcast failed to cover")
	}

	// One distributed repair round from a corrupted state.
	mask := make([]bool, nw.N())
	for _, v := range res2.MISDominators {
		mask[v] = true
	}
	for k := 0; k < 1+nw.N()/20; k++ {
		mask[rng.Intn(nw.N())] = rng.Intn(2) == 0
	}
	set, _, _, err := maintain.RepairMISDistributed(nw.G, nw.ID, mask,
		func(g *wcdsnet.Graph, procs []simnet.Proc) (simnet.Stats, error) {
			return simnet.RunSync(g, procs)
		})
	if err != nil {
		return err
	}
	if !mis.IsMaximalIndependent(nw.G, set) {
		return fmt.Errorf("distributed repair produced an invalid MIS")
	}

	// The same repair round over a lossy simnet (seeded 10% drop) with the
	// reliable ack/retransmit layer: loss must not cost correctness.
	plan := simnet.FaultPlan{Seed: rng.Int63(), DropRate: 0.1}
	lossy := wcds.RunSpec{Faults: &plan, MaxRounds: 200*nw.N() + 4000, Reliable: true}.Runner()
	lossySet, _, _, err := maintain.RepairMISDistributed(nw.G, nw.ID, mask,
		func(g *wcdsnet.Graph, procs []simnet.Proc) (simnet.Stats, error) {
			st, err := lossy(g, procs)
			if err == nil && st.Abandoned > 0 {
				err = fmt.Errorf("reliable layer abandoned %d frames", st.Abandoned)
			}
			return st, err
		})
	if err != nil {
		return fmt.Errorf("lossy distributed repair: %w", err)
	}
	if !mis.IsMaximalIndependent(nw.G, lossySet) {
		return fmt.Errorf("lossy distributed repair produced an invalid MIS")
	}

	// Geometric comparators stay subsets and connected.
	if r := spanner.RNG(nw); !r.Connected() {
		return fmt.Errorf("RNG pruning disconnected the network")
	}
	return nil
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
