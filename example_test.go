package wcdsnet_test

import (
	"fmt"
	"log"

	"wcdsnet"
)

// A seven-node chain: the smallest scene where Algorithm II must recruit an
// additional dominator (two MIS dominators end up exactly three hops
// apart).
func chainNetwork() *wcdsnet.Network {
	pos := []wcdsnet.Point{
		{X: 0.0, Y: 0}, {X: 0.9, Y: 0}, {X: 1.8, Y: 0}, {X: 2.7, Y: 0},
		{X: 3.6, Y: 0}, {X: 4.5, Y: 0}, {X: 5.4, Y: 0},
	}
	// IDs chosen so nodes 0, 3, 6 form the greedy-by-ID MIS.
	ids := []int{0, 3, 4, 1, 5, 6, 2}
	nw, err := wcdsnet.NewNetwork(pos, ids)
	if err != nil {
		log.Fatal(err)
	}
	return nw
}

func ExampleRun() {
	nw := chainNetwork()
	res, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MIS dominators:", res.MISDominators)
	fmt.Println("additional dominators:", res.AdditionalDominators)
	fmt.Println("is WCDS:", wcdsnet.IsWCDS(nw, res.Dominators))
	fmt.Println("spanner edges:", res.Spanner.M())
	// Output:
	// MIS dominators: [0 3 6]
	// additional dominators: [1 4]
	// is WCDS: true
	// spanner edges: 6
}

func ExampleRun_algorithmI() {
	nw := chainNetwork()
	res, _, err := wcdsnet.Run(nw, wcdsnet.AlgoI)
	if err != nil {
		log.Fatal(err)
	}
	// The level-ranked MIS is itself a WCDS (Theorem 5): no connectors.
	fmt.Println("dominators:", res.Dominators)
	fmt.Println("additional:", len(res.AdditionalDominators))
	fmt.Println("is WCDS:", wcdsnet.IsWCDS(nw, res.Dominators))
	// Output:
	// dominators: [1 3 5]
	// additional: 0
	// is WCDS: true
}

func ExampleRun_distributed() {
	nw := chainNetwork()
	// The synchronous engine is deterministic and, in Deferred mode,
	// reproduces the centralized result exactly.
	res, stats, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineSync))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dominators:", res.Dominators)
	fmt.Println("messages:", stats.Messages)
	// Output:
	// dominators: [0 1 3 4 6]
	// messages: 21
}

func ExampleNewRouter() {
	nw := chainNetwork()
	res, tables, _, err := wcdsnet.AlgorithmIIWithTables(nw)
	if err != nil {
		log.Fatal(err)
	}
	router, err := wcdsnet.NewRouter(nw, res, tables)
	if err != nil {
		log.Fatal(err)
	}
	path, err := router.Route(0, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("route 0→6:", path)
	// Output:
	// route 0→6: [0 1 2 3 4 5 6]
}
