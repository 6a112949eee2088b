// Command wcds generates a random wireless ad hoc network, constructs a
// backbone with one of the registered algorithms, verifies it, and prints
// (optionally exports) the results.
//
// Usage:
//
//	wcds [flags]
//
//	-n 500          number of nodes
//	-degree 10      target average degree
//	-seed 42        RNG seed
//	-algo II        backbone construction (any registered name; see -help)
//	-topology t     generated scene: kind[:name=val,...], e.g. clusters:k=6
//	-weightseed 0   node-weight seed for weighted algorithms (0 = unit)
//	-engine sync    distributed engine for I/II: sync, async, event, centralized
//	-dilation 500   dilation sample pairs (0 = exhaustive, -1 = skip)
//	-svg out.svg    write an SVG rendering of the backbone
//	-json out.json  write the result as JSON
//	-load s.json    load a scene instead of generating; -save s.json to save
//	-timeline       print the per-round message-type timeline (sync engine)
//	-phases         print the per-phase cost table (distributed engines)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"wcdsnet"
	"wcdsnet/internal/algo"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/render"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wcds:", err)
		os.Exit(1)
	}
}

type output struct {
	N                    int     `json:"n"`
	Edges                int     `json:"edges"`
	AvgDegree            float64 `json:"avgDegree"`
	Topology             string  `json:"topology,omitempty"`
	Algorithm            string  `json:"algorithm"`
	Kind                 string  `json:"kind"`
	Engine               string  `json:"engine"`
	WeightSeed           int64   `json:"weightSeed,omitempty"`
	Dominators           []int   `json:"dominators"`
	MISDominators        []int   `json:"misDominators,omitempty"`
	AdditionalDominators []int   `json:"additionalDominators,omitempty"`
	SpannerEdges         int     `json:"spannerEdges"`
	Valid                bool    `json:"valid"`
	IsWCDS               bool    `json:"isWCDS"`
	Messages             int     `json:"messages,omitempty"`
	Rounds               int     `json:"rounds,omitempty"`
	WorstTopoRatio       float64 `json:"worstTopoRatio,omitempty"`
	WorstGeoRatio        float64 `json:"worstGeoRatio,omitempty"`
	TopoBoundHolds       *bool   `json:"topoBoundHolds,omitempty"`
	GeoBoundHolds        *bool   `json:"geoBoundHolds,omitempty"`
}

func run() error {
	var (
		n          = flag.Int("n", 500, "number of nodes")
		degree     = flag.Float64("degree", 10, "target average degree")
		seed       = flag.Int64("seed", 42, "RNG seed")
		algoFlag   = flag.String("algo", "II", "backbone construction: "+strings.Join(wcdsnet.Algorithms(), ", "))
		topoFlag   = flag.String("topology", "uniform", "generated scene kind[:name=val,...]; kinds: "+strings.Join(wcdsnet.TopologyKinds(), ", "))
		weightSeed = flag.Int64("weightseed", 0, "node-weight seed for weighted algorithms (0 = unit weights)")
		engine     = flag.String("engine", "sync", "engine for I/II: sync, async, event, centralized")
		dilation   = flag.Int("dilation", 500, "dilation sample pairs (0 = exhaustive, -1 = skip)")
		svgPath    = flag.String("svg", "", "write SVG rendering to this path")
		jsonPath   = flag.String("json", "", "write JSON result to this path")
		load       = flag.String("load", "", "load a scene JSON instead of generating")
		save       = flag.String("save", "", "save the scene JSON for reproduction")
		timeline   = flag.Bool("timeline", false, "print the per-round message-type timeline (sync engine, algo I/II)")
		phases     = flag.Bool("phases", false, "print the per-phase cost table (distributed engines, algo I/II)")
	)
	flag.Parse()

	construction, ok := algo.Lookup(*algoFlag)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want %s)", *algoFlag, algo.NamesString())
	}
	which, err := wcdsnet.ParseAlgorithm(*algoFlag)
	if err != nil {
		return err
	}

	// Centralized-only constructions have no engine choice: silently run
	// them centralized unless the user explicitly asked for a distributed
	// engine, which is an error rather than a quiet downgrade.
	engineSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "engine" {
			engineSet = true
		}
	})
	if !construction.Caps.Distributed {
		if engineSet && *engine != "centralized" {
			return fmt.Errorf("algorithm %s is centralized-only (distributed: %s); drop -engine or use -engine centralized",
				construction.Name, strings.Join(algo.DistributedNames(), ", "))
		}
		*engine = "centralized"
	}
	if *weightSeed != 0 && !construction.Caps.Weighted {
		return fmt.Errorf("-weightseed only applies to weighted algorithms; %s takes no node weights", construction.Name)
	}

	if *phases {
		if !construction.Caps.Distributed {
			return fmt.Errorf("-phases requires a distributed algorithm (%s); %s is centralized-only",
				strings.Join(algo.DistributedNames(), " or "), construction.Name)
		}
		if *engine == "centralized" {
			return fmt.Errorf("-phases requires a distributed engine (sync, async or event); centralized runs have no phases")
		}
	}

	topo, err := wcdsnet.ParseTopology(*topoFlag)
	if err != nil {
		return err
	}
	var nw *wcdsnet.Network
	if *load != "" {
		nw, err = udg.LoadScene(*load)
	} else {
		nw, err = wcdsnet.GenerateNetworkTopology(*seed, *n, *degree, topo)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		if err := udg.SaveScene(*save, nw); err != nil {
			return err
		}
		fmt.Println("wrote", *save)
	}
	out := output{
		N:          nw.N(),
		Edges:      nw.G.M(),
		AvgDegree:  nw.G.AvgDegree(),
		Algorithm:  construction.Name,
		Kind:       string(construction.Kind),
		Engine:     *engine,
		WeightSeed: *weightSeed,
	}
	if *load == "" {
		out.Topology = topo.Canonical()
	}

	var res wcdsnet.Result
	var phaseSpans []wcdsnet.PhaseSpan
	if *timeline && *engine == "sync" && construction.Caps.Distributed {
		var tl *simnet.Timeline
		res, tl, phaseSpans, out.Messages, out.Rounds, err = runWithTimeline(nw, construction.Name, *phases)
		if err != nil {
			return err
		}
		fmt.Println("per-round message-type timeline:")
		fmt.Print(tl.String())
	} else {
		res, phaseSpans, out.Messages, out.Rounds, err = runAlgo(nw, which, *engine, *seed, *weightSeed, *phases)
		if err != nil {
			return err
		}
	}

	out.Dominators = res.Dominators
	out.MISDominators = res.MISDominators
	out.AdditionalDominators = res.AdditionalDominators
	out.SpannerEdges = res.Spanner.M()
	out.Valid = construction.Valid(nw.G, res.Dominators)
	out.IsWCDS = wcdsnet.IsWCDS(nw, res.Dominators)

	// Dilation is undefined for plain dominating sets: their weakly-induced
	// spanner need not be connected, so there is nothing to measure.
	if *dilation >= 0 && construction.Kind != algo.KindDS {
		pairs := *dilation
		rep, err := wcdsnet.MeasureDilation(nw, res, pairs, *seed)
		if err != nil {
			return err
		}
		out.WorstTopoRatio = rep.WorstTopo.TopoRatio()
		out.WorstGeoRatio = rep.WorstGeo.GeoRatio()
		out.TopoBoundHolds = &rep.TopoBoundHolds
		out.GeoBoundHolds = &rep.GeoBoundHolds
	}

	fmt.Printf("network:   n=%d edges=%d avg degree %.2f", out.N, out.Edges, out.AvgDegree)
	if out.Topology != "" {
		fmt.Printf(" topology=%s", out.Topology)
	}
	fmt.Println()
	fmt.Printf("backbone:  algo=%s engine=%s |set|=%d (MIS %d + additional %d)\n",
		out.Algorithm, out.Engine, len(out.Dominators), len(out.MISDominators), len(out.AdditionalDominators))
	fmt.Printf("spanner:   %d edges (%.2f per node), valid %s: %v\n",
		out.SpannerEdges, float64(out.SpannerEdges)/float64(out.N), out.Kind, out.Valid)
	if out.Messages > 0 {
		fmt.Printf("cost:      %d messages", out.Messages)
		if out.Rounds > 0 {
			fmt.Printf(", %d rounds", out.Rounds)
		}
		fmt.Println()
	}
	if len(phaseSpans) > 0 {
		fmt.Println("phases:")
		fmt.Print(wcdsnet.FormatPhaseTable(phaseSpans))
	}
	if out.TopoBoundHolds != nil {
		fmt.Printf("dilation:  worst topological %.2f (3h+2 holds: %v), worst geometric %.2f (6l+5 holds: %v)\n",
			out.WorstTopoRatio, *out.TopoBoundHolds, out.WorstGeoRatio, *out.GeoBoundHolds)
	}

	if *svgPath != "" {
		err := render.WriteFile(*svgPath, nw, render.Options{
			Dominators:   out.MISDominators,
			Additional:   out.AdditionalDominators,
			Spanner:      res.Spanner,
			ShowAllEdges: true,
		})
		if err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	return nil
}

// runWithTimeline executes the chosen algorithm on the synchronous engine
// with a timeline trace attached, optionally also recording phase spans.
func runWithTimeline(nw *wcdsnet.Network, algoName string, phases bool) (wcdsnet.Result, *simnet.Timeline, []wcdsnet.PhaseSpan, int, int, error) {
	tl, opt := simnet.NewTimelineTrace()
	opts := []simnet.Option{opt}
	var rec *obs.Spans
	if phases {
		rec = obs.NewSpans()
		opts = append(opts, wcds.ObserveOption(rec))
	}
	runner := wcds.EngineRunner(simnet.EngineSync, opts...)
	var (
		res   wcdsnet.Result
		stats simnet.Stats
		err   error
	)
	if algoName == "I" {
		res, stats, err = wcds.Algo1Distributed(nw.G, nw.ID, runner)
	} else {
		res, stats, err = wcds.Algo2Distributed(nw.G, nw.ID, wcds.Deferred, runner)
	}
	var spans []wcdsnet.PhaseSpan
	if rec != nil {
		spans = rec.Snapshot()
	}
	return res, tl, spans, stats.Messages, stats.Rounds, err
}

func runAlgo(nw *wcdsnet.Network, which wcdsnet.Algorithm, engine string, seed, weightSeed int64, phases bool) (wcdsnet.Result, []wcdsnet.PhaseSpan, int, int, error) {
	var opts []wcdsnet.Option
	switch engine {
	case "centralized":
	case "sync":
		opts = append(opts, wcdsnet.Distributed())
	case "async":
		opts = append(opts, wcdsnet.WithEngine(wcdsnet.EngineAsync), wcdsnet.WithScheduleSeed(seed))
	case "event":
		opts = append(opts, wcdsnet.WithEngine(wcdsnet.EngineEvent))
	default:
		return wcdsnet.Result{}, nil, 0, 0, fmt.Errorf("unknown engine %q", engine)
	}
	if weightSeed != 0 {
		opts = append(opts, wcdsnet.WithWeightSeed(weightSeed))
	}
	if phases {
		opts = append(opts, wcdsnet.WithPhases())
	}
	res, stats, err := wcdsnet.Run(nw, which, opts...)
	return res, stats.Phases, stats.Messages, stats.Rounds, err
}
