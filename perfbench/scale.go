package main

import (
	"fmt"
	"math/rand"
	"time"

	"wcdsnet"
	"wcdsnet/internal/graph"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/udg"
)

// scale: one closed-loop client builds a 250k-node uniform scene and runs
// Algorithm II on the event engine to a verified dominating set; the only
// workload whose working set (~450 MB) is memory-bound.
func init() {
	register(workload{name: "scale", clients: 1, tail: 50, prefix: 3, setups: 3, prepare: noInputs(setupScale)})
}

type scaleEnv struct {
	seed int64
	// first is op 0's outcome, re-derived after the loop: the engine is
	// deterministic, so a second run of the same scene must match exactly.
	first scaleOutcome
	ran   bool
}

type scaleOutcome struct {
	messages, deliveries, dominators int
	dominating                       bool
}

// scaleOp generates scene seed s and runs it end to end, timing each
// stage as a child span when traced. It also returns the time a traced op
// spent in replays that are not part of the op itself.
func scaleOp(s int64, t *opTrace) (out scaleOutcome, replay time.Duration, err error) {
	timed := func(name string, f func()) {
		if t == nil {
			f()
			return
		}
		t.tr.time(name, t.root, t.op, f)
	}
	var nw *udg.Network
	timed("udg.gen", func() {
		nw = udg.GenUniform(rand.New(rand.NewSource(s)), scaleNodes, udg.SideForAvgDegree(scaleNodes, scaleDegree))
	})
	if t != nil {
		// GenUniform builds the graph internally; rebuilding the same
		// positions times the build alone and must give the same graph.
		var g *graph.Graph
		replay = t.tr.dur(t.tr.time("udg.build", t.root, t.op, func() { g = udg.BuildGraph(nw.Pos, nw.Radius) }))
		if g.M() != nw.G.M() {
			return scaleOutcome{}, replay, failCheck("rebuilt graph has %d edges, generated %d", g.M(), nw.G.M())
		}
	}
	var (
		res wcdsnet.Result
		st  wcdsnet.RunStats
	)
	timed("simnet.event", func() { res, st, err = wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineEvent)) })
	if err != nil {
		return scaleOutcome{}, replay, err
	}
	var ok bool
	timed("mis.verify", func() { ok = mis.IsDominating(nw.G, res.Dominators) })
	return scaleOutcome{st.Messages, st.Deliveries, len(res.Dominators), ok}, replay, nil
}

func setupScale(seed int64, _ bool) (env, error) {
	// A warm-up scene grows the heap to the working set before timing.
	if _, _, err := scaleOp(scaleSeed(seed, -1), nil); err != nil {
		return nil, err
	}
	return &scaleEnv{seed: seed}, nil
}

func (e *scaleEnv) close() {}

func (e *scaleEnv) do(_, i int, t *opTrace) (opResult, error) {
	start := time.Now()
	out, replay, err := scaleOp(scaleSeed(e.seed, i), t)
	res := opResult{lat: time.Since(start) - replay, nodes: scaleNodes}
	if err != nil {
		return res, err
	}
	if !out.dominating {
		return res, failCheck("backbone of scene %d does not dominate", i)
	}
	if i == 0 {
		e.first, e.ran = out, true
	}
	if t != nil {
		t.counts["simnet.messages_per_op"] += float64(out.messages)
		t.counts["simnet.deliveries_per_op"] += float64(out.deliveries)
	}
	return res, nil
}

// verify re-runs op 0's scene: message counts and backbone size must be
// identical.
func (e *scaleEnv) verify() error {
	if !e.ran {
		return fmt.Errorf("scale op 0 did not complete")
	}
	again, _, err := scaleOp(scaleSeed(e.seed, 0), nil)
	if err != nil {
		return err
	}
	if again != e.first {
		return fmt.Errorf("scene 0 re-run gave %+v, first run %+v", again, e.first)
	}
	return nil
}
