package wcdsnet

import (
	"sort"
	"testing"
)

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Every deprecated entry point in compat.go must agree exactly — dominator
// sets and message counts — with the documented Run replacement. One table
// row per shim keeps the museum honest: a shim that drifts from the modern
// path fails here by name.
func TestCompatShimsEquivalent(t *testing.T) {
	nw := runTestNetwork(t, 60, 31)
	plan := FaultPlan{DropRate: 0.05, Seed: 3}
	cfg := RunConfig{Faults: &plan, Reliable: true, MaxRounds: 4000}

	type outcome struct {
		res Result
		st  RunStats
		err error
	}
	wrap := func(res Result, st RunStats, err error) outcome { return outcome{res, st, err} }
	cases := []struct {
		name   string
		legacy func() outcome
		modern func() outcome
	}{
		{"AlgorithmI",
			func() outcome { return outcome{res: AlgorithmI(nw)} },
			func() outcome { return wrap(Run(nw, AlgoI)) }},
		{"AlgorithmII",
			func() outcome { return outcome{res: AlgorithmII(nw)} },
			func() outcome { return wrap(Run(nw, AlgoII)) }},
		{"AlgorithmIDistributed/sync",
			func() outcome { return wrap(AlgorithmIDistributed(nw, false, 0)) },
			func() outcome { return wrap(Run(nw, AlgoI, WithEngine(EngineSync))) }},
		{"AlgorithmIDistributed/async",
			func() outcome { return wrap(AlgorithmIDistributed(nw, true, 7)) },
			func() outcome { return wrap(Run(nw, AlgoI, WithEngine(EngineAsync), WithScheduleSeed(7))) }},
		{"AlgorithmIIDistributed/sync",
			func() outcome { return wrap(AlgorithmIIDistributed(nw, Deferred, false, 0)) },
			func() outcome { return wrap(Run(nw, AlgoII, WithEngine(EngineSync))) }},
		{"AlgorithmIIDistributed/async",
			func() outcome { return wrap(AlgorithmIIDistributed(nw, Deferred, true, 9)) },
			func() outcome { return wrap(Run(nw, AlgoII, WithEngine(EngineAsync), WithScheduleSeed(9))) }},
		{"AlgorithmIZeroKnowledge",
			func() outcome { return wrap(AlgorithmIZeroKnowledge(nw, false, 0)) },
			func() outcome { return wrap(Run(nw, AlgoI, ZeroKnowledge())) }},
		{"AlgorithmIIZeroKnowledge",
			func() outcome { return wrap(AlgorithmIIZeroKnowledge(nw, Deferred, false, 0)) },
			func() outcome { return wrap(Run(nw, AlgoII, WithSelection(Deferred), ZeroKnowledge())) }},
		{"Async option",
			func() outcome { return wrap(Run(nw, AlgoII, Async(13))) },
			func() outcome { return wrap(Run(nw, AlgoII, WithEngine(EngineAsync), WithScheduleSeed(13))) }},
		{"AlgorithmIWithConfig",
			func() outcome { return wrap(AlgorithmIWithConfig(nw, cfg)) },
			func() outcome {
				return wrap(Run(nw, AlgoI,
					WithFaults(plan), WithReliable(ReliableOptions{}), WithMaxRounds(4000)))
			}},
		{"AlgorithmIIWithConfig",
			func() outcome { return wrap(AlgorithmIIWithConfig(nw, Deferred, cfg)) },
			func() outcome {
				return wrap(Run(nw, AlgoII, WithSelection(Deferred),
					WithFaults(plan), WithReliable(ReliableOptions{}), WithMaxRounds(4000)))
			}},
	}
	for _, c := range cases {
		legacy, modern := c.legacy(), c.modern()
		if (legacy.err == nil) != (modern.err == nil) {
			t.Errorf("%s: shim err %v, Run err %v", c.name, legacy.err, modern.err)
			continue
		}
		if legacy.err != nil {
			continue
		}
		if !sameSet(legacy.res.Dominators, modern.res.Dominators) {
			t.Errorf("%s: shim dominators %v != Run dominators %v",
				c.name, legacy.res.Dominators, modern.res.Dominators)
		}
		if legacy.st.Messages != modern.st.Messages {
			t.Errorf("%s: shim sent %d messages, Run sent %d",
				c.name, legacy.st.Messages, modern.st.Messages)
		}
		if !IsWCDS(nw, legacy.res.Dominators) {
			t.Errorf("%s: shim produced an invalid WCDS", c.name)
		}
	}
}
