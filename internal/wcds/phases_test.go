package wcds

import (
	"math/rand"
	"testing"
	"time"

	"wcdsnet/internal/discovery"
	"wcdsnet/internal/election"
	"wcdsnet/internal/obs"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/simnet/reliable"
	"wcdsnet/internal/udg"
)

func TestPhaseOf(t *testing.T) {
	cases := []struct {
		payload any
		want    string
	}{
		{discovery.HelloMsg{}, PhaseDiscovery},
		{election.ElectMsg{}, PhaseElection},
		{election.AckMsg{}, PhaseElection},
		{election.LevelMsg{}, PhaseLevels},
		{election.CompleteMsg{}, PhaseLevels},
		{MISDominatorMsg{}, PhaseMIS},
		{GrayMsg{}, PhaseMIS},
		{BlackMsg{}, PhaseMIS},
		{OneHopDomsMsg{}, PhaseRecruit},
		{TwoHopDomsMsg{}, PhaseRecruit},
		{SelectionMsg{}, PhaseRecruit},
		{AdditionalDomMsg{}, PhaseRecruit},
		{reliable.Ack{}, PhaseReliable},
		// Data frames are attributed to the protocol message they carry.
		{reliable.Data{Payload: SelectionMsg{}}, PhaseRecruit},
		{reliable.Data{Payload: election.ElectMsg{}}, PhaseElection},
		{42, PhaseOther},
	}
	for _, c := range cases {
		if got := PhaseOf(c.payload); got != c.want {
			t.Errorf("PhaseOf(%T) = %q, want %q", c.payload, got, c.want)
		}
	}
}

// Every transmission and delivery of a run must land in some phase: the
// span totals reconcile exactly with the kernel counters.
func TestObserveOptionReconcilesWithStats(t *testing.T) {
	nw, err := udg.GenConnectedAvgDegree(rand.New(rand.NewSource(11)), 60, 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpans()
	_, st, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(simnet.EngineSync, ObserveOption(rec)))
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Snapshot()
	msgs := obs.Total(spans, func(s obs.Span) int { return s.Messages })
	dels := obs.Total(spans, func(s obs.Span) int { return s.Deliveries })
	if msgs != st.Messages || dels != st.Deliveries {
		t.Fatalf("spans account for %d msgs / %d deliveries, stats say %d / %d",
			msgs, dels, st.Messages, st.Deliveries)
	}
	byName := map[string]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName[PhaseMIS].Messages == 0 || byName[PhaseRecruit].Messages == 0 {
		t.Fatalf("expected mis and recruit phases to carry traffic: %+v", spans)
	}
	if other := byName[PhaseOther]; other.Messages != 0 {
		t.Fatalf("unclassified traffic in an Algorithm II run: %+v", other)
	}
}

// A phase's wall time is its share of the run and of nothing after it:
// time spent between the run's return and Snapshot is charged to no
// phase, and every phase that saw events gets some of the run's time.
func TestPhaseWallIsRunScoped(t *testing.T) {
	nw := phasePinScene(t)
	for _, eng := range []simnet.Engine{simnet.EngineSync, simnet.EngineEvent} {
		rec := obs.NewSpans()
		start := time.Now()
		if _, _, err := Algo2Distributed(nw.G, nw.ID, Deferred, EngineRunner(eng, ObserveOption(rec))); err != nil {
			t.Fatal(err)
		}
		runWall := time.Since(start).Nanoseconds()
		time.Sleep(5 * time.Millisecond)
		spans := rec.Snapshot()
		var sum int64
		for _, sp := range spans {
			sum += sp.WallNS
			if sp.Messages+sp.Deliveries+sp.Retransmits > 0 && sp.WallNS <= 0 {
				t.Errorf("%s: phase %s saw events but has WallNS %d", eng, sp.Name, sp.WallNS)
			}
		}
		if sum > runWall {
			t.Errorf("%s: phases carry %dns of wall, the run took %dns", eng, sum, runWall)
		}
	}
}
