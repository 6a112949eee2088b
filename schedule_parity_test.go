package wcdsnet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// Every surface compiles a distributed run through one rule, so the
// facade, a batch row and the service's /v1/backbone response must report
// the same run for every engine × schedule seed, for both paper protocols.
// The event/seed-0 cells pin the rule itself: WithScheduleSeed(0) on
// EngineEvent is FIFO, exactly as {"engine":"event","scheduleSeed":0} is on
// the wire. The centralized leg pins the zero-stats reference on all three.
func TestScheduleRuleParityAcrossSurfaces(t *testing.T) {
	const (
		n      = 60
		degree = 6.0
		seed   = 31
	)
	nw := runTestNetwork(t, n, seed)
	svc := NewService(ServiceOptions{})
	defer svc.Close()
	h := svc.Handler()

	type cell struct {
		mode  string
		sched int64
		opts  []Option
	}
	cells := []cell{{mode: "centralized"}}
	for _, eng := range []Engine{EngineSync, EngineAsync, EngineEvent} {
		for _, sched := range []int64{0, 7} {
			cells = append(cells, cell{eng.String(), sched, []Option{WithEngine(eng), WithScheduleSeed(sched)}})
		}
	}
	for _, a := range []Algorithm{AlgoI, AlgoII} {
		for _, c := range cells {
			name := fmt.Sprintf("%v/%s/schedule%d", a, c.mode, c.sched)

			res, st := mustRun(t, nw, a, c.opts...)

			rep, err := RunBatch(context.Background(), &BatchSpec{
				Sizes: []int{n}, Degrees: []float64{degree}, Seeds: []int64{seed},
				Workloads: []BatchWorkload{{Algorithm: a.String(), Mode: c.mode, ScheduleSeed: c.sched}},
			}, BatchOptions{})
			if err != nil {
				t.Fatalf("%s: RunBatch: %v", name, err)
			}
			row := rep.Results[0]

			body := fmt.Sprintf(`{"seed":%d,"n":%d,"avgDegree":%v,"algorithm":%q,"mode":%q,"scheduleSeed":%d}`,
				seed, n, degree, a.String(), c.mode, c.sched)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/backbone", strings.NewReader(body)))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: /v1/backbone %d: %s", name, rr.Code, rr.Body)
			}
			var wire struct {
				Dominators []int `json:"dominators"`
				Messages   int   `json:"messages"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &wire); err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}

			if st.Messages != row.Messages || st.Messages != wire.Messages {
				t.Errorf("%s: messages facade %d, batch %d, service %d", name, st.Messages, row.Messages, wire.Messages)
			}
			if !reflect.DeepEqual(res.Dominators, wire.Dominators) {
				t.Errorf("%s: facade dominators %v, service %v", name, res.Dominators, wire.Dominators)
			}
			if len(res.Dominators) != row.Backbone || len(res.MISDominators) != row.MIS || !row.Valid {
				t.Errorf("%s: facade %d dominators (%d MIS), batch row %d (%d MIS, valid %v)",
					name, len(res.Dominators), len(res.MISDominators), row.Backbone, row.MIS, row.Valid)
			}
			if !IsWCDS(nw, res.Dominators) {
				t.Errorf("%s: invalid WCDS", name)
			}
		}
	}
}
