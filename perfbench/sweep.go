package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"wcdsnet"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/fleet"
	"wcdsnet/internal/service"
)

// sweep-fleet: one closed-loop client runs distinct pinned sweeps through
// the fleet coordinator against two single-threaded in-process workers.
func init() {
	register(workload{name: "sweep-fleet", clients: 1, tail: 75, prefix: 6, setups: 5, prepare: noInputs(setupSweep)})
}

type sweepEnv struct {
	seed    int64
	workers []*fleet.LocalWorker
	// digests of the untraced sweeps, checked against batch.Run after the
	// loop; traced sweeps are checked inline by their batch.engine replay.
	digests map[int]string
}

func setupSweep(seed int64, _ bool) (env, error) {
	workers, err := fleet.SpawnLocal(2, service.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	e := &sweepEnv{seed: seed, workers: workers, digests: map[int]string{}}
	// One warm-up sweep (its own seeds) opens the connections and lets
	// lazy initialisation finish before anything is timed.
	if _, err := e.fleetRun(sweepSpec(seed, -1)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *sweepEnv) close() {
	for _, w := range e.workers {
		w.Close()
	}
}

func (e *sweepEnv) fleetRun(spec *wcdsnet.BatchSpec) (*fleet.Report, error) {
	rep, err := fleet.Run(context.Background(), spec, fleet.Options{Workers: fleet.Addrs(e.workers), WorkerParallel: 1})
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("%d scenarios failed", rep.Failed)
	}
	return rep, nil
}

// engineDigest runs the same sweep in process on the batch engine.
func engineDigest(spec *wcdsnet.BatchSpec) (string, error) {
	rep, err := batch.Run(context.Background(), spec, batch.Options{Workers: 2})
	if err != nil {
		return "", err
	}
	return rep.Digest(), nil
}

func (e *sweepEnv) do(_, i int, t *opTrace) (opResult, error) {
	spec := sweepSpec(e.seed, i)
	var call int
	if t != nil {
		call = t.tr.open("fleet.sweep", t.root, t.op)
	}
	start := time.Now()
	rep, err := e.fleetRun(spec)
	res := opResult{lat: time.Since(start), nodes: 3 * (100 + 200) * 2}
	if t != nil {
		t.tr.close(call)
	}
	if err != nil {
		return res, err
	}
	if t == nil {
		e.digests[i] = rep.Digest
		return res, nil
	}
	var want string
	eng := t.tr.time("batch.engine", t.root, t.op, func() { want, err = engineDigest(sweepSpec(e.seed, i)) })
	if err != nil {
		return res, err
	}
	if rep.Digest != want {
		return res, failCheck("fleet digest %s, batch.Run digest %s", rep.Digest, want)
	}
	t.layers["batch.engine_ms"] += t.tr.dur(eng)
	t.layers["fleet.tax_ms"] += t.tr.dur(call) - t.tr.dur(eng)
	return res, sweepLayers(t, rep.Results)
}

// sweepLayers attributes the merged rows' server-side wall times (summed
// over both workers, so they are layer work, not ledger rows) and counts
// the exact per-sweep traffic. Rows are classified by the workload as
// written, before the coordinator normalized the spec in place.
func sweepLayers(t *opTrace, rows []batch.Result) error {
	workloads := sweepWorkloads()
	for _, r := range rows {
		w := workloads[r.Index%len(workloads)]
		wall := time.Duration(r.WallNS)
		switch {
		case w.Kind == "dilation":
			t.layers["spanner.dilation_ms"] += wall
		case w.Kind == "broadcast":
			t.layers["route.broadcast_ms"] += wall
		case w.Mode == "" && w.Engine == "":
			t.layers["algo.centralized_ms"] += wall
		default:
			for _, p := range r.Phases {
				t.layers["wcds."+p.Name+"_ms"] += time.Duration(p.WallNS)
				t.counts["simnet.deliveries_per_op"] += float64(p.Deliveries)
			}
			t.counts["simnet.messages_per_op"] += float64(r.Messages)
			t.counts["simnet.rounds_per_op"] += float64(r.Rounds)
			if w.Reliable {
				t.counts["reliable.retransmits"] += float64(r.Retransmits)
				t.counts["reliable.messages"] += float64(r.Messages)
			}
		}
		// The wire payload without its timing fields, so the byte count
		// is exact.
		r.WallNS = 0
		r.Phases = append([]wcdsnet.PhaseSpan(nil), r.Phases...)
		for k := range r.Phases {
			r.Phases[k].WallNS = 0
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		t.counts["fleet.row_bytes"] += float64(len(b))
	}
	return nil
}

// verify checks every untraced sweep's merged digest against the
// in-process batch engine.
func (e *sweepEnv) verify() error {
	for i, got := range e.digests {
		want, err := engineDigest(sweepSpec(e.seed, i))
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("sweep %d: fleet digest %s, batch.Run digest %s", i, got, want)
		}
	}
	return nil
}
