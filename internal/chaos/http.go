package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"wcdsnet/internal/obs"
	"wcdsnet/internal/service/api"
	"wcdsnet/internal/simnet"
	"wcdsnet/internal/udg"
	"wcdsnet/internal/wcds"
)

// HTTPRunner returns a scenario Runner that drives each run through the
// service layer's POST /v1/backbone endpoint instead of calling the
// protocol in process: the fault plan travels as JSON, the run executes in
// the service's worker pool, and the response's counters and convergence
// flag are mapped back onto the harness's verdict. client nil uses
// http.DefaultClient.
//
// The network is shipped as an explicit topology (positions + IDs) so the
// service computes over the exact graph the harness verifies against.
func HTTPRunner(baseURL string, client *http.Client) Runner {
	if client == nil {
		client = http.DefaultClient
	}
	return func(nw *udg.Network, plan simnet.FaultPlan, cfg Config) (wcds.Result, simnet.Stats, []obs.Span, error) {
		w := cfg.workload(nw.N(), &plan)
		req := api.BackboneRequest{Algorithm: w.Algorithm, Mode: w.Engine, Selection: "deferred",
			Faults: w.Faults, Reliable: true, MaxRetries: w.MaxRetries, MaxRounds: w.MaxRounds}
		if cfg.Engine != simnet.EngineSync {
			req.ScheduleSeed = plan.Seed
		}
		req.Positions = make([][2]float64, nw.N())
		for i, p := range nw.Pos {
			req.Positions[i] = [2]float64{p.X, p.Y}
		}
		req.IDs = append([]int(nil), nw.ID...)
		req.Radius = nw.Radius

		body, err := json.Marshal(&req)
		if err != nil {
			return wcds.Result{}, simnet.Stats{}, nil, fmt.Errorf("chaos: marshal request: %w", err)
		}
		httpResp, err := client.Post(baseURL+"/v1/backbone", "application/json", bytes.NewReader(body))
		if err != nil {
			return wcds.Result{}, simnet.Stats{}, nil, fmt.Errorf("chaos: POST /v1/backbone: %w", err)
		}
		defer httpResp.Body.Close()
		var resp api.BackboneResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			return wcds.Result{}, simnet.Stats{}, nil, fmt.Errorf("chaos: decode response: %w", err)
		}
		st := simnet.Stats{
			Messages:       resp.Messages,
			Rounds:         resp.Rounds,
			Ticks:          resp.Ticks,
			Dropped:        resp.Dropped,
			Duplicated:     resp.Duplicated,
			Retransmits:    resp.Retransmits,
			DupsSuppressed: resp.DupsSuppressed,
			Acks:           resp.Acks,
			Abandoned:      resp.Abandoned,
		}
		// The per-phase breakdown rides the bumped wire schema back to the
		// harness, so HTTP sweeps account costs exactly like in-process ones.
		if httpResp.StatusCode != http.StatusOK {
			return wcds.Result{}, st, resp.Phases, fmt.Errorf("chaos: service answered %d", httpResp.StatusCode)
		}
		if !resp.Converged {
			return wcds.Result{}, st, resp.Phases, fmt.Errorf("chaos: run did not converge: %s", resp.FailureReason)
		}
		res := wcds.Result{
			Dominators:           resp.Dominators,
			MISDominators:        resp.MISDominators,
			AdditionalDominators: resp.AdditionalDominators,
			Spanner:              wcds.WeaklyInduced(nw.G, resp.Dominators),
		}
		return res, st, resp.Phases, nil
	}
}
