// Package api is the versioned wire contract of the backbone service: the
// request/response structs of every /v1 endpoint, the canonical cache-key
// rendering of each request, and the sentinel error taxonomy shared by the
// facade, the service handlers and the chaos HTTP runner.
//
// Before this package existed, the wire types lived in internal/service and
// internal/chaos re-declared fragments of them; every new consumer (the
// batch endpoint, cmd/bench, external harnesses) would have multiplied the
// drift. All serve/chaos/batch traffic now flows through these types, and
// error-to-HTTP-status mapping happens in exactly one place (HTTPStatus)
// instead of per-handler string matching.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
)

// Version names the wire contract carried by this package (the /v1 URL
// prefix). It changes only with breaking field or semantics changes;
// additive fields bump SchemaVersion instead.
const Version = "v1"

// SchemaVersion is the additive revision of the response schema within the
// Version contract, echoed in the "schema" field of backbone, batch and
// session responses. Revision 2 added the per-phase cost breakdown (phases)
// and this field itself; revision 1 responses carried neither. Revision 3
// added streaming topology sessions (POST /v1/session and its NDJSON delta
// stream) and NDJSON row streaming on POST /v1/batch. Revision 4 added
// fault-tolerant session repair: POST /v1/session accepts faults, reliable,
// maxRetries, maxRounds and async, and every per-epoch event on the delta
// stream carries a repair field with the Converged/Degraded/Violated
// outcome taxonomy plus retry and escalation counts. Revision 5 added
// engine selection: backbone, batch and session requests accept an engine
// field ("sync", "async" or "event" — the million-node single-scheduler
// engine), mode accepts "event", and backbone responses echo engine; the
// session async flag stayed as a deprecated alias for engine "async".
// Revision 6 opened the competitor suite: backbone, dilation and batch
// requests accept any registered algorithm name (algo.Names, not just
// "I"/"II"), generated network specs accept a topology descriptor
// ({kind, params} over the udg.Gen* family), batch specs accept a
// topologies axis, backbone requests accept weightSeed for weighted
// algorithms, and backbone responses carry kind and valid. Legacy
// "I"/"II" uniform requests normalize, compute and cache-key exactly as
// under revision 5. Revision 7 added cluster mode: POST /v1/shard executes
// an explicit [lo, hi) index range of a batch spec and returns
// index-addressed rows (JSON or the same NDJSON row stream as /v1/batch),
// so a fleet coordinator (internal/fleet) can fan one spec out across
// workers and merge a digest-identical report. Requests without a shard
// range normalize and cache-key exactly as under revision 6. Later removals
// kept the revision, so every response it describes is unchanged: the
// session async flag is gone (engine "async" is its one spelling, and a
// body that still carries "async" is an unknown field, 400), and POST
// /v1/shard always answers with the NDJSON row stream.
const SchemaVersion = 7

// Sentinel errors shared by the facade, the batch engine and the service
// handlers. Wrap them with fmt.Errorf("...: %w", ErrX) so errors.Is works
// through arbitrarily deep call stacks.
var (
	// ErrInvalidInput marks requests or arguments rejected by validation:
	// malformed specs, unknown algorithm names, out-of-range parameters.
	ErrInvalidInput = errors.New("invalid input")
	// ErrUnreachable marks computations that require a connected network (or
	// a reachable destination) and were given a disconnected one.
	ErrUnreachable = errors.New("network not connected")
	// ErrBudgetExceeded marks distributed runs that blew their quiescence or
	// delivery budget before terminating.
	ErrBudgetExceeded = errors.New("run budget exceeded")
)

// Errorf builds a validation error: the formatted message wrapping
// ErrInvalidInput, so HTTPStatus maps it to 400 and errors.Is can detect it.
func Errorf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalidInput)...)
}

// HTTPStatus maps an error onto its HTTP status code. This is the single
// place the service translates the error taxonomy to the wire:
//
//	ErrInvalidInput   → 400 Bad Request
//	ErrUnreachable    → 422 Unprocessable Entity
//	ErrBudgetExceeded → 422 Unprocessable Entity
//	anything else     → 500 Internal Server Error
//
// Pool-level conditions (queue full, deadline, shutdown) are transport
// concerns handled before compute errors reach this function.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnreachable), errors.Is(err, ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// HashKey collapses an arbitrary-length canonical request string into a
// fixed-size content address for the result cache.
func HashKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}
