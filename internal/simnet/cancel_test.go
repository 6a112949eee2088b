package simnet

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// stubbornTicker exercises the tick-driven cancellation path: it never
// sends a message but reports pending work on every quiescence tick, so a
// run spins tick passes forever until the budget or the context ends it.
type stubbornTicker struct{}

func (p *stubbornTicker) Init(ctx *Context)                     {}
func (p *stubbornTicker) Recv(ctx *Context, from int, body any) {}
func (p *stubbornTicker) Tick(ctx *Context) bool                { return true }

// cancelCase builds one non-terminating workload for the property test.
type cancelCase struct {
	name  string
	procs func(n int) []Proc
}

func cancelCases() []cancelCase {
	return []cancelCase{
		{"ping-pong", func(n int) []Proc {
			// Message-driven: an endless unicast ping-pong on the first edge
			// keeps the engine's delivery loop busy forever.
			procs := make([]Proc, n)
			procs[0] = &pingPong{peer: 1, starter: true, bounces: -1}
			procs[1] = &pingPong{peer: 0, bounces: -1}
			for i := 2; i < n; i++ {
				procs[i] = &pingPong{peer: i - 1, bounces: -1}
			}
			return procs
		}},
		{"stubborn-ticker", func(n int) []Proc {
			// Tick-driven: no messages at all, only endless quiescence
			// passes — the path a retransmit loop with nothing left to send
			// takes.
			procs := make([]Proc, n)
			for i := range procs {
				procs[i] = &stubbornTicker{}
			}
			return procs
		}},
	}
}

// Cancellation property: whenever a run is cancelled — at a random point,
// on any of the three engines, message- or tick-driven — it returns
// promptly with an error wrapping context.Canceled, and it leaks no
// goroutines (the event engine spawns none to begin with). Runs under
// -race in CI.
func TestCancelAtRandomPointReturnsPromptlyWithoutLeaks(t *testing.T) {
	const n = 10
	g := lineGraph(t, n)
	rng := rand.New(rand.NewSource(99))
	baseline := runtime.NumGoroutine()

	for iter := 0; iter < 24; iter++ {
		for _, c := range cancelCases() {
			for _, eng := range []Engine{EngineSync, EngineAsync, EngineEvent} {
				ctx, cancel := context.WithCancel(context.Background())
				// A random cancel point, from "before the first round" to
				// "deep inside the run".
				delay := time.Duration(rng.Intn(1500)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)

				// Budgets far beyond what any iteration reaches: only the
				// context can end these runs.
				opts := []Option{WithContext(ctx), WithMaxRounds(1 << 30)}
				start := time.Now()
				_, err := eng.Run(g, c.procs(n), opts...)
				elapsed := time.Since(start)
				timer.Stop()
				cancel()

				if err == nil {
					t.Fatalf("%s engine=%v delay=%v: non-terminating run reported success", c.name, eng, delay)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s engine=%v delay=%v: error does not wrap context.Canceled: %v", c.name, eng, delay, err)
				}
				// "Within one round" in wall-clock terms: a round here is
				// microseconds, so whole seconds of overrun would mean the
				// engine ignored the context until some unrelated exit.
				if overrun := elapsed - delay; overrun > 5*time.Second {
					t.Fatalf("%s engine=%v: cancellation took %v past the cancel point", c.name, eng, overrun)
				}
			}
		}
	}

	// Leak check: no engine may leave a goroutine behind. NumGoroutine is
	// noisy (timer goroutines, GC), so retry briefly before declaring a
	// leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellations", baseline, now)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
