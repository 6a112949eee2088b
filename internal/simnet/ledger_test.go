package simnet

import (
	"testing"
	"unsafe"

	"wcdsnet/internal/obs"
)

// The phase index rides in padding: observing a run must not grow the
// event queue's entries (the scale workload's largest array) or the sync
// engine's transmission records.
func TestPerCopyRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(envelope{}); got != 56 {
		t.Errorf("envelope is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(syncTx{}); got != 32 {
		t.Errorf("syncTx is %d bytes, want 32", got)
	}
}

// obs.Nop is no observer: a run under WithObserver(obs.Nop, classify)
// never classifies a payload and allocates what an unobserved run does.
func TestNopObserverIsUnobserved(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short stacking")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	classified := 0
	nop := WithObserver(obs.Nop, func(any) string { classified++; return "x" })
	plain := WithMaxRounds(20*1024 + 1000) // the default budget: one option either way
	g := lineGraph(t, 1024)
	procs := floodProcs(1024, 0)
	for _, eng := range []Engine{EngineSync, EngineEvent} {
		measure := func(opt Option) float64 {
			run := func() {
				for i, p := range procs {
					*p.(*floodProc) = floodProc{origin: i == 0}
				}
				if _, err := eng.Run(g, procs, opt); err != nil {
					t.Error(err)
				}
			}
			run() // warm the pools
			return testing.AllocsPerRun(20, run)
		}
		bare, observed := measure(plain), measure(nop)
		if observed > bare {
			t.Errorf("%s: a run under obs.Nop allocates %.1f, a plain run %.1f", eng, observed, bare)
		}
	}
	if classified != 0 {
		t.Errorf("classify called %d times on runs observed by obs.Nop", classified)
	}
}

// The ledger keeps the per-event recorder's counters and round extents,
// and its windowed wall time sums to the time the windows spanned.
func TestLedgerTallies(t *testing.T) {
	rec := obs.NewSpans()
	l := newLedger(rec, func(p any) string { return p.(string) })
	if newLedger(obs.Nop, nil) != nil || newLedger(nil, nil) != nil {
		t.Fatal("obs.Nop or nil recorder produced a ledger")
	}
	a := l.send("a", 2, false)
	b := l.send("b", 3, false)
	for i := 0; i < 3*wallWindow; i++ {
		l.deliver(a, 4)
		l.deliver(b, 9)
	}
	if l.send("a", 5, true) != a {
		t.Fatal("a phase was interned twice")
	}
	l.flush()
	spans := rec.Snapshot()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("spans %+v, want a then b", spans)
	}
	want := []string{
		"a:m=2,d=192,r=4,rtx=1", // rounds 2..5
		"b:m=1,d=192,r=7,rtx=0", // rounds 3..9
	}
	for i, sp := range spans {
		if got := sp.Canonical(); got != want[i] {
			t.Errorf("span %d = %s, want %s", i, got, want[i])
		}
		if sp.WallNS <= 0 {
			t.Errorf("phase %s has events but WallNS %d", sp.Name, sp.WallNS)
		}
	}
}
