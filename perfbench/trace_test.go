package main

import (
	"testing"
	"time"
)

// A synthetic span tree with known self times: overlapping children count
// once, a child reaching past its parent counts only inside it, and the
// rows add up to the root durations.
func TestLedgerSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, parent: 0, name: "client", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "op", start: at(10), end: at(60)},
		{id: 3, parent: 2, name: "call", start: at(10), end: at(40)},
		{id: 4, parent: 3, name: "phase", start: at(15), end: at(25)},
		{id: 5, parent: 3, name: "phase", start: at(20), end: at(30)},  // overlaps id 4
		{id: 6, parent: 2, name: "replay", start: at(45), end: at(70)}, // reaches past op
		{id: 7, parent: 1, name: "op", start: at(80), end: at(90)},
	}
	want := map[string]time.Duration{
		"client": 100 - 50 - 10, // ops cover [10,60] and [80,90]
		"op":     (50 - 30 - 15) + 10,
		"call":   30 - 15, // phases cover [15,30]
		"phase":  10 + 10,
		"replay": 25,
	}
	l := newLedger(spans)
	for name, d := range want {
		if got := l.rows[name]; got != d*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", name, got, d*time.Millisecond)
		}
	}
	// The replay sticks out of its op by 10ms and the two phases overlap
	// by 5ms, so the rows exceed the root's 100ms by exactly 15ms.
	if l.wall != 100*time.Millisecond || l.total() != 115*time.Millisecond {
		t.Errorf("wall %v, rows %v; want 100ms and 115ms", l.wall, l.total())
	}
}

// Spans the tracer records (children timed inside their parents, stages
// clipped to their parent) always balance: rows sum to the traced wall.
func TestTracerLedgerBalances(t *testing.T) {
	tr := &tracer{}
	client := tr.open("client", 0, -1)
	for i := int64(0); i < 3; i++ {
		op := tr.open("op", client, i)
		call := tr.time("call", op, i, func() { time.Sleep(2 * time.Millisecond) })
		tr.stages(call, i, []string{"a", "b"}, []time.Duration{time.Millisecond, time.Hour})
		tr.time("replay", op, i, func() { time.Sleep(time.Millisecond) })
		tr.close(op)
	}
	tr.close(client)
	l := newLedger(tr.spans)
	if l.total() != l.wall {
		t.Fatalf("rows sum %v, traced wall %v", l.total(), l.wall)
	}
	if l.rows["b"] >= time.Hour || l.rows["call"] < 0 {
		t.Errorf("stage b not clipped to its parent: b=%v call=%v", l.rows["b"], l.rows["call"])
	}
}
