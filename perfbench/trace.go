package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans form a tree through
// parent (0 = no parent); every span of one operation carries its op id.
type span struct {
	id, parent int
	op         int64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory; they are only read once the run ends.
// Safe for concurrent use by the workload's clients.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, op int64) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) close(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// dur is the duration of a closed span.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].end.Sub(t.spans[id-1].start)
}

// time runs f inside a child span of parent and returns the span id.
func (t *tracer) time(name string, parent int, op int64, f func()) int {
	start := time.Now()
	f()
	return t.add(name, parent, op, start, time.Now())
}

// stages records measured stage durations (reported by the program, e.g.
// protocol phases or maintainer stages) as consecutive children of parent,
// laid out from the parent's start. Only the durations are measured; the
// layout keeps them inside the (closed) parent, clipped at its end, so self
// times still add up to the root's duration.
func (t *tracer) stages(parent int, op int64, names []string, durs []time.Duration) {
	t.mu.Lock()
	at, end := t.spans[parent-1].start, t.spans[parent-1].end
	t.mu.Unlock()
	for i, name := range names {
		next := at.Add(durs[i])
		if next.After(end) {
			next = end
		}
		t.add(name, parent, op, at, next)
		at = next
	}
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once;
// a child reaching outside its parent counts only inside it). When
// children nest inside their parents without overlapping each other, as
// the tracer's spans do, self times summed over a tree equal the root's
// duration exactly.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end.Sub(s.start) - covered(s, spans, kids[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = x
		case x.b.After(cur.b):
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// ledger sums self time by span name. Its rows add up to the summed
// duration of the root spans, which the caller reports as the traced wall.
type ledger struct {
	rows  map[string]time.Duration
	count map[string]int
	wall  time.Duration
}

func newLedger(spans []span) ledger {
	l := ledger{rows: map[string]time.Duration{}, count: map[string]int{}}
	for i, d := range selfTimes(spans) {
		l.rows[spans[i].name] += d
		l.count[spans[i].name]++
		if spans[i].parent == 0 {
			l.wall += spans[i].end.Sub(spans[i].start)
		}
	}
	return l
}

// total is the sum of every row.
func (l ledger) total() time.Duration {
	var t time.Duration
	for _, d := range l.rows {
		t += d
	}
	return t
}

// print writes the ledger as a table, largest row first, per op and as a
// share of the traced wall, then checks that the rows add up.
func (l ledger) print(w io.Writer, ops int) {
	names := make([]string, 0, len(l.rows))
	for n := range l.rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.rows[names[i]] > l.rows[names[j]] })
	fmt.Fprintf(w, "ledger: %d traced ops, traced wall %.3f s (summed over clients)\n", ops, l.wall.Seconds())
	for _, n := range names {
		fmt.Fprintf(w, "ledger:   %-22s self %10.3f ms/op  %6.2f%%  (%d spans)\n",
			n, ms(l.rows[n])/float64(max(ops, 1)), 100*l.rows[n].Seconds()/l.wall.Seconds(), l.count[n])
	}
	fmt.Fprintf(w, "ledger: rows sum %.6f s = traced wall %.6f s\n", l.total().Seconds(), l.wall.Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
