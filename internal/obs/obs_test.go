package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// The no-op recorder must stay allocation-free: it sits on the engines'
// per-message hot path for every uninstrumented run.
func TestNopAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		Nop.Event("election", Send, 3)
		Nop.Add(Span{Name: "run"})
	})
	if allocs != 0 {
		t.Fatalf("Nop recorder allocates %v per op, want 0", allocs)
	}
}

func TestSpansCounters(t *testing.T) {
	c := NewSpans()
	c.Event("election", Send, 2)
	c.Event("election", Send, 5)
	c.Event("election", Deliver, 5)
	c.Event("mis", Send, 7)
	c.Event("mis", Retransmit, -1)

	spans := c.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	el, mis := spans[0], spans[1]
	if el.Name != "election" || mis.Name != "mis" {
		t.Fatalf("first-seen order violated: %q, %q", el.Name, mis.Name)
	}
	if el.Messages != 2 || el.Deliveries != 1 || el.Rounds != 4 {
		t.Fatalf("election span = %+v, want m=2 d=1 r=4", el)
	}
	if mis.Messages != 1 || mis.Retransmits != 1 || mis.Rounds != 1 {
		t.Fatalf("mis span = %+v, want m=1 rtx=1 r=1", mis)
	}
}

func TestSpansRoundExtentIgnoresRoundless(t *testing.T) {
	c := NewSpans()
	c.Event("p", Send, -1)
	c.Event("p", Deliver, 0)
	if got := c.Snapshot()[0].Rounds; got != 0 {
		t.Fatalf("roundless events produced Rounds=%d, want 0", got)
	}
}

func TestSpansAddMerges(t *testing.T) {
	c := NewSpans()
	c.Add(Span{Name: "run", WallNS: 100, Messages: 3})
	c.Add(Span{Name: "run", WallNS: 50, Deliveries: 2, Rounds: 4})
	sp := c.Snapshot()[0]
	if sp.WallNS != 150 || sp.Messages != 3 || sp.Deliveries != 2 || sp.Rounds != 4 {
		t.Fatalf("merged span = %+v", sp)
	}
}

func TestSpansConcurrent(t *testing.T) {
	c := NewSpans()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Event("p", Send, -1)
				c.Add(Span{Name: "q", Deliveries: 1})
			}
		}()
	}
	wg.Wait()
	spans := c.Snapshot()
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["p"].Messages != workers*per {
		t.Fatalf("p.Messages = %d, want %d", byName["p"].Messages, workers*per)
	}
	if byName["q"].Deliveries != workers*per {
		t.Fatalf("q.Deliveries = %d, want %d", byName["q"].Deliveries, workers*per)
	}
}

func TestTimerAttributesWall(t *testing.T) {
	c := NewSpans()
	tm := StartTimer("stage")
	time.Sleep(2 * time.Millisecond)
	d := tm.Done(c)
	if d <= 0 {
		t.Fatal("Done returned non-positive duration")
	}
	sp := c.Snapshot()[0]
	if sp.Name != "stage" || sp.WallNS < int64(time.Millisecond) {
		t.Fatalf("timer span = %+v", sp)
	}
	var zero Timer
	if zero.Done(c) != 0 {
		t.Fatal("zero Timer reported elapsed time")
	}
}

func TestSnapshotWallTransitionStamping(t *testing.T) {
	c := NewSpans()
	c.Event("a", Send, 1)
	time.Sleep(time.Millisecond)
	c.Event("b", Send, 2) // transition: a's wall closes here
	spans := c.Snapshot()
	if spans[0].WallNS < int64(500*time.Microsecond) {
		t.Fatalf("phase a wall = %dns, want >= 0.5ms", spans[0].WallNS)
	}
}

// Canonical output must be stable across orderings and exclude wall time,
// so batch digests stay identical for every worker count.
func TestCanonicalSpansDeterministic(t *testing.T) {
	a := []Span{{Name: "mis", Messages: 5, WallNS: 111}, {Name: "election", Deliveries: 2, WallNS: 9}}
	b := []Span{{Name: "election", Deliveries: 2, WallNS: 77777}, {Name: "mis", Messages: 5}}
	if CanonicalSpans(a) != CanonicalSpans(b) {
		t.Fatalf("canonical differs:\n%s\n%s", CanonicalSpans(a), CanonicalSpans(b))
	}
	want := "election:m=0,d=2,r=0,rtx=0;mis:m=5,d=0,r=0,rtx=0"
	if got := CanonicalSpans(a); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
}

func TestSpanJSONOmitsZeroCounters(t *testing.T) {
	raw, err := json.Marshal(Span{Name: "election", Messages: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"election","messages":4}`
	if string(raw) != want {
		t.Fatalf("json = %s, want %s", raw, want)
	}
}

func TestTotal(t *testing.T) {
	spans := []Span{{Messages: 2}, {Messages: 3}}
	if got := Total(spans, func(s Span) int { return s.Messages }); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
}

// BenchmarkSpansEvent measures the per-event cost of the standard
// collector: a run of events in one phase (the common case for
// wave-structured protocols) and events alternating between two phases
// (every event is a phase change).
func BenchmarkSpansEvent(b *testing.B) {
	b.Run("same-phase", func(b *testing.B) {
		c := NewSpans()
		for i := 0; i < b.N; i++ {
			c.Event("mis", Deliver, 3)
		}
	})
	b.Run("alternating", func(b *testing.B) {
		c := NewSpans()
		phases := [2]string{"mis", "recruit"}
		for i := 0; i < b.N; i++ {
			c.Event(phases[i&1], Deliver, 3)
		}
	})
}
