package fleet

import (
	"fmt"
	"testing"
)

func TestRingDeterministicLookup(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, r2 := NewRing(addrs), NewRing(addrs)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Lookup(key) != r2.Lookup(key) {
			t.Fatalf("key %q: lookups disagree across identical rings", key)
		}
	}
	if r1.Len() != 3 {
		t.Fatalf("ring reports %d addresses, want 3", r1.Len())
	}
}

// TestRingRemoveMovesOnlyOwnedKeys is the consistent-hashing property the
// re-dispatch path relies on: removing a worker relocates exactly the keys
// it owned, so the survivors' cache placements stay warm.
func TestRingRemoveMovesOnlyOwnedKeys(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	ring := NewRing(addrs)
	const dead = "http://b:2"
	shrunk := ring.Remove(dead)
	if shrunk.Len() != 3 {
		t.Fatalf("shrunk ring reports %d addresses", shrunk.Len())
	}
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := ring.Lookup(key), shrunk.Lookup(key)
		if after == dead {
			t.Fatalf("key %q still maps to the removed worker", key)
		}
		if before != dead && after != before {
			t.Fatalf("key %q owned by surviving %s moved to %s", key, before, after)
		}
		if before == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed worker owned no keys: balance is broken")
	}
}

func TestRingBalance(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}
	ring := NewRing(addrs)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[ring.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for _, a := range addrs {
		// With 64 virtual nodes the split is coarse but every worker must
		// carry a real share (an even split would be 1000 each).
		if counts[a] < 300 {
			t.Errorf("worker %s owns only %d of 3000 keys", a, counts[a])
		}
	}
}

func TestRingEmpty(t *testing.T) {
	if got := NewRing(nil).Lookup("x"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
}
