package service

import (
	"fmt"
	"sync"
	"testing"

	"wcdsnet/internal/service/api"
)

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a evicted instead of b: %v, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatalf("Get(c) = %v, %v", v, ok)
	}
	hits, misses, evictions := c.Stats()
	if hits != 3 || misses != 2 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want 3 hits, 2 misses, 1 eviction", hits, misses, evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: promotes a, replaces value
	c.Put("c", 3)  // must evict b, not a
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v; want 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; refresh did not promote a")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%100)
				if v, ok := c.Get(key); ok {
					if v.(string) != key {
						t.Errorf("cache corruption: key %s held %v", key, v)
						return
					}
				} else {
					c.Put(key, key)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHashKeyStable(t *testing.T) {
	a, b := api.HashKey("backbone|x"), api.HashKey("backbone|x")
	if a != b {
		t.Fatalf("same content hashed differently: %s vs %s", a, b)
	}
	if api.HashKey("backbone|y") == a {
		t.Fatal("distinct content collided (astronomically unlikely): key derivation broken")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}
