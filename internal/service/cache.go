package service

import (
	"container/list"
	"sync"
)

// Cache is a content-addressed LRU result cache. Keys are canonical hashes
// of the request (see CacheKey in internal/service/api): two requests that describe
// the same computation — same scenario parameters or explicit topology,
// same algorithm, same mode — map to the same entry, so a fleet of clients
// replaying near-identical scenarios is served from memory in microseconds
// instead of re-running the construction.
//
// The cache stores immutable response values; callers must not mutate what
// Get returns. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	value any
}

// NewCache creates an LRU cache holding up to capacity entries. A
// non-positive capacity yields a disabled cache (every Get misses, Put is a
// no-op) so callers can turn caching off without branching.
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, promoting it to most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// Put stores value under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its value and recency.
func (c *Cache) Put(key string, value any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).value = value
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, value: value})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
