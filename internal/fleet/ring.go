package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over worker addresses. The coordinator
// places each shard on the worker owning the shard's cache key (walking on
// to a successor when that worker already holds its share, see
// lookupBounded), so a
// repeated sweep lands every shard on the worker whose result cache
// already holds it — the fleet-wide analogue of the service's
// content-addressed cache. Virtual nodes (replicas points per worker)
// smooth the load split, and removing a worker moves only the shards it
// owned: the survivors' placements are untouched, which is what keeps
// their caches warm across a worker loss.
type Ring struct {
	points []ringPoint // sorted by hash
}

// replicas is the ring's virtual-node count per worker.
const replicas = 64

type ringPoint struct {
	hash uint64
	addr string
}

// NewRing builds a ring with replicas virtual nodes per address.
func NewRing(addrs []string) *Ring {
	r := &Ring{}
	for _, a := range addrs {
		r.add(a)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on address so the ring order is deterministic even in
		// the astronomically unlikely event of a 64-bit hash collision.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

func (r *Ring) add(addr string) {
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", addr, i)), addr: addr})
	}
}

// Remove returns a new ring without addr; r is unchanged. Shards owned by
// surviving workers keep their owners.
func (r *Ring) Remove(addr string) *Ring {
	out := &Ring{points: make([]ringPoint, 0, len(r.points))}
	for _, p := range r.points {
		if p.addr != addr {
			out.points = append(out.points, p)
		}
	}
	return out
}

// Len returns the number of distinct addresses on the ring.
func (r *Ring) Len() int {
	seen := map[string]bool{}
	for _, p := range r.points {
		seen[p.addr] = true
	}
	return len(seen)
}

// Lookup returns the address owning key: the first ring point at or after
// the key's hash, wrapping around. Empty string on an empty ring.
func (r *Ring) Lookup(key string) string {
	return r.lookupBounded(key, func(string) bool { return true })
}

// lookupBounded walks the ring clockwise from the key's hash and returns
// the first address fits accepts — the placement rule of consistent
// hashing with bounded loads (Mirrokni, Thorup & Zadimoghaddam, SODA
// 2018): a key whose owner is full moves on to the owner's ring
// successors, so loads stay within a cap while every placement remains a
// pure function of the keys and the ring. Empty string when no address
// fits or the ring is empty.
func (r *Ring) lookupBounded(key string, fits func(addr string) bool) string {
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := range r.points {
		if p := r.points[(start+k)%len(r.points)]; fits(p.addr) {
			return p.addr
		}
	}
	return ""
}

// ringHash maps a string onto the ring's 64-bit keyspace (the first eight
// bytes of its SHA-256, matching the content-address family the shard
// cache keys already use).
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
