package graph

import (
	"container/list"
	"sync"
)

// PartitionCache is a version-keyed LRU cache of training partitions
// (Subgraph values) keyed by (center node, hop count). Partition extraction
// — an L-hop BFS plus the adjacency build — dominates the cost of a training
// unit on quiet graphs, and the adaptive sampler revisits high-weight nodes
// constantly, so warm hits are the common case.
//
// Invalidation is driven by the mutation stream rather than by comparing
// versions on lookup: every graph mutation funnels through Dynamic.touch or
// ExpireEdgesBefore, which call invalidate(v) for each affected node, and
// invalidate drops exactly the cached partitions whose ball contains v. That
// is sufficient for correctness: any mutation that changes a partition's node
// set, its edge set, or the global degrees its normalization reads touches at
// least one node already inside the ball (both endpoints of an added or
// expired edge are touched, and feature/label writes touch their node).
// Flush remains as the coarse fallback.
//
// Cached Subgraphs are never laid out again (their lazy adjacencies are built
// under their own lock) and may be shared across goroutines. All cache state
// is guarded by one mutex: the learner goroutine's Partition calls run while
// Stats readers take PartitionCacheStats.
type PartitionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[partKey]*list.Element
	// byNode is the inverted index ball-member -> cached partition keys,
	// kept exact (scrubbed on every removal) so invalidation is O(|ball|).
	byNode map[int][]partKey

	hits, misses, invalidations, evictions int64
}

type partKey struct{ node, hops int }

type cacheEntry struct {
	key partKey
	sub *Subgraph
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	Size          int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func newPartitionCache(capacity int) *PartitionCache {
	return &PartitionCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[partKey]*list.Element),
		byNode:  make(map[int][]partKey),
	}
}

// get returns the cached partition for (node, hops), or nil.
func (c *PartitionCache) get(node, hops int) *Subgraph {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[partKey{node, hops}]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).sub
}

// put inserts a freshly built partition, evicting LRU entries beyond cap.
func (c *PartitionCache) put(node, hops int, sub *Subgraph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := partKey{node, hops}
	if el, ok := c.entries[key]; ok {
		// A concurrent builder won the race; keep its entry.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, sub: sub})
	c.entries[key] = el
	for _, u := range sub.Nodes {
		c.byNode[u] = append(c.byNode[u], key)
	}
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back(), &c.evictions)
	}
}

// invalidate drops every cached partition whose ball contains v.
func (c *PartitionCache) invalidate(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byNode[v]
	if len(keys) == 0 {
		return
	}
	// Copy: removeLocked rewrites the byNode slices we are iterating.
	for _, k := range append([]partKey(nil), keys...) {
		if el, ok := c.entries[k]; ok {
			c.removeLocked(el, &c.invalidations)
		}
	}
}

func (c *PartitionCache) removeLocked(el *list.Element, counter *int64) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	for _, u := range ent.sub.Nodes {
		ks := c.byNode[u]
		for i, k := range ks {
			if k == ent.key {
				ks[i] = ks[len(ks)-1]
				ks = ks[:len(ks)-1]
				break
			}
		}
		if len(ks) == 0 {
			delete(c.byNode, u)
		} else {
			c.byNode[u] = ks
		}
	}
	*counter++
}

// Flush drops every entry (the coarse invalidation fallback).
func (c *PartitionCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back(), &c.invalidations)
	}
}

// Stats returns a snapshot of the counters.
func (c *PartitionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Size:          c.ll.Len(),
	}
}

// EnablePartitionCache attaches a partition cache with the given capacity
// (number of cached partitions); capacity <= 0 detaches the cache.
func (g *Dynamic) EnablePartitionCache(capacity int) {
	if capacity <= 0 {
		g.cache = nil
		return
	}
	g.cache = newPartitionCache(capacity)
}

// PartitionCache returns the attached cache, or nil.
func (g *Dynamic) PartitionCache() *PartitionCache { return g.cache }

// PartitionCacheStats returns the cache counters (zero value when disabled).
func (g *Dynamic) PartitionCacheStats() CacheStats {
	if g.cache == nil {
		return CacheStats{}
	}
	return g.cache.Stats()
}
