package serve

import (
	"sync"

	"repro/internal/img"
	"repro/internal/pool"
)

// FrameCache is a byte-bounded LRU cache of rendered frames in their wire
// form: each entry holds one QSF1 body (wire.go), encoded exactly once by
// Put from a frame the caller still owns (the frame ring's copy-out-or-
// release contract), so nothing cached ever aliases a workload's ring.
//
// Readers pin an entry (Pin, or the pin Put returns) and hand it back with
// Release; while pinned, its body is never rewritten, so a raw hit writes
// the cached bytes themselves with no copy and no encode. This is the
// consumer-release rule of docs/ownership.md: the cache may evict a pinned
// entry at any time — it leaves the map, the LRU list and the byte count
// at once — but the entry is recycled only when its last pin drops. The
// bytes of entries that are evicted but still pinned are therefore outside
// the byte bound until their readers finish.
//
// Eviction is strict LRU by bytes: Put evicts from the cold end until the
// new frame fits. Recycled entries park on a free list with their body
// buffers, so a steady mix of Put and eviction reuses buffers instead of
// allocating. All methods are safe for concurrent use.
type FrameCache struct {
	mu sync.Mutex
	m  map[FrameKey]*CachedFrame
	// hot/cold are the LRU list ends: hot.next is most recent,
	// cold.prev is the eviction candidate (sentinel-linked ring).
	hot, cold CachedFrame
	freeList  *CachedFrame
	limit     int64
	used      int64
	hits      uint64
	misses    uint64
	evictions uint64
}

// CachedFrame is one cache entry: a frame's wire body, its LRU links and
// its pin count. Callers only ever hold it pinned, read it through Body,
// and give it back with FrameCache.Release.
type CachedFrame struct {
	key  FrameKey
	body []byte
	// pins counts the readers holding body; an entry out of the LRU list
	// (prev == nil) goes to the free list when it drops to zero.
	pins       int
	prev, next *CachedFrame
}

// Body returns the entry's QSF1 wire frame: the header (the key's step,
// flags 0) and the pixels. It stays valid and unchanged until the pin is
// released, whatever Put and eviction do meanwhile.
func (e *CachedFrame) Body() []byte { return e.body }

// entryOverhead approximates an entry's non-body footprint for the byte
// accounting, so zero-sized frames still cost something.
const entryOverhead = 160

// NewFrameCache returns a cache bounded to limit bytes of wire bodies
// (plus a small per-entry overhead). A non-positive limit disables
// caching: Put caches nothing and every lookup misses.
func NewFrameCache(limit int64) *FrameCache {
	c := &FrameCache{m: make(map[FrameKey]*CachedFrame), limit: limit}
	c.hot.next, c.hot.prev = &c.cold, &c.cold
	c.cold.prev, c.cold.next = &c.hot, &c.hot
	return c
}

// unlink removes e from the LRU list.
func (c *FrameCache) unlink(e *CachedFrame) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushHot inserts e at the most-recently-used end.
func (c *FrameCache) pushHot(e *CachedFrame) {
	e.prev = &c.hot
	e.next = c.hot.next
	e.prev.next = e
	e.next.prev = e
}

// entryBytes is the accounted size of an entry with an n-byte body.
func entryBytes(n int) int64 { return int64(n) + entryOverhead }

// Pin looks k up. On a hit it marks the entry most recently used, counts
// a hit and returns the entry pinned; the caller must Release it. On a
// miss it counts a miss and returns nil.
//
//repro:allocfree
func (c *FrameCache) Pin(k FrameKey) *CachedFrame { return c.pin(k, true) }

// pin is Pin, counting the lookup only when count is set (a caller that
// already counted this request's lookup re-checks without counting).
//
//repro:allocfree
func (c *FrameCache) pin(k FrameKey, count bool) *CachedFrame {
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		if count {
			c.misses++
		}
		c.mu.Unlock()
		return nil
	}
	c.unlink(e)
	c.pushHot(e)
	e.pins++
	if count {
		c.hits++
	}
	c.mu.Unlock()
	return e
}

// Release drops one pin on e, taken by Pin or returned by Put. An entry
// that was evicted or replaced while pinned is recycled with its last pin.
//
//repro:allocfree
func (c *FrameCache) Release(e *CachedFrame) {
	c.mu.Lock()
	if e.pins <= 0 {
		c.mu.Unlock()
		panic("serve: CachedFrame released more often than pinned")
	}
	e.pins--
	if e.pins == 0 && e.prev == nil {
		c.recycle(e)
	}
	c.mu.Unlock()
}

// missing reports whether k is absent, counting the miss when it is: the
// lookup of a step a render segment will produce.
func (c *FrameCache) missing(k FrameKey) bool {
	c.mu.Lock()
	_, ok := c.m[k]
	if !ok {
		c.misses++
	}
	c.mu.Unlock()
	return !ok
}

// Contains reports whether k is cached, without touching LRU order or
// the hit/miss counters — a peek for planning which steps of a range
// still need rendering.
func (c *FrameCache) Contains(k FrameKey) bool {
	c.mu.Lock()
	_, ok := c.m[k]
	c.mu.Unlock()
	return ok
}

// Put encodes src as k's wire frame (step k.Step, flags 0) into a
// cache-owned body, evicting least-recently-used entries until it fits,
// and returns the new entry pinned: the caller writes the very bytes the
// cache holds and then must Release it. Put returns nil, caching nothing,
// when the frame is larger than the whole cache or the rest of the bound
// is reserved by fills still encoding. Re-putting a key replaces its
// entry; a replaced entry that is pinned keeps its bytes for its readers.
// The encode runs outside the lock, so hits are not held up by a fill.
func (c *FrameCache) Put(k FrameKey, src *img.Image) *CachedFrame {
	n := WireHeaderSize + 4*len(src.Pix)
	need := entryBytes(n)
	if need > c.limit {
		return nil
	}
	c.mu.Lock()
	if old := c.m[k]; old != nil {
		c.drop(old)
	}
	// Take the entry before evicting, so the most recently released one
	// is reused ahead of this Put's own victims.
	e := c.freeList
	if e != nil {
		c.freeList = e.next
		e.next = nil
	} else {
		e = &CachedFrame{}
	}
	for c.used+need > c.limit && c.cold.prev != &c.hot {
		c.evict(c.cold.prev)
	}
	if c.used+need > c.limit {
		c.recycle(e)
		c.mu.Unlock()
		return nil
	}
	c.used += need
	e.pins = 1
	c.mu.Unlock()

	e.key = k
	e.body = EncodeWireFrameInto(pool.Grow(e.body, n), k.Step, src, false)

	c.mu.Lock()
	if old := c.m[k]; old != nil {
		// A concurrent fill of the same key finished first.
		c.drop(old)
	}
	c.m[k] = e
	c.pushHot(e)
	c.mu.Unlock()
	return e
}

// drop removes e from the map, the LRU list and the byte count; an
// unpinned entry is recycled now, a pinned one by its last Release.
// Caller holds c.mu.
func (c *FrameCache) drop(e *CachedFrame) {
	c.unlink(e)
	delete(c.m, e.key)
	c.used -= entryBytes(len(e.body))
	if e.pins == 0 {
		c.recycle(e)
	}
}

// evict drops the victim of the byte bound and counts it. Caller holds
// c.mu.
func (c *FrameCache) evict(victim *CachedFrame) {
	c.drop(victim)
	c.evictions++
}

// recycle parks e on the free list, keeping its body buffer for reuse.
// Caller holds c.mu.
func (c *FrameCache) recycle(e *CachedFrame) {
	e.next = c.freeList
	c.freeList = e
}

// CacheStats is a point-in-time snapshot of the cache counters, exposed
// through /statsz.
type CacheStats struct {
	// Hits and Misses count lookups since construction: one per frame a
	// request asks for.
	Hits, Misses uint64
	// Evictions counts frames pushed out by the byte bound.
	Evictions uint64
	// Entries is the current cached-frame count.
	Entries int
	// Bytes and Limit are the accounted usage and the configured bound.
	Bytes, Limit int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *FrameCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.m), Bytes: c.used, Limit: c.limit,
	}
}
