package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"firmup"
	"firmup/internal/telemetry"
)

const (
	// queryCacheBytes bounds what one corpus's query cache is charged:
	// ghostBytes per entry plus, for an entry holding an analysed query,
	// the length of the upload it was analysed from. An analysed registry
	// query retains 2x its upload (TestAnalyzedQueryFootprint holds the
	// ratio under 6x), so a full cache is about 8 MB of heap: some 240
	// queries of the registry's 17 KB, six times its 36, for a tenth of
	// what the daemon is resident with at bench scale.
	queryCacheBytes = 4 << 20
	// ghostBytes is the charge for an entry by itself: the hash, its map
	// slot and its list element.
	ghostBytes = 160
)

// queryKey identifies an upload by content: the SHA-256 of the request
// body. Nothing else reaches the front-end — the label is constant and
// the workers a build is lent do not change what sim.BuildWith produces.
type queryKey [sha256.Size]byte

// queryCache maps upload hashes to analysed query executables, one LRU
// list under a byte bound, with admission on second sight: the first
// request for a hash leaves a hash-only ghost, and only a request that
// finds the ghost stores what it analysed. One-off uploads therefore
// cost ghostBytes each and never displace a value by their size.
//
// The cache belongs to one Corpus because a value's private strand IDs
// are only meaningful over the vocabulary it was interned against.
// The zero value is an empty cache.
type queryCache struct {
	mu      sync.Mutex
	entries map[queryKey]*list.Element
	// lru holds a *cacheEntry per element, most recently used first.
	lru   list.List
	bytes int64
}

type cacheEntry struct {
	key   queryKey
	exe   *firmup.Executable // nil for a ghost
	bytes int64
}

// cacheCounters are the serve.query_cache.* counters the cache's
// methods record into; they belong to the Server, whichever corpus is
// installed. Evictions count values only, not ghosts.
type cacheCounters struct {
	hits, misses, admitted, evicted *telemetry.Counter
}

// lookup returns the analysed query stored under key, or nil, and
// whether key had been seen before; either way key becomes the most
// recently used entry, as a ghost if it is new.
func (c *queryCache) lookup(key queryKey, m *cacheCounters) (exe *firmup.Executable, seen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		if exe = el.Value.(*cacheEntry).exe; exe != nil {
			m.hits.Inc()
		} else {
			m.misses.Inc()
		}
		return exe, true
	}
	m.misses.Inc()
	if c.entries == nil {
		c.entries = map[queryKey]*list.Element{}
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, bytes: ghostBytes})
	c.bytes += ghostBytes
	c.evict(m)
	return nil, false
}

// attach stores exe, analysed from a size-byte upload, under a key that
// lookup reported as seen. The value is dropped when the ghost has been
// evicted meanwhile, when a concurrent request attached first, or when
// the upload alone exceeds the bound.
func (c *queryCache) attach(key queryKey, exe *firmup.Executable, size int, m *cacheCounters) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || ghostBytes+int64(size) > queryCacheBytes {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.exe != nil {
		return
	}
	e.exe = exe
	e.bytes += int64(size)
	c.bytes += int64(size)
	c.lru.MoveToFront(el)
	m.admitted.Inc()
	c.evict(m)
}

// evict drops least recently used entries until the cache is within its
// bound.
func (c *queryCache) evict(m *cacheCounters) {
	for c.bytes > queryCacheBytes {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		if e.exe != nil {
			m.evicted.Inc()
		}
	}
}

// size returns the bytes the cache is currently charged.
func (c *queryCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
