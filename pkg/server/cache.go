package server

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/blobstore"
	"repro/pkg/engine"
)

// entry is one cached generation outcome: the deterministic encoded
// wire body (what non-streaming responses send verbatim) plus the
// X-Quality-Tier and X-Worst-Rel-Error header values, fixed when the
// entry is made. A streaming hit replays its iterations by decoding the
// body again, so size counts everything the entry holds.
type entry struct {
	key         string
	body        []byte
	tier, worst string
}

// newEntry makes the entry of an encoded body from its decoded form.
func newEntry(key string, body []byte, wire *engine.WireResponse) *entry {
	return &entry{key: key, body: body, tier: wire.Tier, worst: fmt.Sprintf("%.6g", wire.WorstRelError())}
}

func (e *entry) size() int64 { return int64(len(e.key) + len(e.body) + len(e.tier) + len(e.worst)) }

// CacheStats is a point-in-time snapshot of the result cache.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// DiskCacheStats is the persistent-tier section of Stats: hits,
// misses, writes and quarantines of the Config.CacheDir store, with
// JSON keys hits, misses, writes and quarantines.
type DiskCacheStats = blobstore.Stats

// FS is the whole-file filesystem surface under the Config.CacheDir
// tier (see Config.StoreFS). Nil selects the real filesystem; tests and
// the chaos harness pass internal/faultfs, which tears writes, flips
// bits and fails renames or reads on a seeded plan.
type FS = blobstore.FS

// cache is the content-addressed LRU result cache. It is bounded both
// by entry count and by total encoded bytes — the byte bound is the one
// that matters operationally, since a ladder response is an order of
// magnitude larger than a biquad one. Keys are engine.CanonicalKey
// addresses, so hits are sound by construction: equal key implies
// bit-identical result.
type cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used; values are *entry
	index      map[string]*list.Element
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      make(map[string]*list.Element),
	}
}

func (c *cache) get(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry), true
	}
	c.misses++
	return nil, false
}

func (c *cache) put(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[e.key]; ok {
		c.bytes += e.size() - el.Value.(*entry).size()
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.index[e.key] = c.ll.PushFront(e)
		c.bytes += e.size()
	}
	// Evict from the cold end until both bounds hold again. A single
	// entry larger than maxBytes stays resident (the > 1 guard): caching
	// it oversized still beats regenerating it per request.
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		el := c.ll.Back()
		old := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.index, old.key)
		c.bytes -= old.size()
		c.evictions++
	}
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
