package serve

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// answer is one cached query result. Scores and Nodes are immutable
// once stored: Engine.Query hands out copies, Engine.QueryShared the
// slices themselves under a read-only contract.
type answer struct {
	scores []float64
	nodes  []int // top-k ids; nil for full-vector measures
}

// lruCache is a mutex-guarded LRU over query keys. The serving layer's
// workers share one cache, so a hot query computed by any worker is a
// hit for all of them.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	ans answer

	// body is the encoded response every hit of this key gets, stored by
	// the first hit (Response.StoreHitBody) and immutable afterwards. The
	// cache holds it as opaque bytes: it lives and dies with the entry,
	// so LRU eviction and purgePrefix drop it, and a re-pinned snapshot's
	// new generation can never reach it. Entries that are never hit never
	// carry one.
	body atomic.Pointer[[]byte]
}

// HitBody returns the encoded body an earlier hit of this answer's cache
// entry stored, or nil: always nil unless r came from QueryShared with
// CacheHit set. The bytes are shared and must not be written.
func (r *Response) HitBody() []byte {
	if r.hit == nil {
		return nil
	}
	if p := r.hit.body.Load(); p != nil {
		return *p
	}
	return nil
}

// StoreHitBody keeps a copy of body as the encoded form of r's cache
// entry, to be returned by HitBody on every later hit of the key. It
// does nothing unless r is a QueryShared cache hit; the first store
// wins. Every hit of one key has the same body by construction — the
// key carries the factors' generation or version, measure, payload and
// damping, and only hits say cache_hit: true — which is what makes the
// bytes reusable.
func (r *Response) StoreHitBody(body []byte) {
	if r.hit == nil {
		return
	}
	b := append([]byte(nil), body...)
	r.hit.body.CompareAndSwap(nil, &b)
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached entry for key (nil on a miss), promoting it to
// most recently used.
func (c *lruCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put stores the answer for key, evicting the least recently used
// entry when over capacity. Returns the number of evictions (0 or 1).
func (c *lruCache) put(key string, ans answer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent worker already computed this key; the answers
		// are identical (solves are deterministic), so keep the first.
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, ans: ans})
	if c.order.Len() <= c.cap {
		return 0
	}
	back := c.order.Back()
	c.order.Remove(back)
	delete(c.entries, back.Value.(*cacheEntry).key)
	return 1
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// purgePrefix drops every entry whose key starts with prefix and
// returns how many were dropped. Used when a snapshot is evicted from
// the store so the cache cannot keep answering for a snapshot the
// store reports as gone. The scan is linear over the cache, which the
// capacity bounds.
func (c *lruCache) purgePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.order.Remove(el)
			delete(c.entries, key)
			dropped++
		}
	}
	return dropped
}
