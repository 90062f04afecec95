package gcx

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCompileCacheCapacity is the entry cap used when NewCompileCache
// is given a non-positive capacity.
const DefaultCompileCacheCapacity = 128

// CompileCache memoizes compilation: repeated requests for the same
// (query text, options) pair are served from a bounded LRU of compiled
// Engines instead of re-running the parser and static analysis. Because
// Engines are immutable and internally pooled, one cached Engine can
// serve any number of concurrent runs — the cache is what turns the
// library into a hot-query serving layer (internal/server builds on it).
// It is the one compiler behind the Registries it creates (NewRegistry):
// their shared passes are assembled from its Engines.
//
// Concurrent misses for the same key are coalesced: exactly one
// compilation runs, the other callers wait for its result. Compilation
// errors are cached too (negative caching), so a repeatedly submitted
// malformed query costs one parse, not one per request.
//
// A CompileCache is safe for concurrent use.
type CompileCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	ll      *list.List // front = most recently used; element values are *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	compiles  atomic.Int64
}

// cacheEntry is one cached compilation. The once gate is the
// single-flight: the first goroutine to reach the entry compiles, every
// other goroutine for the same key blocks on the once and reads the
// result.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	eng  *Engine
	err  error
}

// NewCompileCache returns a cache holding at most capacity compiled
// Engines (DefaultCompileCacheCapacity if capacity < 1).
func NewCompileCache(capacity int) *CompileCache {
	if capacity < 1 {
		capacity = DefaultCompileCacheCapacity
	}
	return &CompileCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element),
		ll:      list.New(),
	}
}

// CacheStats reports cache effectiveness. Compiles counts the query texts
// compiled — by Engine lookups and by the cache's Registries; with
// request coalescing it can be lower than Misses. The JSON field names
// are stable for /metrics scraping.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Compiles  int64 `json:"compiles"`
	Entries   int   `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (cc *CompileCache) Stats() CacheStats {
	cc.mu.Lock()
	n := cc.ll.Len()
	cc.mu.Unlock()
	return CacheStats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Evictions: cc.evictions.Load(),
		Compiles:  cc.compiles.Load(),
		Entries:   n,
	}
}

// Len returns the number of cached Engines.
func (cc *CompileCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ll.Len()
}

// Engine returns the cached Engine for (query, opts), compiling it on
// first use.
func (cc *CompileCache) Engine(query string, opts ...Option) (*Engine, error) {
	e := cc.lookup(query, opts)
	e.once.Do(func() {
		cc.compiles.Add(1)
		e.eng, e.err = Compile(query, opts...)
	})
	return e.eng, e.err
}

// cacheKey identifies a compiled Engine: the configuration the options
// amount to and the query text. Applying the options to get there is
// cheap and has no side effects (WithDTD defers its parse to
// compilation); compilation applies them again. The key is comparable, so
// a lookup builds no string.
type cacheKey struct {
	cfg  configKey
	text string
}

// lookup finds or inserts the entry for (query, opts), updating the LRU
// order and the hit/miss counters, and evicting the least recently used
// entries beyond the capacity. An evicted entry that other goroutines
// still hold stays valid — it is merely no longer findable. A hit
// allocates only the config the options are applied to, and with no
// options nothing.
func (cc *CompileCache) lookup(query string, opts []Option) *cacheEntry {
	key := cacheKey{cfg: defaultConfigKey(), text: query}
	if len(opts) > 0 {
		key.cfg = newConfig(opts).configKey
	}
	cc.mu.Lock()
	if el, ok := cc.entries[key]; ok {
		cc.ll.MoveToFront(el)
		cc.mu.Unlock()
		cc.hits.Add(1)
		return el.Value.(*cacheEntry)
	}
	e := &cacheEntry{key: key}
	cc.entries[key] = cc.ll.PushFront(e)
	for cc.ll.Len() > cc.cap {
		old := cc.ll.Back()
		cc.ll.Remove(old)
		delete(cc.entries, old.Value.(*cacheEntry).key)
		cc.evictions.Add(1)
	}
	cc.mu.Unlock()
	cc.misses.Add(1)
	return e
}
