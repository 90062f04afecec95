package gcx

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"gcx/internal/engine"
)

// DefaultCompileCacheCapacity is the entry cap used when NewCompileCache
// is given a non-positive capacity.
const DefaultCompileCacheCapacity = 128

// CompileCache memoizes compilation: repeated requests for the same
// (query text, options) pair are served from a bounded LRU of compiled
// Engines and Workloads instead of re-running the parser and static
// analysis. Because Engines and Workloads are immutable and internally
// pooled, one cached artifact can serve any number of concurrent runs —
// the cache is what turns the library into a hot-query serving layer
// (internal/server builds on it). It is the one compiler behind its
// Workloads and the Registries it creates (NewRegistry): both are
// assembled from its Engines.
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
	members []byte     // scratch a Workload lookup joins its member texts in

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
	wl   *Workload
	err  error
}

// NewCompileCache returns a cache holding at most capacity compiled
// artifacts (DefaultCompileCacheCapacity if capacity < 1).
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
// compiled — by Engine lookups, by the Workloads assembled from them and
// by the cache's Registries; with request coalescing it can be lower than
// Misses. The JSON field names are stable for /metrics scraping.
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

// Len returns the number of cached artifacts.
func (cc *CompileCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ll.Len()
}

// Engine returns the cached Engine for (query, opts), compiling it on
// first use.
func (cc *CompileCache) Engine(query string, opts ...Option) (*Engine, error) {
	e := cc.lookup(false, []string{query}, opts)
	e.once.Do(func() {
		cc.compiles.Add(1)
		e.eng, e.err = Compile(query, opts...)
	})
	return e.eng, e.err
}

// Workload returns the cached Workload for (queries, opts), assembling it
// on first use from the cached Engine of each member text, so a text
// already compiled for a solo request or a registry is not compiled
// again. The member order is part of the key: workloads with the same
// queries in a different order are distinct artifacts (their output order
// differs).
func (cc *CompileCache) Workload(queries []string, opts ...Option) (*Workload, error) {
	e := cc.lookup(true, queries, opts)
	e.once.Do(func() {
		members := make([]*engine.Compiled, len(queries))
		for i, q := range queries {
			eng, err := cc.Engine(q, opts...)
			if err != nil {
				e.err = requalify(err, "", fmt.Sprintf("workload: query %d: ", i))
				return
			}
			members[i] = eng.c
		}
		p, err := engine.NewPass(members, 0)
		if err != nil {
			e.err = queryError("", err)
			return
		}
		e.wl = &Workload{c: p}
	})
	return e.wl, e.err
}

// cacheKey identifies a compiled artifact: its kind, the configuration
// the options amount to, and its query text. Applying the options to get
// there is cheap and has no side effects (WithDTD defers its parse to
// compilation); compilation applies them again. The key is comparable, so
// a lookup builds no string: an Engine is keyed by the query it was
// handed, a Workload by its member texts joined into the cache's scratch.
type cacheKey struct {
	cfg      configKey
	workload bool
	// text is an Engine's query, or a Workload's member texts one after
	// the other, each length-prefixed so that no crafted text (e.g. one
	// containing a NUL) can make two different workloads collide.
	text string
}

// lookup finds or inserts the entry of the Engine for texts[0] or of the
// Workload over texts, updating the LRU order and the hit/miss counters,
// and evicting the least recently used entries beyond the capacity. An
// evicted entry that other goroutines still hold stays valid — it is
// merely no longer findable. A hit allocates only the config the options
// are applied to.
func (cc *CompileCache) lookup(workload bool, texts []string, opts []Option) *cacheEntry {
	cfg := newConfig(opts)
	key := cacheKey{cfg: cfg.configKey, workload: workload}
	cc.mu.Lock()
	var (
		el *list.Element
		ok bool
	)
	if !workload {
		key.text = texts[0]
		el, ok = cc.entries[key]
	} else {
		cc.members = cc.members[:0]
		for _, q := range texts {
			cc.members = strconv.AppendInt(cc.members, int64(len(q)), 10)
			cc.members = append(cc.members, ':')
			cc.members = append(cc.members, q...)
		}
		// Converting inside the index expression compares the scratch
		// bytes in place; the string is only built on a miss.
		el, ok = cc.entries[cacheKey{cfg: key.cfg, workload: true, text: string(cc.members)}]
	}
	if ok {
		cc.ll.MoveToFront(el)
		cc.mu.Unlock()
		cc.hits.Add(1)
		return el.Value.(*cacheEntry)
	}
	if workload {
		key.text = string(cc.members)
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
