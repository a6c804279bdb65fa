package serve

import (
	"container/list"
	"sync"

	"neutronstar/internal/obs"
)

// cacheKey addresses one vertex's representation at one layer: layer l is
// the row entering layer l's computation, so layer 1..L are computed
// embeddings (raw features are layer 0 and never cached — they are free).
type cacheKey struct {
	layer int
	vert  int32
}

// cacheEntry is one cached row plus the generation it was computed under.
type cacheEntry struct {
	key cacheKey
	gen uint64
	row []float32
}

// embedCache is the byte-budgeted per-layer embedding cache, in the spirit
// of CaPGNN's budgeted joint cache: instead of materialising every vertex's
// embedding, it keeps the most recently useful rows within a fixed memory
// budget, evicting least-recently-used rows past it. Invalidate advances a
// generation counter and drops everything: entries computed under old
// parameters must never answer post-update queries, and in-flight jobs
// carrying an old generation cannot re-insert stale rows.
//
// A nil *embedCache is valid and behaves as an always-miss cache, which is
// how Config.CacheBytes <= 0 disables caching without guarding call sites.
type embedCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	gen    uint64
	lru    *list.List // front = most recently used; values are *cacheEntry
	idx    map[cacheKey]*list.Element

	hits, misses, evictions int64

	mHits, mMisses, mEvict *obs.Counter
	mBytes                 *obs.Gauge
}

func newEmbedCache(budget int64, reg *obs.Registry) *embedCache {
	return &embedCache{
		budget:  budget,
		lru:     list.New(),
		idx:     make(map[cacheKey]*list.Element),
		mHits:   reg.Counter("ns_serve_cache_hits_total", "Embedding cache rows served."),
		mMisses: reg.Counter("ns_serve_cache_misses_total", "Embedding cache lookups that missed."),
		mEvict:  reg.Counter("ns_serve_cache_evictions_total", "Embedding cache rows evicted past the byte budget."),
		mBytes:  reg.Gauge("ns_serve_cache_bytes", "Embedding cache resident row bytes."),
	}
}

// generation returns the current generation, captured with the model
// snapshot so a job's later Get and Put calls can be rejected if the
// parameters moved meanwhile.
func (c *embedCache) generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Get returns the cached row for (layer, vert) or nil. A caller whose
// generation is stale misses: every resident row was computed under newer
// parameters than the caller's model. The returned slice is owned by the
// cache: callers copy out of it and never mutate it.
func (c *embedCache) Get(layer int, vert int32, gen uint64) []float32 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[cacheKey{layer, vert}]
	if !ok || gen != c.gen {
		c.misses++
		c.mMisses.Inc()
		return nil
	}
	c.hits++
	c.mHits.Inc()
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).row
}

// Put inserts a copy of row, evicting LRU rows past the byte budget. A put
// whose generation is stale (Invalidate ran since the caller captured gen)
// is dropped — the row was computed under superseded parameters.
func (c *embedCache) Put(layer int, vert int32, row []float32, gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	key := cacheKey{layer, vert}
	if el, ok := c.idx[key]; ok {
		// Same generation ⇒ same parameters ⇒ same value; just refresh
		// recency.
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, gen: gen, row: append([]float32(nil), row...)}
	c.idx[key] = c.lru.PushFront(e)
	c.bytes += int64(4 * len(e.row))
	for c.bytes > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		ev := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.idx, ev.key)
		c.bytes -= int64(4 * len(ev.row))
		c.evictions++
		c.mEvict.Inc()
	}
	c.mBytes.Set(float64(c.bytes))
}

// Invalidate drops every entry and advances the generation: the parameters
// changed, so no cached row may answer another query and no in-flight job
// may insert one.
func (c *embedCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.idx = make(map[cacheKey]*list.Element)
	c.bytes = 0
	c.mBytes.Set(0)
}

func (c *embedCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Enabled:     true,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Bytes:       c.bytes,
		BudgetBytes: c.budget,
	}
}
