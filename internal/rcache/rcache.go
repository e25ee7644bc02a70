// Package rcache is the serving tier's sharded read-path cache for
// query results over fully-sealed time ranges.
//
// The store's bucket discipline makes exact read caching possible: a
// bucket below the stream's current open bucket is sealed, and sealed
// synopses only change when a late write lands inside the retention
// window (copy-on-write in the store). So a cached answer for a
// half-open range [From, To) that lies entirely below the open bucket
// is exact as long as no bucket advance and no late write touched the
// metric since the answer was computed. The cache tracks exactly that:
// a per-metric version that bumps when an observation advances the
// open bucket or lands below it, and every cached entry is stamped
// with the versions of its metrics at lookup time. A hit requires the
// stamps to match the current versions; anything else is a miss.
// Versions only grow, so an entry whose stamp falls behind can never
// hit again: a shard drops every such entry at its first fill after
// any version moved. A sliding panel's old absolute range is never
// asked again, so an entry left for its own key's refill would stay
// until eviction.
//
// The contract requires every write to pass through NoteObserve — the
// serving daemon sits on the only ingest path, so it calls NoteObserve
// per observation once the backend has absorbed the write. Writes that
// bypass the daemon bypass invalidation, exactly like any look-aside
// cache.
//
// Only answers asked for more than once are kept. A miss records the
// request's shape in a doorkeeper — a two-generation Bloom filter, as in
// TinyLFU — and Fill stores the answer only if that shape had been
// recorded before. The shape is the metrics, the keys, the aggregate
// flag, the span To−From and the lag frontier−To, where the frontier is
// the lowest open-bucket start among the request's metrics: a dashboard
// panel that slides forward one bucket with every roll keeps its shape,
// so after a roll it is admitted on its first ask, while a request
// asked once (a distinct ad-hoc range) never becomes resident. A request
// the doorkeeper has not seen is filled on its second ask and served
// from the cache from its third.
//
// AllKeys requests are never cached: the resident key set grows with
// writes to the open bucket (which bump no version), so the answer's
// cell list is not a pure function of sealed history.
//
// Entries shard by key hash, each shard holding an independent map and
// a list of its resident entries in fill order under its own mutex, so
// concurrent lookups on a busy edge don't serialize. Both grow on first
// fill: a shard the doorkeeper keeps empty costs nothing. A refill or
// a sweep unlinks the entry's element, so a refilled key goes to the
// back; a full shard evicts from the front.
//
// The cache holds results in the form the backend returned them: the
// store answers a sparse-enough cell with its compact synopsis (see the
// store's finish), so a cached answer costs what it holds, and
// Stats.Bytes sums what the resident answers report. Budgets are
// counted in entries, not bytes: with stale entries swept, a budget
// binds only when the live answers exceed it. Cached results are
// shared across readers: treat the answers as read-only (the serving
// tier only encodes them).
package rcache

import (
	"container/list"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/hashutil"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config tunes a Cache.
type Config struct {
	// BucketWidth is the backend store's bucket width in stream-time
	// units — the cache needs the same geometry to know where the open
	// bucket starts. Required (New fails on <= 0).
	BucketWidth int64
	// MaxEntries bounds the total cached results, split evenly across
	// shards; a full shard evicts its oldest entry (default 4096). It
	// also sizes the doorkeeper: each of its generations remembers
	// MaxEntries shapes.
	MaxEntries int
}

// Cache is a sharded sealed-range read cache. Safe for concurrent use.
type Cache struct {
	cfg   Config
	per   int // entry budget of each shard
	mask  uint32
	shard []cshard
	door  *doorkeeper

	mu      sync.RWMutex
	metrics map[string]*metricState

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	declined      atomic.Uint64
}

// metricState is one metric's write watermark: the current open bucket
// index and a version that bumps whenever sealed history may have
// changed (bucket advance, or a late write below the open bucket).
type metricState struct {
	open    atomic.Int64
	version atomic.Uint64
}

// cshard is one cache shard: a keyed map plus its entries in fill
// order, oldest at the front.
type cshard struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   list.List // of *entry
	bytes   int       // sum of the resident entries' bytes
	swept   uint64    // Cache.invalidations when the shard was last swept
}

// entry is one cached result with the metric versions it was computed
// under.
type entry struct {
	key     string
	res     store.QueryResult
	metrics []string
	stamp   []uint64
	elem    *list.Element // its place in the shard's fill order
	bytes   int           // the answers' synopsis bytes
}

// drop removes a resident entry. Callers hold sh.mu.
func (sh *cshard) drop(e *entry) {
	delete(sh.entries, e.key)
	sh.order.Remove(e.elem)
	sh.bytes -= e.bytes
}

// New builds a Cache for stores with the given bucket geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.BucketWidth <= 0 {
		return nil, fmt.Errorf("rcache: BucketWidth %d must be > 0", cfg.BucketWidth)
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	// The most shards, up to 16, that leave each at least 256 entries:
	// a small cache keeps one shard and so an exact FIFO.
	shards := 16
	for shards > 1 && cfg.MaxEntries/shards < 256 {
		shards >>= 1
	}
	per := cfg.MaxEntries / shards
	cfg.MaxEntries = per * shards
	return &Cache{
		cfg:     cfg,
		per:     per,
		mask:    uint32(shards - 1),
		shard:   make([]cshard, shards),
		door:    newDoorkeeper(cfg.MaxEntries),
		metrics: make(map[string]*metricState),
	}, nil
}

// state returns the metric's watermark, creating it on first sight.
func (c *Cache) state(metric string) *metricState {
	c.mu.RLock()
	st := c.metrics[metric]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st = c.metrics[metric]; st != nil {
		return st
	}
	st = &metricState{}
	st.open.Store(-1 << 62) // nothing observed: no range is sealed yet
	c.metrics[metric] = st
	return st
}

// peek returns the metric's watermark without creating it.
func (c *Cache) peek(metric string) *metricState {
	c.mu.RLock()
	st := c.metrics[metric]
	c.mu.RUnlock()
	return st
}

// NoteObserve records that an observation for metric at stream time t
// is about to reach the backend. An observation landing in the current
// open bucket changes nothing cacheable; one advancing the open bucket
// seals the buckets behind it and invalidates the metric's entries
// (they may predate the seal); one landing below the open bucket is a
// late write into sealed history and invalidates likewise. Call it on
// every write the serving edge forwards — it is two atomic loads on
// the common in-open-bucket path.
func (c *Cache) NoteObserve(metric string, t int64) {
	if t < 0 {
		return // the backend will reject it; nothing to invalidate
	}
	b := t / c.cfg.BucketWidth
	st := c.state(metric)
	for {
		open := st.open.Load()
		switch {
		case b == open:
			return
		case b > open:
			if !st.open.CompareAndSwap(open, b) {
				continue // another writer moved it; re-read
			}
		}
		// Advance (b > open) or late write (b < open): sealed history
		// for this metric may differ from any cached answer.
		st.version.Add(1)
		c.invalidations.Add(1)
		return
	}
}

// Token carries a Lookup's verdict between Lookup and Fill: whether
// the request was eligible, and whether the doorkeeper admits its
// answer. The zero Token is ineligible, so a caller can thread it
// through unconditionally.
type Token struct {
	key     string
	idx     uint32
	metrics []string
	stamp   []uint64
	ok      bool
	admit   bool
}

// Cacheable reports whether the request was eligible for the cache at
// Lookup time: a hit, or a miss counted as one. Whether Fill stores the
// answer also depends on the doorkeeper's verdict.
func (t Token) Cacheable() bool { return t.ok }

// keyBuf is the stack buffer a lookup renders its key into; longer
// keys spill to the heap.
const keyBuf = 256

// Lookup checks the cache for req's answer. It returns (result, true)
// on an exact hit. On a miss it records the request's shape with the
// doorkeeper and returns a Token: run the query against the backend and
// hand the result to Fill with the token, which stores it only if the
// shape had been seen before and no invalidating write raced the query.
// Requests that are not cacheable — malformed, AllKeys, or ranges not
// yet fully sealed — return an ineligible token and are not counted as
// misses.
func (c *Cache) Lookup(req store.QueryRequest) (store.QueryResult, bool, Token) {
	req, err := req.Normalize()
	if err != nil || req.AllKeys {
		return store.QueryResult{}, false, Token{}
	}
	// The range must lie entirely below every metric's open bucket; the
	// lowest open-bucket start is the frontier the shape's lag counts
	// from.
	var sbuf [4]uint64
	stamp, frontier := sbuf[:0], int64(math.MaxInt64)
	for _, m := range req.Metrics {
		st := c.peek(m)
		if st == nil {
			return store.QueryResult{}, false, Token{}
		}
		open := st.open.Load() * c.cfg.BucketWidth
		if req.To > open {
			return store.QueryResult{}, false, Token{}
		}
		frontier = min(frontier, open)
		stamp = append(stamp, st.version.Load())
	}
	var kbuf [keyBuf]byte
	key, shape := appendKey(kbuf[:0], req, frontier)
	idx := uint32(hashutil.Sum64(key, 0)) & c.mask

	sh := &c.shard[idx]
	sh.mu.Lock()
	e := sh.entries[string(key)]
	if e != nil && stampEqual(e.stamp, stamp) {
		res := e.res
		tok := Token{key: e.key, idx: idx, metrics: e.metrics, stamp: e.stamp, ok: true, admit: true}
		sh.mu.Unlock()
		c.hits.Add(1)
		return res, true, tok
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	tok := Token{idx: idx, metrics: req.Metrics, ok: true}
	if c.door.record(shape) {
		tok.key, tok.stamp, tok.admit = string(key), append([]uint64(nil), stamp...), true
	}
	return store.QueryResult{}, false, tok
}

// Fill stores res under the token's key, unless the doorkeeper did not
// admit the request (counted in Stats.Declined) or an invalidating
// write for one of its metrics raced the backend query (the version
// stamp moved since Lookup). Either way the result is silently
// discarded — the next lookup recomputes. The first fill of a shard
// after any version moved also sweeps the shard of its stale entries.
func (c *Cache) Fill(tok Token, res store.QueryResult) {
	if !tok.ok {
		return
	}
	if !tok.admit {
		c.declined.Add(1)
		return
	}
	nb := 0
	for _, a := range res.Answers() {
		if syn := a.Raw(); syn != nil {
			nb += syn.Bytes()
		}
	}
	sh := &c.shard[tok.idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The count is read before the versions the sweep compares with: a
	// bump runs version first, count second, so one the sweep misses
	// leaves the count ahead of swept and the next fill sweeps again.
	if inv := c.invalidations.Load(); inv != sh.swept {
		sh.swept = inv
		for el := sh.order.Front(); el != nil; {
			e := el.Value.(*entry)
			el = el.Next()
			if !c.current(e.metrics, e.stamp) {
				sh.drop(e)
			}
		}
	}
	// Checked under the lock, after the sweep: a bump that lands from
	// here to the store moves the count, so the next fill sweeps it.
	if !c.current(tok.metrics, tok.stamp) {
		return
	}
	if sh.entries == nil {
		sh.entries = make(map[string]*entry)
	}
	if old := sh.entries[tok.key]; old != nil {
		// A refill replaces the entry and moves the key to the back.
		sh.drop(old)
	}
	for len(sh.entries) >= c.per {
		sh.drop(sh.order.Front().Value.(*entry))
		c.evictions.Add(1)
	}
	e := &entry{key: tok.key, res: res, metrics: tok.metrics, stamp: tok.stamp, bytes: nb}
	e.elem = sh.order.PushBack(e)
	sh.entries[tok.key] = e
	sh.bytes += nb
}

// current reports whether stamp still holds every metric's version.
// Versions only grow: an entry that is not current never hits again.
func (c *Cache) current(metrics []string, stamp []uint64) bool {
	for i, m := range metrics {
		st := c.peek(m)
		if st == nil || st.version.Load() != stamp[i] {
			return false
		}
	}
	return true
}

// appendKey appends the normalized request's cache key to dst — the
// bytes fmt's "%q|%q|%d|%d|%t" renders of Metrics, Keys, From, To and
// Aggregate, whose quoting keeps names containing separators from
// colliding — and returns the hash of the request's shape for the
// doorkeeper: the quoted names, the aggregate flag, the span To−From
// and the lag frontier−To.
func appendKey(dst []byte, req store.QueryRequest, frontier int64) ([]byte, uint64) {
	dst = appendQuoted(dst, req.Metrics)
	dst = append(dst, '|')
	dst = appendQuoted(dst, req.Keys)
	dst = append(dst, '|')
	shape := hashutil.Sum64(dst, 0)
	agg := uint64(0)
	if req.Aggregate {
		agg = 1
	}
	shape = hashutil.Mix64(shape ^ uint64(req.To-req.From))
	shape = hashutil.Mix64(shape ^ uint64(frontier-req.To)<<1 ^ agg)
	dst = strconv.AppendInt(dst, req.From, 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, req.To, 10)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, req.Aggregate)
	return dst, shape
}

// appendQuoted appends names as fmt's %q renders a []string.
func appendQuoted(dst []byte, names []string) []byte {
	dst = append(dst, '[')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendQuote(dst, n)
	}
	return append(dst, ']')
}

// stampEqual compares version stamps.
func stampEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats is a point-in-time summary of cache activity.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Declined      uint64 // fills the doorkeeper turned down
	Entries       int
	Bytes         int // resident answers' synopsis bytes (Synopsis.Bytes)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	n, b := c.resident()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Declined:      c.declined.Load(),
		Entries:       n,
		Bytes:         b,
	}
}

// Len counts the resident entries across all shards.
func (c *Cache) Len() int {
	n, _ := c.resident()
	return n
}

// resident sums the entries and answer bytes across all shards.
func (c *Cache) resident() (entries, bytes int) {
	for i := range c.shard {
		sh := &c.shard[i]
		sh.mu.Lock()
		entries += len(sh.entries)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return entries, bytes
}

// HitRatio returns hits / (hits + misses), or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// SetTelemetry registers the cache's metrics with reg under the given
// label pairs (default layer="serve" — the cache fronts the serving
// tier). All instruments are scrape-time reads of the cache's atomics.
// A nil registry is a no-op.
func (c *Cache) SetTelemetry(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	if len(labels) == 0 {
		labels = []string{"layer", "serve"}
	}
	reg.CounterFunc("analytics_serve_cache_hits_total",
		"Read-cache lookups answered from a cached sealed-range result.",
		func() uint64 { return c.hits.Load() }, labels...)
	reg.CounterFunc("analytics_serve_cache_misses_total",
		"Read-cache lookups that fell through to the backend.",
		func() uint64 { return c.misses.Load() }, labels...)
	reg.CounterFunc("analytics_serve_cache_evictions_total",
		"Entries evicted by the per-shard FIFO budget.",
		func() uint64 { return c.evictions.Load() }, labels...)
	reg.CounterFunc("analytics_serve_cache_invalidations_total",
		"Per-metric version bumps (bucket advances and late writes).",
		func() uint64 { return c.invalidations.Load() }, labels...)
	reg.CounterFunc("analytics_serve_cache_declined_total",
		"Fills the admission doorkeeper turned down: the request's shape had not been asked before.",
		func() uint64 { return c.declined.Load() }, labels...)
	reg.GaugeFunc("analytics_serve_cache_entries",
		"Resident cached results across all shards.",
		func() float64 { return float64(c.Len()) }, labels...)
	reg.GaugeFunc("analytics_serve_cache_bytes",
		"Synopsis bytes of the resident cached answers, in the form each is held.",
		func() float64 { _, b := c.resident(); return float64(b) }, labels...)
	reg.GaugeFunc("analytics_serve_cache_hit_ratio",
		"Hits over lookups since start (0 before the first lookup).",
		func() float64 { return c.HitRatio() }, labels...)
}
