// Package store is the speed-layer serving subsystem: a sharded,
// concurrent, keyed store of time-bucketed synopses that absorbs
// write-heavy streams while answering merge-queries — the partitioned
// state store the tutorial's Section 3 platforms (Storm/Heron bolts,
// Samza stores, MillWheel persistent state) all assume behind the
// topology, and the serving half of its Figure 1 Lambda Architecture's
// speed layer.
//
// Layout. Keys are (metric, key) pairs — e.g. ("uniques", "page:/home").
// Entries are spread over a power-of-two number of shards by hash, each
// shard guarded by its own sync.RWMutex, so writers on different shards
// never contend and readers never block each other (the sharding scheme
// of production in-memory caches). Each entry holds the time buckets it
// has written, of configurable width, in ascending bucket order — a
// series costs the buckets it holds, not the retention window's worth of
// empty places; each bucket is one mergeable synopsis
// (HyperLogLog, Count-Min, Space-Saving, q-digest — see synopsis.go)
// built by the metric's registered Prototype. A bucket costs what it
// holds: HyperLogLog and Count-Min buckets are born in their sparse
// form, from the Prototype's sparse-born sibling, and turn dense by
// themselves only when too full for it.
//
// Concurrency. A write batch (ObserveBatch, the one write path) locks
// each shard it touches once, for that shard's sketch updates. When
// an entry's stream time advances to a new bucket, older buckets are
// sealed; sealed synopses are immutable — a late write to a sealed bucket
// clones the synopsis and swaps the pointer (copy-on-write), never
// mutating in place. Sealing is where a q-digest takes the size of what
// it holds: it is replaced by its packed copy (see sealSlot), and
// the synopsis it vacates goes back to its shape's pool for the next
// bucket or query accumulator. Range queries RLock the shard
// only long enough to snapshot bucket pointers (merging any still-open
// buckets under the read lock), then merge the sealed buckets lock-free
// outside it: a long query over mostly-sealed history does its heavy
// merging without holding any lock at all.
//
// Retention. Two mechanisms bound memory: the retention window of
// RingBuckets buckets behind each entry's newest (a bucket falling out of
// it is dropped, and writes older than it are rejected and counted) and
// per-shard byte budgets (least-recently-written entries are evicted
// first).
package store

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Observation is one data point bound for the store: the metric names
// which registered synopsis family absorbs it, the key selects the series,
// and item/value carry the payload (see the Synopsis adapters for which of
// the two each family consumes). Time is stream time in arbitrary integer
// units (the bucket width is expressed in the same units).
type Observation struct {
	Metric string
	Key    string
	Item   string
	Value  uint64
	Time   int64

	// Trace carries the observation's trace context when the ingest was
	// sampled (zero otherwise — the common case). It rides the in-process
	// struct only: the wire codec (EncodeObservation) does not serialize
	// it; across the log it travels as a mqlog record header instead
	// (see dstore). A shard group holding a sampled write gets one
	// store.observe span.
	Trace trace.Context
}

// Config tunes a Store.
type Config struct {
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
	// BucketWidth is the stream-time units each bucket spans (default 60).
	BucketWidth int64
	// RingBuckets is the retention window, in buckets (default 60): an
	// entry keeps the buckets it has written within RingBuckets of its
	// newest, and writes further behind are rejected and counted in
	// Stats.DroppedLate. It is a window, not an allocation — an entry
	// holds only the buckets it has written, never more than RingBuckets.
	RingBuckets int
	// MaxShardBytes is the per-shard synopsis byte budget; when a write
	// pushes a shard past it, least-recently-written entries are evicted
	// until it fits (0 = unlimited).
	MaxShardBytes int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so routing is a mask, not a modulo.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.BucketWidth <= 0 {
		c.BucketWidth = 60
	}
	if c.RingBuckets <= 0 {
		c.RingBuckets = 60
	}
	return c
}

// Stats is a point-in-time snapshot of the store's counters. Add sums
// snapshots from several stores; keep it in sync when adding fields.
type Stats struct {
	Observed    uint64 // observations absorbed
	DroppedLate uint64 // observations older than the retention window
	Queries     uint64 // range queries served
	EvictedSize uint64 // entries evicted by the byte budget
	Compacted   uint64 // bucket seals that took the compact form (q-digest; see sealSlot)
	Entries     int    // live (metric, key) entries
	Bytes       int    // synopsis bytes across all shards
}

// Add accumulates another snapshot into s — the aggregation a cluster of
// stores reports. Defined next to the struct so the field list lives in
// exactly one place.
func (s *Stats) Add(o Stats) {
	s.Observed += o.Observed
	s.DroppedLate += o.DroppedLate
	s.Queries += o.Queries
	s.EvictedSize += o.EvictedSize
	s.Compacted += o.Compacted
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// entryKey identifies one series.
type entryKey struct {
	metric string
	key    string
}

// slot is one bucket an entry holds.
type slot struct {
	idx    int64 // bucket index
	sealed bool  // immutable: late writes must copy-on-write
	bytes  int   // last accounted footprint of syn
	syn    Synopsis
}

// entry is the held buckets of one (metric, key) series, plus its links in
// the shard's recency list.
type entry struct {
	k entryKey
	// slots are the buckets the series holds, in ascending bucket order,
	// all within the retention window behind the last (newest) one. The
	// slice grows as buckets open and its capacity never passes
	// RingBuckets (see insert); an append may move it, so no *slot is
	// kept across one.
	slots []slot
	bytes int // sum of slot footprints
	prev  *entry
	next  *entry
}

// newest returns the highest bucket index written, or -1 before the
// first write.
func (e *entry) newest() int64 {
	if len(e.slots) == 0 {
		return -1
	}
	return e.slots[len(e.slots)-1].idx
}

// find returns the position of bucket bkt in slots and whether it is
// held; when it is not, the position is where it would be inserted. A
// write to the newest bucket, the common case, costs one comparison.
func (e *entry) find(bkt int64) (int, bool) {
	if n := len(e.slots); n > 0 && e.slots[n-1].idx == bkt {
		return n - 1, true
	}
	return slices.BinarySearchFunc(e.slots, bkt, func(sl slot, b int64) int { return cmp.Compare(sl.idx, b) })
}

// insert places sl at position i of slots. A full slice grows to twice
// its capacity, but never past ring: an entry holds at most ring buckets,
// so a full series costs no more than a ring of them preallocated.
func (e *entry) insert(i int, sl slot, ring int) {
	n := len(e.slots)
	if n == cap(e.slots) {
		grown := make([]slot, n, min(max(2*n, 1), ring))
		copy(grown, e.slots)
		e.slots = grown
	}
	e.slots = e.slots[:n+1]
	copy(e.slots[i+1:], e.slots[i:n])
	e.slots[i] = sl
}

// sealSlot makes an open bucket immutable and, where the synopsis offers
// a compact form that pays (a q-digest's packed nodes), swaps that form
// in: seal -> compact -> release the
// vacated one. Every path that seals goes through here — time advancing,
// sealHistory and checkpoint restore — so a sealed bucket costs what it
// holds wherever it came from. HyperLogLog and Count-Min buckets already
// do from their first write (they open sparse) and pass through. The
// vacated synopsis was open until this call, so no reader holds it: it
// goes back to its shape's pool, where the next bucket of the metric (or
// a query's accumulator) picks it up. Callers hold the shard lock.
func (e *entry) sealSlot(sl *slot, sh *shard) {
	if sl.sealed {
		return
	}
	sl.sealed = true
	sh.seals++
	c, ok := sl.syn.(compactable)
	if !ok {
		return
	}
	small := c.compacted()
	if small == nil {
		return
	}
	sh.compacted++
	sl.syn = small
	nb := small.Bytes()
	e.bytes += nb - sl.bytes
	sh.bytes += nb - sl.bytes
	sl.bytes = nb
	c.release()
}

// advance prepares the entry for a write to bkt, past its newest bucket:
// every held bucket is sealed (including clones produced by earlier late
// writes) and the buckets that fall out of the retention window of ring
// buckets behind bkt are dropped from the front, so queries never serve
// history the write path would reject. It walks the held buckets once
// per bucket advance per entry. Callers hold the shard lock.
func (e *entry) advance(bkt int64, ring int, sh *shard) {
	horizon := bkt - int64(ring)
	expired := 0
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.idx <= horizon {
			e.bytes -= sl.bytes
			sh.bytes -= sl.bytes
			expired = i + 1
		} else {
			e.sealSlot(sl, sh)
		}
	}
	if expired > 0 {
		n := copy(e.slots, e.slots[expired:])
		clear(e.slots[n:]) // drop the vacated tail's synopsis references
		e.slots = e.slots[:n]
	}
}

// shard is one lock domain: a map of entries plus an intrusive
// recency-of-write list (front = most recently written) driving the
// byte-budget eviction.
type shard struct {
	mu        sync.RWMutex
	entries   map[entryKey]*entry
	head      *entry // most recently written
	tail      *entry // least recently written
	bytes     int
	seals     uint64 // buckets sealed (telemetry)
	compacted uint64 // seals that took the compact form
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) touch(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// remove drops the entry from the shard. Callers hold sh.mu.
func (sh *shard) remove(e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.k)
	sh.bytes -= e.bytes
}

// getOrCreate returns the shard's entry for k, creating one that holds
// no bucket if absent. Callers hold sh.mu.
func (sh *shard) getOrCreate(k entryKey) *entry {
	e, ok := sh.entries[k]
	if !ok {
		e = &entry{k: k}
		sh.entries[k] = e
		sh.pushFront(e)
	}
	return e
}

// Store is the sharded synopsis store.
type Store struct {
	cfg    Config
	mask   uint64
	seed   uint64
	shards []*shard

	// metrics is the registered metric table: every write batch, query
	// and replayed log record looks its metric up here.
	metrics MetricTable

	observed    atomic.Uint64
	droppedLate atomic.Uint64
	queries     atomic.Uint64
	evictedSize atomic.Uint64

	// Checkpoint counters (checkpoint.go): the last written snapshot's
	// size and the records rehydrated into this store at restore.
	ckptRecords atomic.Uint64
	ckptBytes   atomic.Uint64
	restored    atomic.Uint64

	// Telemetry hooks (telemetry.go). Nil when no registry is wired;
	// the write and query paths gate their time.Now() pairs on these,
	// so an uninstrumented store pays one pointer check per hot-path
	// operation.
	telLockWait *telemetry.Histogram
	telGather   *telemetry.Histogram

	// Tracer hook, the tracer of the registry SetTelemetry wired. Same
	// discipline as the histograms: nil when unwired or the registry is
	// untraced, set before serving; traced paths additionally
	// gate on the request/observation carrying a valid trace context,
	// so an unwired or unsampled operation pays one pointer check.
	trc *trace.Tracer
}

// New returns an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Shards < 0 {
		return nil, core.Errf("Store", "Shards", "%d must be >= 0", cfg.Shards)
	}
	if cfg.MaxShardBytes < 0 {
		return nil, core.Errf("Store", "MaxShardBytes", "%d must be >= 0", cfg.MaxShardBytes)
	}
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		seed:   hashutil.Sum64String("store", 0),
		shards: make([]*shard, cfg.Shards),
	}
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[entryKey]*entry)}
	}
	return s, nil
}

// NewWith returns an empty store with every metric in protos
// registered — how the cluster's nodes, Lambda's layers and the batch
// recomputes build a store from a backend's MetricTable.
func NewWith(cfg Config, protos map[string]Prototype) (*Store, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for name, proto := range protos {
		if err := s.RegisterMetric(name, proto); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RegisterMetric binds a metric name to the Prototype that builds its
// bucket synopses (see MetricTable.Register). Metrics must be
// registered before the first write or query that names them.
func (s *Store) RegisterMetric(name string, proto Prototype) error {
	return s.metrics.Register(name, proto)
}

// Metrics returns the registered metric names (unordered).
func (s *Store) Metrics() []string {
	return slices.Collect(maps.Keys(s.metrics.Table()))
}

// shardIndex routes a series to its home shard.
func (s *Store) shardIndex(k entryKey) uint32 {
	h := hashutil.Sum64String(k.key, hashutil.Sum64String(k.metric, s.seed))
	return uint32(h & s.mask)
}

// writeLocked lands one observation in the entry's buckets: late-drop
// check, bucket advance (sealing + window expiry), opening the bucket or
// copy-on-write, the sketch update, and byte accounting. open is the
// metric's bucket Prototype (MetricTable.buckets). Callers hold sh.mu and
// handle counters and eviction.
func (s *Store) writeLocked(sh *shard, e *entry, obs Observation, open Prototype) (dropped bool, err error) {
	bkt := obs.Time / s.cfg.BucketWidth
	newest := e.newest()
	if newest >= 0 && bkt <= newest-int64(s.cfg.RingBuckets) {
		return true, nil
	}
	if bkt > newest {
		e.advance(bkt, s.cfg.RingBuckets, sh)
	}
	i, held := e.find(bkt)
	if !held {
		// A new newest bucket, or a late one inside the window that was
		// never written. The fresh synopsis starts unsealed even for a
		// late bucket; the next time advance re-seals it.
		e.insert(i, slot{idx: bkt, syn: open()}, s.cfg.RingBuckets)
	}
	sl := &e.slots[i]
	if sl.sealed {
		// Late write to a sealed bucket: a reader may hold the sealed
		// pointer outside the shard lock, so mutate a private clone and
		// swap it in. The clone opens like any bucket and takes the
		// sealed one's contents; it stays unsealed until time next
		// advances.
		clone := open()
		if err := clone.Merge(sl.syn); err != nil {
			return false, fmt.Errorf("store: copy-on-write clone of %q/%q: %w", obs.Metric, obs.Key, err)
		}
		sl.syn = clone
		sl.sealed = false
	}
	sl.syn.Observe(obs.Item, obs.Value)
	nb := sl.syn.Bytes()
	e.bytes += nb - sl.bytes
	sh.bytes += nb - sl.bytes
	sl.bytes = nb
	sh.touch(e)
	return false, nil
}

// evict applies the byte budget to one shard. Callers hold sh.mu.
func (s *Store) evict(sh *shard) {
	if max := s.cfg.MaxShardBytes; max > 0 {
		for sh.bytes > max && len(sh.entries) > 1 {
			sh.remove(sh.tail)
			s.evictedSize.Add(1)
		}
	}
}

// Keys returns every key of the metric currently resident in the store,
// across all shards (unordered).
func (s *Store) Keys(metric string) []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.entries {
			if k.metric == metric {
				out = append(out, k.key)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Observed:    s.observed.Load(),
		DroppedLate: s.droppedLate.Load(),
		Queries:     s.queries.Load(),
		EvictedSize: s.evictedSize.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		st.Compacted += sh.compacted
		sh.mu.RUnlock()
	}
	return st
}

// Shards returns the (rounded) shard count the store is running with.
func (s *Store) Shards() int { return s.cfg.Shards }

// BucketWidth returns the stream-time units each bucket spans.
func (s *Store) BucketWidth() int64 { return s.cfg.BucketWidth }
