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
// built from the metric's registered Prototype. A bucket costs what it
// holds: HyperLogLog and Count-Min buckets are born in their sparse
// form (Prototype.bucket) and turn dense by themselves only when too
// full for it.
//
// Concurrency. A write batch (ObserveBatch, the one write path) locks
// each shard it touches once, for that shard's sketch updates. When
// an entry's stream time advances to a new bucket, older buckets are
// sealed, and sealed buckets are immutable. Sealing is where a bucket
// takes the size of what it holds: one in a compact form (a sparse
// HyperLogLog or Count-Min, any q-digest) leaves its slot for the
// series' sealed history, one byte arena of payloads (history.go), and
// its synopsis goes to the collector; a Space-Saving summary is replaced
// by its flat copy; a dense sketch stays as it is (see sealAll). A late
// write to a sealed bucket reopens it as a fresh synopsis that takes the
// sealed contents (copy-on-write), never mutating in place. Range queries
// RLock the shard only long enough to snapshot bucket pointers and
// payload slices (merging any still-open buckets under the read lock),
// then merge the sealed buckets lock-free outside it: a long query over
// mostly-sealed history does its heavy merging without holding any lock
// at all.
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
	// RingBuckets is the retention window, in buckets (default 60, at
	// most 2^24, the buckets a sealed history's index tells apart): an
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
	Compacted   uint64 // bucket seals that took a compact form (the sealed history, or a flat top-k; see sealAll)
	Entries     int    // live (metric, key) entries
	Bytes       int    // synopsis and sealed-history bytes across all shards (see entry.bytes)
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

// slot is one bucket an entry holds as an object, in 24 bytes: the
// bucket index and sealed flag in one word, and the synopsis. Its
// footprint is not kept: syn.Bytes() is a pure function of the synopsis,
// so the accounting reads it before and after each change to the slot.
type slot struct {
	// key is the bucket index shifted left one bit, the low bit set once
	// the bucket is sealed (immutable: late writes must copy-on-write).
	// Bucket indices are non-negative, since times are (see
	// MetricTable.Check), so unsigned, every index fits.
	key uint64
	syn Synopsis
}

// idx returns the slot's bucket index.
func (sl *slot) idx() int64 { return int64(sl.key >> 1) }

// sealed reports whether the bucket is sealed.
func (sl *slot) sealed() bool { return sl.key&1 != 0 }

// newSlot returns an unsealed slot of bucket bkt holding syn.
func newSlot(bkt int64, syn Synopsis) slot { return slot{key: uint64(bkt) << 1, syn: syn} }

// entry is the held buckets of one (metric, key) series, plus its links in
// the shard's recency list. A bucket is held once, as a slot or in the
// history, and every held bucket lies within the retention window behind
// the newest.
type entry struct {
	k entryKey
	// slots are the buckets the series holds as objects, in ascending
	// bucket order: the open ones, and sealed ones without a compact
	// payload (a dense sketch, a flat top-k; see sealAll). The slice
	// grows as buckets open and its capacity never passes RingBuckets
	// (see insert); an append may move it, so no *slot is kept across
	// one.
	slots []slot
	// hist holds the sealed buckets with a compact payload.
	hist history
	// bytes is the slots' syn.Bytes() plus hist.bytes(): what a synopsis
	// holds, and what the history's live records and index hold.
	bytes int
	prev  *entry
	next  *entry
}

// newest returns the highest bucket index written, or -1 before the
// first write.
func (e *entry) newest() int64 {
	newest := e.hist.newest()
	if n := len(e.slots); n > 0 {
		newest = max(newest, e.slots[n-1].idx())
	}
	return newest
}

// grow moves the entry's and its shard's byte accounting by d.
func (e *entry) grow(sh *shard, d int) {
	e.bytes += d
	sh.bytes += d
}

// find returns the position of bucket bkt in slots and whether it is
// held; when it is not, the position is where it would be inserted. A
// write to the newest bucket, the common case, costs one comparison.
func (e *entry) find(bkt int64) (int, bool) {
	if n := len(e.slots); n > 0 && e.slots[n-1].idx() == bkt {
		return n - 1, true
	}
	return slices.BinarySearchFunc(e.slots, bkt, func(sl slot, b int64) int { return cmp.Compare(sl.idx(), b) })
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

// sealAll makes every open bucket of the entry immutable, in the form
// that costs what it holds. A bucket with a compact payload (a sparse
// HyperLogLog or Count-Min, any q-digest) leaves its slot for the
// history, where it costs its payload and one index word, and its
// synopsis goes to the collector. A Space-Saving summary swaps in its
// flat copy. A dense sketch stays as it is: its header is a sliver of its
// array. Every path that seals goes through here — time advancing,
// sealHistory and checkpoint restore — so a sealed bucket costs what it
// holds wherever it came from. The vacated q-digest, if any, is returned
// emptied: once its payload is in the arena no reader holds it (open
// buckets are read only under the shard lock), so the entry's next
// bucket can open in it and keep its buffers. Callers hold the shard
// lock.
func (e *entry) sealAll(sh *shard) (spare Synopsis) {
	w := 0
	for _, sl := range e.slots {
		if !sl.sealed() {
			sl.key |= 1
			sh.seals++
			if d, ok := e.hist.add(sl.idx(), sl.syn); ok {
				sh.compacted++
				e.grow(sh, d-sl.syn.Bytes())
				if q, ok := sl.syn.(*Quantiles); ok {
					q.reset()
					spare = q
				}
				continue
			}
			if t, ok := sl.syn.(*TopK); ok {
				if small := t.compacted(); small != nil {
					sh.compacted++
					e.grow(sh, small.Bytes()-sl.syn.Bytes())
					sl.syn = small
				}
			}
		}
		e.slots[w] = sl
		w++
	}
	clear(e.slots[w:]) // drop the vacated tail's synopsis references
	e.slots = e.slots[:w]
	return spare
}

// advance prepares the entry for a write to bkt, past its newest bucket:
// the buckets that fall out of the retention window of ring buckets
// behind bkt are dropped from the front of the slots and the history, so
// queries never serve history the write path would reject, and every
// open bucket is sealed (sealAll), including clones produced by earlier
// late writes. It walks the entry's slots — the open buckets and the
// sealed ones without a payload — once per bucket advance, and returns
// sealAll's vacated q-digest. Callers hold the shard lock.
func (e *entry) advance(bkt int64, ring int, sh *shard) Synopsis {
	horizon := bkt - int64(ring)
	expired := 0
	for expired < len(e.slots) && e.slots[expired].idx() <= horizon {
		e.grow(sh, -e.slots[expired].syn.Bytes())
		expired++
	}
	e.slots = slices.Delete(e.slots, 0, expired) // zeroes the vacated tail
	e.grow(sh, -e.hist.expire(horizon))
	return e.sealAll(sh)
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

	// Telemetry hook (telemetry.go). Nil when no registry is wired; the
	// query path gates its time.Now() pair on it, so an uninstrumented
	// store pays one pointer check per query.
	telGather *telemetry.Histogram

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
	if cfg.RingBuckets > maxHistoryRing {
		return nil, core.Errf("Store", "RingBuckets", "%d must be <= %d", cfg.RingBuckets, maxHistoryRing)
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
// copy-on-write, the sketch update, and byte accounting. proto is the
// metric's Prototype, whose bucket method opens the bucket. Callers hold
// sh.mu and handle counters and eviction.
func (s *Store) writeLocked(sh *shard, e *entry, obs Observation, proto Prototype) (dropped bool, err error) {
	bkt := obs.Time / s.cfg.BucketWidth
	newest := e.newest()
	if newest >= 0 && bkt <= newest-int64(s.cfg.RingBuckets) {
		return true, nil
	}
	var spare Synopsis
	if bkt > newest {
		spare = e.advance(bkt, s.cfg.RingBuckets, sh)
	}
	i, held := e.find(bkt)
	if !held {
		// A new newest bucket — opened in the q-digest the seal just
		// vacated, if there is one — or a late one inside the window,
		// which starts unsealed too; the next time advance re-seals it.
		syn := spare
		if j, sealed := e.hist.find(bkt); sealed {
			// Late write to a bucket in the history: a reader may hold
			// its payload outside the shard lock, and the arena is never
			// written below its length, so the bucket reopens as a fresh
			// synopsis that takes the payload's contents, and its record
			// turns dead.
			syn = proto.bucket()
			p, _ := e.hist.record(e.hist.index[j])
			if err := syn.mergePayload(p); err != nil {
				return false, fmt.Errorf("store: copy-on-write clone of %q/%q: %w", obs.Metric, obs.Key, err)
			}
			e.grow(sh, -e.hist.remove(j))
		} else if syn == nil {
			syn = proto.bucket()
		}
		e.insert(i, newSlot(bkt, syn), s.cfg.RingBuckets)
	}
	sl := &e.slots[i]
	before := 0 // a bucket just opened is not yet accounted
	if held {
		before = sl.syn.Bytes()
	}
	if sl.sealed() {
		// Late write to a sealed slot (a dense sketch, a flat top-k): a
		// reader may hold the sealed pointer outside the shard lock, so
		// mutate a private clone and swap it in. The clone opens like
		// any bucket and takes the sealed one's contents; it stays
		// unsealed until time next advances.
		clone := proto.bucket()
		if err := clone.Merge(sl.syn); err != nil {
			return false, fmt.Errorf("store: copy-on-write clone of %q/%q: %w", obs.Metric, obs.Key, err)
		}
		*sl = newSlot(bkt, clone)
	}
	sl.syn.Observe(obs.Item, obs.Value)
	e.grow(sh, sl.syn.Bytes()-before)
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
