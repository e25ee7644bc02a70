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
// of production in-memory caches). Each entry holds a fixed ring of time
// buckets of configurable width; each bucket is one mergeable synopsis
// (HyperLogLog, Count-Min, Space-Saving, q-digest — see synopsis.go)
// built by the metric's registered Prototype.
//
// Concurrency. A write batch (ObserveBatch, the one write path) locks
// each shard it touches once, for that shard's sketch updates. When
// an entry's stream time advances to a new bucket, older buckets are
// sealed; sealed synopses are immutable — a late write to a sealed bucket
// clones the synopsis and swaps the pointer (copy-on-write), never
// mutating in place. Sealing is also where a bucket takes the size of
// what it holds: a low-occupancy HyperLogLog or Count-Min is replaced by
// its compact form and a q-digest by its exact-size copy (see sealSlot),
// and the synopsis it vacates is
// kept for the entry's next open bucket. Range queries RLock the shard
// only long enough to snapshot bucket pointers (merging any still-open
// buckets under the read lock), then merge the sealed buckets lock-free
// outside it: a long query over mostly-sealed history does its heavy
// merging without holding any lock at all.
//
// Retention. Three mechanisms bound memory, mirroring the mqlog
// partition-retention design: the ring itself (a bucket falling out of
// the ring window is dropped, and writes older than the window are
// rejected and counted), per-shard byte budgets (least-recently-written
// entries are evicted first), and idle-age eviction (entries whose last
// write is older than MaxIdle stream-time units are reaped
// opportunistically during writes).
package store

import (
	"fmt"
	"maps"
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
	// RingBuckets is how many buckets each entry retains (default 60).
	// Writes more than RingBuckets behind an entry's newest bucket are
	// rejected and counted in Stats.DroppedLate.
	RingBuckets int
	// MaxShardBytes is the per-shard synopsis byte budget; when a write
	// pushes a shard past it, least-recently-written entries are evicted
	// until it fits (0 = unlimited).
	MaxShardBytes int
	// MaxIdle evicts entries whose last write is more than MaxIdle
	// stream-time units behind the most recent write to their shard
	// (0 = no idle eviction).
	MaxIdle int64
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
	DroppedLate uint64 // observations older than the ring window
	Queries     uint64 // range queries served
	EvictedSize uint64 // entries evicted by the byte budget
	EvictedIdle uint64 // entries evicted by idle age
	Compacted   uint64 // bucket seals that took the compact form
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
	s.EvictedIdle += o.EvictedIdle
	s.Compacted += o.Compacted
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// entryKey identifies one series.
type entryKey struct {
	metric string
	key    string
}

// slot is one position of an entry's bucket ring.
type slot struct {
	idx    int64 // bucket index occupying the slot; -1 when empty
	sealed bool  // immutable: late writes must copy-on-write
	bytes  int   // last accounted footprint of syn
	syn    Synopsis
}

// entry is the bucket ring of one (metric, key) series, plus its links in
// the shard's recency list.
type entry struct {
	k         entryKey
	slots     []slot
	newest    int64 // highest bucket index written; -1 before first write
	lastWrite int64 // stream time of the most recent write
	bytes     int   // sum of slot footprints
	// spare is an emptied dense synopsis awaiting reuse as the entry's
	// next open bucket. Only a synopsis no reader can still reference is
	// kept: the dense form a seal just replaced by its compact copy (open
	// buckets are merged under the shard lock and never handed out). A
	// sealed synopsis escapes to lock-free readers and is never recycled.
	spare Synopsis
	prev  *entry
	next  *entry
}

func (e *entry) slotFor(bkt int64) *slot {
	return &e.slots[int(bkt%int64(len(e.slots)))]
}

// fresh returns an empty dense synopsis for a bucket about to open: the
// entry's spare when it has one, a new prototype instance otherwise.
func (e *entry) fresh(proto Prototype) Synopsis {
	if syn := e.spare; syn != nil {
		e.spare = nil
		return syn
	}
	return proto()
}

// recycle empties syn and keeps it as the entry's spare. The caller
// vouches that nothing else references syn.
func (e *entry) recycle(syn Synopsis) {
	if e.spare != nil {
		return
	}
	if r, ok := syn.(Resettable); ok {
		r.Reset()
		e.spare = syn
	}
}

// sealSlot makes an open bucket immutable and, where the synopsis offers
// a compact form that pays (a low-occupancy HyperLogLog or Count-Min, a
// q-digest holding spare capacity or unfolded updates), swaps that form
// in: seal -> compact -> recycle the vacated one. Every path that seals
// goes through here — time advancing, sealHistory and checkpoint
// restore — so a sealed bucket costs what it holds wherever it came
// from. The vacated synopsis was open until this call, so no reader
// holds it and it becomes the entry's spare. Callers hold the shard
// lock.
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
	dense := sl.syn
	sl.syn = small
	nb := small.Bytes()
	e.bytes += nb - sl.bytes
	sh.bytes += nb - sl.bytes
	sl.bytes = nb
	e.recycle(dense)
}

// advance moves the entry's newest bucket forward to bkt: everything
// older than bkt is sealed (including clones produced by earlier late
// writes) and buckets that fell out of the retention window are dropped,
// so queries never serve history the write path would reject. The ring is
// small and this runs once per bucket advance per entry. Callers hold the
// shard lock.
func (e *entry) advance(bkt int64, sh *shard) {
	horizon := bkt - int64(len(e.slots))
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.idx < 0 {
			continue
		}
		if sl.idx <= horizon {
			e.bytes -= sl.bytes
			sh.bytes -= sl.bytes
			*sl = slot{idx: -1}
		} else if sl.idx < bkt {
			e.sealSlot(sl, sh)
		}
	}
	e.newest = bkt
}

// shard is one lock domain: a map of entries plus an intrusive
// recency-of-write list (front = most recently written) driving both
// eviction policies.
type shard struct {
	mu        sync.RWMutex
	entries   map[entryKey]*entry
	head      *entry // most recently written
	tail      *entry // least recently written
	bytes     int
	maxTime   int64  // newest observation time seen by the shard
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

// getOrCreate returns the shard's entry for k, creating an empty ring if
// absent. Callers hold sh.mu.
func (sh *shard) getOrCreate(k entryKey, ring int) *entry {
	e, ok := sh.entries[k]
	if !ok {
		e = &entry{k: k, slots: make([]slot, ring), newest: -1}
		for i := range e.slots {
			e.slots[i].idx = -1
		}
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

	// metrics is the registered metric table, swapped copy-on-write
	// under regMu and read lock-free: every write batch, query and
	// replayed log record looks its metric up here.
	regMu   sync.Mutex
	metrics atomic.Pointer[map[string]Prototype]

	observed    atomic.Uint64
	droppedLate atomic.Uint64
	queries     atomic.Uint64
	evictedSize atomic.Uint64
	evictedIdle atomic.Uint64

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
	if cfg.MaxIdle < 0 {
		return nil, core.Errf("Store", "MaxIdle", "%d must be >= 0", cfg.MaxIdle)
	}
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		seed:   hashutil.Sum64String("store", 0),
		shards: make([]*shard, cfg.Shards),
	}
	s.metrics.Store(&map[string]Prototype{})
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[entryKey]*entry)}
	}
	return s, nil
}

// RegisterMetric binds a metric name to the Prototype that builds its
// bucket synopses. Metrics must be registered before the first write or
// query that names them; re-registering is an error.
func (s *Store) RegisterMetric(name string, proto Prototype) error {
	if name == "" {
		return core.Errf("Store", "metric", "name must be non-empty")
	}
	if proto == nil {
		return core.Errf("Store", "proto", "prototype for %q is nil", name)
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := *s.metrics.Load()
	if _, exists := cur[name]; exists {
		return fmt.Errorf("store: metric %q already registered", name)
	}
	next := make(map[string]Prototype, len(cur)+1)
	maps.Copy(next, cur)
	next[name] = proto
	s.metrics.Store(&next)
	return nil
}

// Metrics returns the registered metric names (unordered).
func (s *Store) Metrics() []string {
	table := *s.metrics.Load()
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	return out
}

func (s *Store) proto(metric string) (Prototype, error) {
	p, ok := (*s.metrics.Load())[metric]
	if !ok {
		return nil, fmt.Errorf("store: %w %q", ErrUnknownMetric, metric)
	}
	return p, nil
}

// shardIndex routes a series to its home shard.
func (s *Store) shardIndex(k entryKey) uint32 {
	h := hashutil.Sum64String(k.key, hashutil.Sum64String(k.metric, s.seed))
	return uint32(h & s.mask)
}

// writeLocked lands one observation in the entry's ring: late-drop check,
// bucket advance (sealing + window expiry), slot (re)initialization or
// copy-on-write, the sketch update, and byte accounting. Callers hold
// sh.mu and handle counters and eviction.
func (s *Store) writeLocked(sh *shard, e *entry, obs Observation, proto Prototype) (dropped bool, err error) {
	bkt := obs.Time / s.cfg.BucketWidth
	if e.newest >= 0 && bkt <= e.newest-int64(len(e.slots)) {
		return true, nil
	}
	if bkt > e.newest {
		e.advance(bkt, sh)
	}
	sl := e.slotFor(bkt)
	switch {
	case sl.idx != bkt:
		// Empty slot, or the ring rotating over a bucket that has fallen
		// out of the retention window. The fresh synopsis starts unsealed
		// even for a late bucket; the next time advance re-seals it.
		e.bytes -= sl.bytes
		sh.bytes -= sl.bytes
		*sl = slot{idx: bkt, syn: e.fresh(proto)}
	case sl.sealed:
		// Late write to a sealed bucket: a reader may hold the sealed
		// pointer outside the shard lock, so mutate a private clone and
		// swap it in — which is also what re-expands a compacted bucket.
		// The clone stays unsealed until time next advances.
		clone := e.fresh(proto)
		if err := clone.Merge(sl.syn); err != nil {
			return false, fmt.Errorf("store: copy-on-write clone of %q/%q: %w", obs.Metric, obs.Key, err)
		}
		sl.syn = clone
		sl.sealed = false
	}
	if sl.sealed {
		// Writes only land on unsealed synopses; a sealed slot here means
		// the bookkeeping above has a bug, so fail loudly in tests.
		panic("store: write to sealed bucket")
	}
	sl.syn.Observe(obs.Item, obs.Value)
	nb := sl.syn.Bytes()
	e.bytes += nb - sl.bytes
	sh.bytes += nb - sl.bytes
	sl.bytes = nb
	e.lastWrite = obs.Time
	sh.touch(e)
	return false, nil
}

// evict applies the byte budget and idle-age policies to one shard.
// Callers hold sh.mu.
func (s *Store) evict(sh *shard) {
	if max := s.cfg.MaxShardBytes; max > 0 {
		for sh.bytes > max && len(sh.entries) > 1 {
			sh.remove(sh.tail)
			s.evictedSize.Add(1)
		}
	}
	if idle := s.cfg.MaxIdle; idle > 0 {
		for sh.tail != nil && len(sh.entries) > 1 && sh.maxTime-sh.tail.lastWrite > idle {
			sh.remove(sh.tail)
			s.evictedIdle.Add(1)
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

// Flush is the serving contract's producer-side flush. The store's
// writes are synchronous — an ObserveBatch that returned is visible to the
// next Query — so there is nothing to settle and Flush is a no-op.
func (s *Store) Flush() {}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Observed:    s.observed.Load(),
		DroppedLate: s.droppedLate.Load(),
		Queries:     s.queries.Load(),
		EvictedSize: s.evictedSize.Load(),
		EvictedIdle: s.evictedIdle.Load(),
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
