// Package mqlog is an in-process, Kafka-like partitioned message log — the
// broker substrate the tutorial's Section 3 platforms assume: Samza reads
// and writes all streams through Kafka, Pulsar spills to Kafka under
// backpressure, and the Lambda Architecture's input dispatch is typically
// a log.
//
// It provides topics with a fixed number of partitions, append-only
// segments with monotonically increasing offsets, key-based partitioning,
// consumer groups with offset tracking and rebalancing, and retention: a
// per-partition message count in memory and, for a topic persisted to
// disk (durable.go), segment size and age limits — the semantic core of
// the real system, minus the network, which the experiments do not need
// (see DESIGN.md substitutions).
package mqlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/telemetry"
)

// ErrEmptyBatch is returned by ProduceBatchTo when the record slice is
// empty: there is no "first assigned offset" for a batch that
// assigned nothing, and returning the current end offset instead would
// hand callers a fence anchored on a record they never wrote.
var ErrEmptyBatch = errors.New("mqlog: empty record batch")

// ErrInvalidFetchMax is returned by Fetch when max <= 0. Without it a
// zero max yields an empty batch indistinguishable from "caught up",
// and raw Fetch poll loops spin forever.
var ErrInvalidFetchMax = errors.New("mqlog: fetch max must be positive")

// Header is one key/value metadata pair attached to a message —
// Kafka-style record headers. The broker is deliberately agnostic to
// header contents (dstore uses them to carry trace context across the
// log). Like Value, headers are copied at append: the producer may reuse
// its Header slice and value bytes as soon as the produce call returns,
// and a fetched header is read-only.
//
// Headers are in-memory only: the durable write-through (durable.go)
// persists key+value framing only, so headers do not survive a restart.
// That is the right trade for their one consumer today — trace context
// is ephemeral by nature (the tracer's ring won't outlive the process
// either) — and keeps the on-disk format stable.
type Header struct {
	Key   string
	Value []byte
}

// Message is one log entry. A fetched Message's Value and header values
// alias the log's own storage and are read-only; they stay valid after
// later appends, after the chunk holding them is compressed and after
// retention drops the record. A Value fetched from a compressed chunk
// aliases a buffer inflated for that fetch (or shared with the fetch
// before it), which the log never reuses.
type Message struct {
	Key     string
	Value   []byte
	Headers []Header
	Offset  uint64
}

// chunkSize is the capacity of one log chunk. A record larger than this
// gets a chunk of its own, sized to it.
const chunkSize = 64 << 10

// maxInternedKeys bounds a partition's fetch-side key table: past it, a
// key not yet seen costs a string allocation per fetched record instead
// of growing the table without limit.
const maxInternedKeys = 4096

// chunk is one append-only arena of records, each in the segment file's
// payload layout ([4]key len | key | value — see segment.go), so the
// durable write-through frames chunk bytes as they are and recovery
// copies segment payloads straight in. ends[i] is where record i ends in
// data (it starts where record i-1 ends, or at 0). Bytes below len(data)
// are never written again, which is what lets fetch hand them out
// without copying.
//
// A sealed chunk may instead be compressed (see compress): data and ends
// are nil, and z holds the n records deflated — their uvarint lengths,
// then their payload bytes, zsize bytes once inflated.
type chunk struct {
	first uint64 // offset of the chunk's first record
	data  []byte
	ends  []uint32
	// hdrs is nil until a record in the chunk carries headers; from then
	// on it runs parallel to ends. Compression leaves it as it is.
	hdrs [][]Header

	z     []byte
	n     int
	zsize int
}

// partition is a single append-only sequence with retention, held as a
// list of chunks. The chunks hold no pointers (the header side table
// aside), so the garbage collector does not walk the log's records.
// Retention advances base and releases a chunk once every record in it
// is below base: nothing is ever copied to reclaim space.
//
// A chunk's life: the tail takes appends; once a new tail opens it is
// sealed and stays raw; when the next tail opens it is compressed, if
// that halves it. A consumer trailing the head by less than a chunk
// therefore never inflates anything.
type partition struct {
	mu     sync.Mutex
	base   uint64            // oldest retained offset
	end    uint64            // next offset to assign
	chunks []*chunk          // chunks[0] holds base; records in it below base are dead
	keys   map[string]string // fetched keys, interned (see intern)
	limit  int               // max retained messages (0 = unlimited)
	dur    *durPartition     // disk write-through state; nil for in-memory topics

	// inflated is the raw form of inflatedFrom, the compressed chunk a
	// fetch inflated last, so a sequential reader inflates each chunk
	// once. inflations counts inflations (a cache hit is not one).
	inflatedFrom, inflated *chunk
	inflations             atomic.Uint64
}

// appendPayloadLocked installs one record already in payload layout —
// recovery's path from a segment file into memory. It compresses
// nothing: recovery reads the whole segment chain before it applies the
// retention limit, and then compresses only the chunks the limit keeps
// (compressHeldLocked). Callers hold p.mu.
func (p *partition) appendPayloadLocked(payload []byte) {
	c := p.tailFor(len(payload), false)
	c.data = append(c.data, payload...)
	p.endRecordLocked(c, nil)
}

// compressHeldLocked offers every chunk but the tail and the one before
// it to compress: the chunks a log appended one record at a time would
// have compressed, to the same bytes. Callers hold p.mu.
func (p *partition) compressHeldLocked() {
	for _, c := range p.chunks[:max(len(p.chunks)-2, 0)] {
		c.compress()
	}
}

// endRecordLocked registers the record just written at the end of c's
// data: its end position, a copy of its headers, its offset. Callers
// hold p.mu.
func (p *partition) endRecordLocked(c *chunk, hdrs []Header) {
	c.ends = append(c.ends, uint32(len(c.data)))
	if len(hdrs) > 0 && c.hdrs == nil {
		c.hdrs = make([][]Header, len(c.ends)-1, cap(c.ends))
	}
	if c.hdrs != nil {
		c.hdrs = append(c.hdrs, cloneHeaders(hdrs))
	}
	p.end++
}

// tailFor returns the chunk the next record of n payload bytes goes in,
// opening a new one when the tail chunk has no room. The new chunk's
// ends table is sized for as many records as the previous chunk held.
// With compress set, opening a chunk compresses the one two back, so
// every chunk is offered to compress exactly once, and the tail and the
// chunk before it are always raw. Retention is applied record by record,
// so the chunk two back still holds retained records when it is offered.
func (p *partition) tailFor(n int, compress bool) *chunk {
	var records int
	if k := len(p.chunks); k > 0 {
		c := p.chunks[k-1]
		if cap(c.data)-len(c.data) >= n {
			return c
		}
		records = len(c.ends)
	}
	c := &chunk{first: p.end, data: make([]byte, 0, max(n, chunkSize)), ends: make([]uint32, 0, records)}
	p.chunks = append(p.chunks, c)
	if k := len(p.chunks); compress && k >= 3 {
		p.chunks[k-3].compress()
	}
	return c
}

// dropBelowLocked retires every record below off (clamped to the end of
// the log): base advances, and each chunk whose records all lie below
// the new base is released, with its inflated copy. Callers hold p.mu.
func (p *partition) dropBelowLocked(off uint64) {
	off = min(off, p.end)
	if off <= p.base {
		return
	}
	p.base = off
	for len(p.chunks) > 1 && p.chunks[1].first <= off {
		if p.chunks[0] == p.inflatedFrom {
			p.inflatedFrom, p.inflated = nil, nil
		}
		p.chunks[0] = nil
		p.chunks = p.chunks[1:]
	}
}

// rawLocked returns c itself if it is raw, or its inflated form: the
// partition's cached copy when c was the last chunk inflated, a freshly
// inflated one (which replaces the cache) otherwise. Callers hold p.mu.
func (p *partition) rawLocked(c *chunk) *chunk {
	if c.z == nil {
		return c
	}
	if c != p.inflatedFrom {
		p.inflatedFrom, p.inflated = c, c.inflate()
		p.inflations.Add(1)
	}
	return p.inflated
}

// cloneHeaders copies hdrs, and their values into one shared buffer in
// which each value is capped, so a reader's append cannot write into
// the next value.
func cloneHeaders(hdrs []Header) []Header {
	if len(hdrs) == 0 {
		return nil
	}
	n := 0
	for _, h := range hdrs {
		n += len(h.Value)
	}
	out := make([]Header, len(hdrs))
	vals := make([]byte, 0, n)
	for i, h := range hdrs {
		at := len(vals)
		vals = append(vals, h.Value...)
		out[i] = Header{Key: h.Key, Value: vals[at:len(vals):len(vals)]}
	}
	return out
}

// appendBatch is a partition's one append entry (Produce hands it a
// one-record batch). Under one lock acquisition it copies each record
// into the tail chunk, writes it through to disk and applies retention,
// record by record, and it returns the offset of the first record (they
// are assigned contiguously). Headers ride along in memory only; the
// durable write-through persists key+value framing and deliberately
// drops them (see Header). For an empty batch the offset returned is
// the partition's current end, the offset of no record, so callers
// append only non-empty batches.
func (p *partition) appendBatch(recs []Record) (first uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	first = p.end
	for _, r := range recs {
		off := p.end
		c := p.tailFor(4+len(r.Key)+len(r.Value), true)
		at := len(c.data)
		c.data = appendPayload(c.data, r.Key, r.Value)
		p.endRecordLocked(c, r.Headers)
		if p.dur != nil {
			p.durAppendLocked(c.data[at:], off)
		}
		if p.limit > 0 && p.end-p.base > uint64(p.limit) {
			p.dropBelowLocked(p.end - uint64(p.limit))
		}
	}
	return first
}

// fetch returns up to max messages starting at offset. When offset has been
// truncated by retention, reading resumes at the oldest retained message
// (Kafka's "earliest" reset semantics) and truncated reports the condition.
//
// Aliasing audit: from raw chunks, only the []Message is allocated. Each
// Value is a capped slice of chunk bytes, which appendBatch never writes
// again and neither compression nor retention moves (compression and
// retention drop a chunk's reference to its bytes; the bytes live on for
// as long as a fetched Value refers to them). A compressed chunk is read
// through its inflated copy (rawLocked), a buffer allocated for it and
// never reused. Each Headers is the side table's copy made at append,
// likewise never written again. Keys come from the partition's intern
// table, so a key seen before costs no allocation. Regressions:
// TestFetchCopiesOutOfCompaction, TestFetchHeadersSurviveCompaction,
// TestFetchRaceWithRetention, TestFetchedValuesSurviveCompression,
// TestCompressionRaceWithRetention.
func (p *partition) fetch(offset uint64, max int) (msgs []Message, next uint64, truncated bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < p.base {
		offset = p.base
		truncated = true
	}
	if offset >= p.end {
		return nil, offset, truncated
	}
	next = offset + min(p.end-offset, uint64(max))
	out := make([]Message, next-offset)
	var key string
	ci := sort.Search(len(p.chunks), func(i int) bool { return p.chunks[i].first > offset }) - 1
	for j := 0; j < len(out); ci++ {
		c := p.rawLocked(p.chunks[ci])
		i := int(offset + uint64(j) - c.first)
		last := min(len(c.ends), i+len(out)-j)
		var start uint32
		if i > 0 {
			start = c.ends[i-1]
		}
		for ; i < last; i++ {
			end := c.ends[i]
			rec := c.data[start:end:end]
			start = end
			keyEnd := 4 + binary.LittleEndian.Uint32(rec)
			if string(rec[4:keyEnd]) != key {
				key = p.intern(rec[4:keyEnd])
			}
			// Field stores, not a struct copy: no bulk write barrier.
			m := &out[j]
			m.Key, m.Offset = key, offset+uint64(j)
			if len(rec) > int(keyEnd) {
				m.Value = rec[keyEnd:]
			}
			if c.hdrs != nil {
				m.Headers = c.hdrs[i]
			}
			j++
		}
	}
	return out, next, truncated
}

// intern returns key as a string, allocating only the first time the
// partition sees it (up to maxInternedKeys distinct keys). Callers hold
// p.mu.
func (p *partition) intern(key []byte) string {
	if s, ok := p.keys[string(key)]; ok {
		return s
	}
	s := string(key)
	if len(p.keys) < maxInternedKeys {
		if p.keys == nil {
			p.keys = make(map[string]string)
		}
		p.keys[s] = s
	}
	return s
}

// retainedBytes is what the partition's chunks hold: every compressed
// chunk's deflated bytes, every raw chunk's full capacity (the partly
// filled tail included) and end table, and the inflated copy fetch
// keeps.
func (p *partition) retainedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.chunks {
		n += int64(cap(c.z)) + int64(cap(c.data)) + 4*int64(cap(c.ends))
	}
	if c := p.inflatedFrom; c != nil {
		n += int64(c.zsize) + 4*int64(c.n)
	}
	return n
}

func (p *partition) endOffset() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.end
}

func (p *partition) startOffset() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// Topic is a named set of partitions.
type Topic struct {
	name  string
	parts []*partition
	seed  uint64

	// Telemetry (telemetry.go). The record counters are always-on
	// atomics (one add per call, batched paths pay one add per batch);
	// the fetch-batch histogram is nil until SetTelemetry wires it,
	// before first use.
	produced      atomic.Uint64
	fetched       atomic.Uint64
	telFetchBatch *telemetry.Histogram

	// Durability (durable.go). dur is set once at creation and never
	// mutated; nil means in-memory. The counters are always-on atomics.
	// The fsync-latency histogram, wired by SetTelemetry, is the one
	// atomic pointer: the group-commit syncer starts inside
	// CreateTopicDurable and may fsync before any SetTelemetry can run.
	dur              *DurableConfig
	stopSync         chan struct{}
	syncDone         chan struct{}
	closeOnce        sync.Once
	fsyncs           atomic.Uint64
	segRolls         atomic.Uint64
	tornTruncations  atomic.Uint64
	recoveredRecords atomic.Uint64
	recoveryNanos    atomic.Int64
	diskErrors       atomic.Uint64
	telFsync         atomic.Pointer[telemetry.Histogram]
}

// Broker hosts topics and consumer-group offsets.
type Broker struct {
	mu     sync.Mutex
	topics map[string]*Topic
	// groupOffsets[group][topic] -> per-partition committed offsets
	groupOffsets map[string]map[string][]uint64
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:       make(map[string]*Topic),
		groupOffsets: make(map[string]map[string][]uint64),
	}
}

// CreateTopic creates a topic with the given partition count and per-
// partition retention limit (0 = unlimited). Creating an existing topic is
// an error.
func (b *Broker) CreateTopic(name string, partitions, retention int) (*Topic, error) {
	if name == "" {
		return nil, core.Errf("Broker", "name", "topic name must be non-empty")
	}
	if partitions <= 0 {
		return nil, core.Errf("Broker", "partitions", "%d must be positive", partitions)
	}
	if retention < 0 {
		return nil, core.Errf("Broker", "retention", "%d must be >= 0", retention)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.topics[name]; exists {
		return nil, fmt.Errorf("mqlog: topic %q already exists", name)
	}
	t := &Topic{name: name, seed: hashutil.Sum64String(name, 0)}
	for i := 0; i < partitions; i++ {
		t.parts = append(t.parts, &partition{limit: retention})
	}
	b.topics[name] = t
	return t, nil
}

// Topic returns an existing topic or an error.
func (b *Broker) Topic(name string) (*Topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("mqlog: unknown topic %q", name)
	}
	return t, nil
}

// Partitions returns the topic's partition count.
func (t *Topic) Partitions() int { return len(t.parts) }

// Produce appends a message, routing by key hash (empty keys round-robin
// via the value hash, matching Kafka's sticky-less default closely enough
// for experiments). The broker copies value, so the producer may reuse
// its buffer as soon as Produce returns.
func (t *Topic) Produce(key string, value []byte) (partitionID int, offset uint64) {
	if key != "" {
		partitionID = t.PartitionFor(key)
	} else {
		partitionID = int(hashutil.Sum64(value, t.seed) % uint64(len(t.parts)))
	}
	t.produced.Add(1)
	return partitionID, t.parts[partitionID].appendBatch([]Record{{Key: key, Value: value}})
}

// PartitionFor returns the partition a keyed message routes to — the
// ownership map a partition-aware client (e.g. a scatter-gather router)
// shares with Produce.
func (t *Topic) PartitionFor(key string) int {
	return int(hashutil.Sum64String(key, t.seed) % uint64(len(t.parts)))
}

// Record is one key/value pair bound for a topic, the unit of batch
// production. As with Produce, the broker copies Value (and any
// Headers) at append, so a producer may encode every batch into the same
// reused buffer.
type Record struct {
	Key     string
	Value   []byte
	Headers []Header
}

// ProduceBatchTo appends a batch of records to an explicit partition
// under one lock acquisition and returns the first assigned offset
// (they are assigned contiguously). It is the path for producers that
// already partitioned by PartitionFor — store.LogWriter groups every
// observation batch that way — so no record pays a second hash here.
// An empty batch is ErrEmptyBatch: it assigns no offsets,
// so there is no first offset to return, and silently handing back the
// current end offset would let a caller fence on a record it never
// wrote.
func (t *Topic) ProduceBatchTo(partitionID int, recs []Record) (uint64, error) {
	if partitionID < 0 || partitionID >= len(t.parts) {
		return 0, core.Errf("Topic", "partitionID", "%d out of range", partitionID)
	}
	if len(recs) == 0 {
		return 0, ErrEmptyBatch
	}
	t.produced.Add(uint64(len(recs)))
	return t.parts[partitionID].appendBatch(recs), nil
}

// Fetch reads up to max messages from one partition starting at offset.
// max must be positive: a non-positive max can never return messages,
// which is indistinguishable from "caught up" and spins raw poll loops
// forever — it is rejected with ErrInvalidFetchMax instead.
func (t *Topic) Fetch(partitionID int, offset uint64, max int) (msgs []Message, next uint64, truncated bool, err error) {
	if partitionID < 0 || partitionID >= len(t.parts) {
		return nil, 0, false, core.Errf("Topic", "partitionID", "%d out of range", partitionID)
	}
	if max <= 0 {
		return nil, offset, false, ErrInvalidFetchMax
	}
	msgs, next, truncated = t.parts[partitionID].fetch(offset, max)
	if len(msgs) > 0 {
		t.fetched.Add(uint64(len(msgs)))
		t.telFetchBatch.Observe(float64(len(msgs)))
	}
	return msgs, next, truncated, nil
}

// EndOffset returns the next offset to be written to the partition.
func (t *Topic) EndOffset(partitionID int) uint64 { return t.parts[partitionID].endOffset() }

// EndOffsets returns a snapshot of every partition's end offset, indexed
// by partition id. Each entry is read under its partition's lock, so the
// snapshot is per-partition exact; across partitions it is only monotone
// (a concurrent producer may land between reads), which is what log-based
// recovery needs: replaying up to a snapshot taken after an ownership
// change covers everything produced before it.
func (t *Topic) EndOffsets() []uint64 {
	out := make([]uint64, len(t.parts))
	for pid, p := range t.parts {
		out[pid] = p.endOffset()
	}
	return out
}

// StartOffset returns the oldest retained offset of the partition.
func (t *Topic) StartOffset(partitionID int) uint64 { return t.parts[partitionID].startOffset() }

// RetainedBytes returns the memory the topic's in-memory log holds: the
// deflated bytes of every compressed chunk, the full capacity and end
// table of every raw chunk (each partition's partly filled tail
// included), and each partition's one inflated chunk, the copy a fetch
// from compressed history keeps for the next fetch.
func (t *Topic) RetainedBytes() int64 {
	var n int64
	for _, p := range t.parts {
		n += p.retainedBytes()
	}
	return n
}

// inflatedChunks counts the compressed chunks fetches have inflated
// across the topic's partitions.
func (t *Topic) inflatedChunks() uint64 {
	var n uint64
	for _, p := range t.parts {
		n += p.inflations.Load()
	}
	return n
}

// Commit records a consumer group's position for one partition.
func (b *Broker) Commit(group, topic string, partitionID int, offset uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	byTopic, ok := b.groupOffsets[group]
	if !ok {
		byTopic = make(map[string][]uint64)
		b.groupOffsets[group] = byTopic
	}
	offs := byTopic[topic]
	if len(offs) <= partitionID {
		grown := make([]uint64, partitionID+1)
		copy(grown, offs)
		offs = grown
	}
	offs[partitionID] = offset
	byTopic[topic] = offs
}

// Committed returns the group's committed offset for a partition (0 when
// never committed).
func (b *Broker) Committed(group, topic string, partitionID int) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if byTopic, ok := b.groupOffsets[group]; ok {
		if offs, ok := byTopic[topic]; ok && partitionID < len(offs) {
			return offs[partitionID]
		}
	}
	return 0
}

// Lag returns the total unconsumed messages for a group across a topic's
// partitions — the standard consumer health metric. The group's
// committed offsets are snapshotted once under one broker lock before
// any end offset is read: interleaving per-partition Committed calls
// with end-offset reads would let a commit landing mid-scan shift the
// baseline between partitions and double-count in-flight ones.
func (b *Broker) Lag(group string, t *Topic) uint64 {
	b.mu.Lock()
	var committed []uint64
	if byTopic, ok := b.groupOffsets[group]; ok {
		committed = append(committed, byTopic[t.name]...)
	}
	b.mu.Unlock()
	var total uint64
	for pid, p := range t.parts {
		var c uint64
		if pid < len(committed) {
			c = committed[pid]
		}
		if end := p.endOffset(); end > c {
			total += end - c
		}
	}
	return total
}
