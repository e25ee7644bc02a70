// replay.go is the store's side of the log, in its wire codec.
// LogWriter is the one way onto it: the cluster router and Lambda's
// master dataset both append observation batches through it.
// ReplayPartitionTo is the one way back: the bounded replay feeds a
// partition's records in [from, end) into a store. Where ObserveBatch
// ingests the live stream, every rebuild of serving state — a cluster
// node's recovery, a frozen batch view (frozen.go), Lambda's speed
// layer, and Rebuild's fresh recomputation — is a loop of that replay
// over the partitions, so a store rebuilt from the log and one fed live
// converge to the same synopses over the log's retention window: the
// recomputation guarantee Figure 1 of the tutorial assigns to the batch
// layer, and the recovery path when a speed-layer process is lost.
package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/mqlog"
	"repro/internal/trace"
)

// EncodeObservation serializes an observation to the store's wire format
// (length-prefixed strings plus varints), suitable as an mqlog message
// value, into a slice of exactly its size. Use the observation's Key as
// the mqlog message key so a series always lands in one partition and
// replays in order.
func EncodeObservation(obs Observation) []byte {
	n := uvarintLen(obs.Value) + uvarintLen(zigzag(obs.Time))
	for _, s := range [...]string{obs.Metric, obs.Key, obs.Item} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return appendObservation(make([]byte, 0, n), obs)
}

// appendObservation appends obs in the EncodeObservation wire format to
// dst and returns the extended slice. The log copies a value at append,
// so LogWriter encodes every observation into reused scratch.
func appendObservation(dst []byte, obs Observation) []byte {
	for _, s := range [...]string{obs.Metric, obs.Key, obs.Item} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.AppendUvarint(dst, obs.Value)
	return binary.AppendVarint(dst, obs.Time)
}

// uvarintLen is the length of x's unsigned varint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps x as binary.AppendVarint does before writing it unsigned.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// DecodeObservation parses the EncodeObservation wire format.
func DecodeObservation(data []byte) (Observation, error) {
	var obs Observation
	fields := []*string{&obs.Metric, &obs.Key, &obs.Item}
	for _, f := range fields {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return Observation{}, fmt.Errorf("store: observation string field: %w", core.ErrCorrupt)
		}
		*f = string(data[sz : sz+int(n)])
		data = data[sz+int(n):]
	}
	v, sz := binary.Uvarint(data)
	if sz <= 0 {
		return Observation{}, fmt.Errorf("store: observation value: %w", core.ErrCorrupt)
	}
	data = data[sz:]
	t, sz := binary.Varint(data)
	if sz <= 0 {
		return Observation{}, fmt.Errorf("store: observation time: %w", core.ErrCorrupt)
	}
	obs.Value, obs.Time = v, t
	return obs, nil
}

// LogWriter appends observation batches to a topic: each batch is
// grouped by partition (Topic.PartitionFor), and each group is encoded in
// input order into its partition's reused scratch and appended with one
// Topic.ProduceBatchTo. A partition gets the records, in the order and at
// the offsets, that one Produce per observation would give it. One
// LogWriter is safe for concurrent use.
type LogWriter struct {
	topic *mqlog.Topic
	parts []logPart
}

// logPart is one partition's encode scratch. Its lock is held across the
// append, so concurrent writers reach a partition one whole group at a
// time and per-key order survives; the log copies at append, so buf and
// enc are reused after it.
type logPart struct {
	mu  sync.Mutex
	buf []mqlog.Record
	enc []byte
}

// NewLogWriter returns a writer onto topic.
func NewLogWriter(topic *mqlog.Topic) *LogWriter {
	return &LogWriter{topic: topic, parts: make([]logPart, topic.Partitions())}
}

// Append puts obs, which the caller has validated (MetricTable.Check),
// on the log; when it returns, every observation is there. With a
// tracer, a sampled observation's context crosses the log as a
// trace.HeaderKey record header, and a group holding one gets an
// mqlog.append span on the first one's trace. With a nil tracer records
// carry no headers.
func (w *LogWriter) Append(obs []Observation, trc *trace.Tracer) {
	if len(obs) == 1 {
		// One write has one partition: skip the sort.
		w.appendGroup(w.topic.PartitionFor(obs[0].Key), []int{0}, obs, trc)
		return
	}
	buf := groupBufs.Get()
	order, bounds := groupIndices(buf, len(obs), len(w.parts), func(i int) int {
		return w.topic.PartitionFor(obs[i].Key)
	})
	for pid := range w.parts {
		if group := order[bounds[pid]:bounds[pid+1]]; len(group) > 0 {
			w.appendGroup(pid, group, obs, trc)
		}
	}
	putGroupBuf(buf)
}

// appendGroup encodes one partition's group and appends it as one batch.
func (w *LogWriter) appendGroup(pid int, group []int, obs []Observation, trc *trace.Tracer) {
	p := &w.parts[pid]
	p.mu.Lock()
	defer p.mu.Unlock()
	var traced trace.Context
	for _, i := range group {
		o := &obs[i]
		at := len(p.enc)
		p.enc = appendObservation(p.enc, *o)
		rec := mqlog.Record{Key: o.Key, Value: p.enc[at:]}
		if trc != nil && o.Trace.Valid() {
			// The wire codec carries no trace context; the owning
			// consumer stitches it back from this header.
			rec.Headers = []mqlog.Header{{Key: trace.HeaderKey, Value: trace.EncodeContext(o.Trace)}}
			if !traced.Valid() {
				traced = o.Trace
			}
		}
		p.buf = append(p.buf, rec)
	}
	sp := trc.StartRemote(traced, "mqlog.append") // nil unless traced
	// pid is in range and the group is non-empty, so this cannot fail.
	first, _ := w.topic.ProduceBatchTo(pid, p.buf)
	if sp != nil {
		sp.SetAttrs(trace.Int("partition", int64(pid)), trace.Int("records", int64(len(p.buf))),
			trace.Int("first_offset", int64(first)))
		sp.Finish()
	}
	p.buf, p.enc = p.buf[:0], p.enc[:0]
}

// DecodeRecord decodes one log record value in the EncodeObservation
// wire format and reports whether the store can absorb it. A value that
// does not decode, names a metric the store has not registered, has an
// empty key or carries a negative time is poison: it can never apply, so
// a log consumer skips and counts it instead of wedging on it. This is
// the one poison test — ReplayPartitionTo and the cluster node's apply
// loop both use it — and what it passes, ObserveBatch accepts.
func (s *Store) DecodeRecord(value []byte) (Observation, bool) {
	obs, err := DecodeObservation(value)
	if err != nil || s.metrics.Check([]Observation{obs}) != nil {
		return Observation{}, false
	}
	return obs, true
}

// ReplayStats reports one partition replay.
type ReplayStats struct {
	Next      uint64 // next offset to consume: commit it to resume where the replay stopped
	Applied   uint64 // observations handed to the store
	Rejected  uint64 // poison records skipped (see DecodeRecord)
	Truncated bool   // retention had already dropped part of the range
}

// replayChunk is how many records a replay reads, and applies in one
// ObserveBatch, at a time.
const replayChunk = 1024

// ReplayPartitionTo feeds one partition's records in [from, end) into
// the store — the one way back from the log. end is an exclusive bound
// the caller snapshotted (Topic.EndOffsets): a batch view is defined by
// the log prefix it covers and a recovering node by the prefix it
// commits, so the replay stops at the bound no matter how far producers
// have advanced the partition since (an mqlog.Reader enforces it even
// when retention truncates the range mid-replay), and writes past it are
// left to the live ingest path. A from older than the retained prefix
// resumes at the oldest retained record — Kafka's "earliest" reset —
// with Truncated reporting that records were lost to retention. Each
// chunk the reader hands over is decoded, stripped of poison (counted in
// Rejected, never an error: one bad record must not wedge every future
// replay at its offset) and applied in one ObserveBatch.
func ReplayPartitionTo(st *Store, topic *mqlog.Topic, pid int, from, end uint64) (ReplayStats, error) {
	rs := ReplayStats{Next: from}
	if st == nil || topic == nil {
		return rs, core.Errf("ReplayPartitionTo", "store/topic", "must be non-nil")
	}
	reader, err := topic.NewReader(pid, from, end)
	if err != nil {
		return rs, err
	}
	var batch []Observation
	for msgs := reader.Next(replayChunk); msgs != nil; msgs = reader.Next(replayChunk) {
		batch = batch[:0]
		for _, m := range msgs {
			if obs, ok := st.DecodeRecord(m.Value); ok {
				batch = append(batch, obs)
			}
		}
		rs.Rejected += uint64(len(msgs) - len(batch))
		if err := st.ObserveBatch(batch); err != nil {
			rs.Next, rs.Truncated = msgs[0].Offset, reader.Truncated()
			return rs, fmt.Errorf("store: replay partition %d offset %d: %w", pid, msgs[0].Offset, err)
		}
		rs.Applied += uint64(len(batch))
	}
	rs.Next, rs.Truncated = reader.Offset(), reader.Truncated()
	return rs, nil
}

// Rebuild constructs a fresh store with the given config and metric
// prototypes and replays every partition's retained prefix, up to its end
// offset as of the call, into it — the batch-layer recomputation, and
// the oracle tests and experiments hold the other backends to. The
// returned store is independent of any live store consuming the same
// topic. The count is the observations fed to the store: poison records
// are skipped, and observations older than an entry's retention window are
// dropped by the store itself and show up in Stats().DroppedLate, not as
// a reduced count here.
func Rebuild(cfg Config, protos map[string]Prototype, topic *mqlog.Topic) (*Store, uint64, error) {
	st, err := NewWith(cfg, protos)
	if err != nil {
		return nil, 0, err
	}
	applied, err := replayAll(st, topic)
	if err != nil {
		return nil, applied, err
	}
	return st, applied, nil
}

// replayAll replays every partition of the topic from offset 0 (the
// oldest retained record) up to an end-offset snapshot taken at entry.
func replayAll(st *Store, topic *mqlog.Topic) (uint64, error) {
	if topic == nil {
		return 0, core.Errf("Rebuild", "topic", "must be non-nil")
	}
	var applied uint64
	for pid, end := range topic.EndOffsets() {
		rs, err := ReplayPartitionTo(st, topic, pid, 0, end)
		applied += rs.Applied
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}
