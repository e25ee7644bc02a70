// replay.go is the batch-layer half of the Lambda split: where Observe
// ingests the live stream, Rebuild replays the retained prefix of an
// mqlog topic into a fresh store. A speed-layer store fed by a topology
// and a batch-layer store rebuilt from the log converge to the same
// synopses over the log's retention window, which is exactly the
// recomputation guarantee Figure 1 of the tutorial assigns to the batch
// layer — and the recovery path when a speed-layer process is lost.
package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mqlog"
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
	return AppendObservation(make([]byte, 0, n), obs)
}

// AppendObservation appends obs in the EncodeObservation wire format to
// dst and returns the extended slice. The log copies a value at append,
// so a producer can encode every observation into one reused buffer.
func AppendObservation(dst []byte, obs Observation) []byte {
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

// Decoder maps a log message to an observation; returning false skips the
// message (foreign payloads in a shared topic are not an error).
type Decoder func(mqlog.Message) (Observation, bool)

// WireDecoder decodes messages produced with EncodeObservation, skipping
// any that fail to parse.
func WireDecoder(m mqlog.Message) (Observation, bool) {
	obs, err := DecodeObservation(m.Value)
	return obs, err == nil
}

// ReplayPartition feeds one partition's messages in [from, end) into the
// store, where end is the partition's end offset as of the call (writes
// racing the replay are left to the live ingest path) and a from older
// than the retained prefix resumes at the oldest retained message —
// Kafka's "earliest" reset — with truncated reporting that messages were
// lost to retention. It returns the next offset to consume (commit this
// to resume exactly where the replay stopped) and the number of decoded
// observations applied.
func ReplayPartition(st *Store, topic *mqlog.Topic, pid int, from uint64, decode Decoder) (next uint64, applied uint64, truncated bool, err error) {
	if topic == nil {
		return 0, 0, false, core.Errf("ReplayPartition", "topic", "must be non-nil")
	}
	if pid < 0 || pid >= topic.Partitions() {
		return 0, 0, false, core.Errf("ReplayPartition", "pid", "%d out of range", pid)
	}
	return ReplayPartitionTo(st, topic, pid, from, topic.EndOffset(pid), decode)
}

// ReplayPartitionTo is ReplayPartition with an explicit exclusive end
// bound — the offset-fenced form batch-view recomputation is built on: a
// batch view is defined by the log prefix [.., ends) it covers, so its
// replay must stop at the frozen bound no matter how far producers have
// advanced the partition since the freeze (an mqlog.Reader enforces the
// bound even when retention truncates the range mid-replay). A speed
// layer resuming after a batch handoff is the same call with from = the
// batch view's end offset.
func ReplayPartitionTo(st *Store, topic *mqlog.Topic, pid int, from, end uint64, decode Decoder) (next uint64, applied uint64, truncated bool, err error) {
	if st == nil || topic == nil {
		return 0, 0, false, core.Errf("ReplayPartitionTo", "store/topic", "must be non-nil")
	}
	if decode == nil {
		decode = WireDecoder
	}
	reader, err := topic.NewReader(pid, from, end)
	if err != nil {
		return from, 0, false, err
	}
	for {
		msgs := reader.Next(1024)
		if msgs == nil {
			break
		}
		for _, m := range msgs {
			obs, ok := decode(m)
			if !ok {
				continue
			}
			if oerr := st.Observe(obs); oerr != nil {
				return m.Offset, applied, reader.Truncated(), fmt.Errorf("store: replay partition %d offset %d: %w", pid, m.Offset, oerr)
			}
			applied++
		}
	}
	return reader.Offset(), applied, reader.Truncated(), nil
}

// Replay feeds the retained prefix of every partition of the topic into
// the store, from each partition's oldest retained offset up to its end
// offset as of the call (writes racing the replay are picked up by the
// live ingest path, not the replay). It returns the number of decoded
// observations fed to the store; observations older than an entry's ring
// window are dropped by the store itself and show up in
// Stats().DroppedLate, not as a reduced count here.
func Replay(st *Store, topic *mqlog.Topic, decode Decoder) (uint64, error) {
	if st == nil || topic == nil {
		return 0, core.Errf("Replay", "store/topic", "must be non-nil")
	}
	var applied uint64
	for pid := 0; pid < topic.Partitions(); pid++ {
		_, n, _, err := ReplayPartition(st, topic, pid, topic.StartOffset(pid), decode)
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// Rebuild constructs a fresh store with the given config and metric
// prototypes and replays the topic into it — the batch-layer
// recomputation. The returned store is independent of any live store
// consuming the same topic.
func Rebuild(cfg Config, protos map[string]Prototype, topic *mqlog.Topic, decode Decoder) (*Store, uint64, error) {
	st, err := New(cfg)
	if err != nil {
		return nil, 0, err
	}
	for name, proto := range protos {
		if err := st.RegisterMetric(name, proto); err != nil {
			return nil, 0, err
		}
	}
	applied, err := Replay(st, topic, decode)
	if err != nil {
		return nil, applied, err
	}
	return st, applied, nil
}
