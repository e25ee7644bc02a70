// checkpoint.go is the store's snapshot half of "snapshot + log-suffix
// replay": WriteCheckpoint serializes every resident bucket synopsis
// into a manifest + data file pair, RestoreCheckpoint rehydrates an
// empty store from it, and the manifest carries the log offsets the
// snapshot covers so recovery replays only the suffix past them.
//
// Format. checkpoint.dat is a flat sequence of CRC-framed records, one
// per (series, bucket):
//
//	record  [4]payload len  [4]crc32(payload)  [payload]
//	payload uvarint metric len, metric, uvarint key len, key,
//	        uvarint bucket index, uvarint synopsis len, synopsis bytes
//
// where the synopsis bytes come from the adapter's AppendBinary (see
// synopsis.go), or, for a bucket sealed into its series' history, from
// its payload by Prototype.appendPayloadBinary: the same bytes. Records
// go shard by shard, a shard's series in (metric, key) order and a
// series' buckets ascending, so one store state always writes the same
// bytes. manifest.json names the store geometry the data
// was written under, the per-partition log offsets it covers, the record
// count and the data file's size and CRC — restore refuses a manifest
// that disagrees with the data file or the restoring store's geometry,
// because a checkpoint replayed into the wrong bucketing would merge
// observations into the wrong time ranges silently.
//
// Both files are written to a temp name and renamed into place, data
// before manifest, so a crash mid-checkpoint leaves either the previous
// complete pair or a missing manifest — never a manifest pointing at a
// half-written data file.
//
// Writers must be quiesced: WriteCheckpoint walks the shards under
// their locks but takes no global write fence, and every caller in the
// tree (node recovery handoff, frozen batch views, demo shutdown paths)
// checkpoints only stores that nothing is writing to.
package store

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
)

const (
	checkpointVersion  = 1
	manifestName       = "manifest.json"
	checkpointDataName = "checkpoint.dat"
)

// CheckpointManifest is the JSON sidecar describing one checkpoint.
type CheckpointManifest struct {
	Version     int    `json:"version"`
	BucketWidth int64  `json:"bucket_width"`
	RingBuckets int    `json:"ring_buckets"`
	Records     uint64 `json:"records"`
	DataBytes   int64  `json:"data_bytes"`
	DataCRC     uint32 `json:"data_crc"`
	// Offsets are the per-partition log offsets (exclusive) the snapshot
	// covers: recovery replays [Offsets[pid], end) on top of the restore.
	Offsets []uint64 `json:"offsets"`
	// Partitions, when non-nil, restricts the snapshot to an owned
	// subset (a cluster node's assignment). A restorer whose assignment
	// differs must not use the checkpoint: it would double-count moved
	// partitions and miss new ones.
	Partitions []int `json:"partitions,omitempty"`
	// Floors are the per-partition lower offset fences an older writer
	// stamped (nil = no fence): such a snapshot covers only
	// [Floors[pid], Offsets[pid]), and no replay can put back the history
	// below the fence, so every restorer refuses a floored manifest. No
	// writer stamps floors now; the field is decoded so one already on
	// disk is still refused.
	Floors []uint64 `json:"floors,omitempty"`
}

// CheckpointMeta is the caller-supplied log position a checkpoint is
// stamped with (see the matching CheckpointManifest fields).
type CheckpointMeta struct {
	Offsets    []uint64
	Partitions []int
}

// CheckpointInfo summarizes a written checkpoint.
type CheckpointInfo struct {
	Records uint64
	Bytes   int64
}

// WriteCheckpoint snapshots every resident bucket of st into dir as a
// manifest + data file pair, stamped with the log position in meta (see
// CheckpointManifest). The store must be quiesced — no concurrent
// writers.
func WriteCheckpoint(st *Store, dir string, meta CheckpointMeta) (CheckpointInfo, error) {
	var info CheckpointInfo
	if st == nil {
		return info, core.Errf("WriteCheckpoint", "store", "must be non-nil")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, err
	}
	// Seal history now, not just on restore: a store that has just been
	// checkpointed and a store restored from that checkpoint then answer
	// every query identically, including order-sensitive quantile merges
	// (see sealHistory).
	st.sealHistory()

	tmp, err := os.CreateTemp(dir, checkpointDataName+".tmp*")
	if err != nil {
		return info, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename

	crc := crc32.NewIEEE()
	var dataBytes int64
	var records uint64
	var buf, sb []byte // reused by every record
	var order []*entry // a shard's entries by (metric, key)
	writeErr := func() error {
		for _, sh := range st.shards {
			sh.mu.RLock()
			order = order[:0]
			for _, e := range sh.entries {
				order = append(order, e)
			}
			slices.SortFunc(order, func(a, b *entry) int {
				return cmp.Or(cmp.Compare(a.k.metric, b.k.metric), cmp.Compare(a.k.key, b.k.key))
			})
			for _, e := range order {
				k := e.k
				proto, err := st.metrics.Lookup(k.metric)
				if err != nil {
					sh.mu.RUnlock()
					return err
				}
				// A series' buckets ascend across its slots and history.
				h := &e.hist
				for i, j := 0, 0; i < len(e.slots) || j < len(h.index); {
					var bkt int64
					if j == len(h.index) || i < len(e.slots) && e.slots[i].idx() < h.bkt(h.index[j]) {
						sl := &e.slots[i]
						bkt = sl.idx()
						i++
						if sb, err = sl.syn.AppendBinary(sb[:0]); err != nil {
							sh.mu.RUnlock()
							return fmt.Errorf("store: WriteCheckpoint: metric %q: %w", k.metric, err)
						}
					} else {
						p, _ := h.record(h.index[j])
						bkt = h.bkt(h.index[j])
						j++
						sb = proto.appendPayloadBinary(sb[:0], p)
					}
					buf = appendCheckpointRecord(buf[:0], k, bkt, sb)
					if _, err := tmp.Write(buf); err != nil {
						sh.mu.RUnlock()
						return err
					}
					crc.Write(buf)
					dataBytes += int64(len(buf))
					records++
				}
			}
			sh.mu.RUnlock()
		}
		return nil
	}()
	if writeErr != nil {
		tmp.Close()
		return info, writeErr
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return info, err
	}
	if err := tmp.Close(); err != nil {
		return info, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, checkpointDataName)); err != nil {
		return info, err
	}

	man := CheckpointManifest{
		Version:     checkpointVersion,
		BucketWidth: st.cfg.BucketWidth,
		RingBuckets: st.cfg.RingBuckets,
		Records:     records,
		DataBytes:   dataBytes,
		DataCRC:     crc.Sum32(),
		Offsets:     append([]uint64(nil), meta.Offsets...),
		Partitions:  append([]int(nil), meta.Partitions...),
	}
	if err := writeManifest(dir, man); err != nil {
		return info, err
	}
	info = CheckpointInfo{Records: records, Bytes: dataBytes}
	st.ckptRecords.Store(records)
	st.ckptBytes.Store(uint64(dataBytes))
	return info, nil
}

func writeManifest(dir string, man CheckpointManifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, manifestName))
}

// appendCheckpointRecord frames one (series, bucket, synopsis) record.
// The payload is built in place behind its 8-byte header, which is
// filled in last.
func appendCheckpointRecord(buf []byte, k entryKey, bkt int64, syn []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(len(k.metric)))
	buf = append(buf, k.metric...)
	buf = binary.AppendUvarint(buf, uint64(len(k.key)))
	buf = append(buf, k.key...)
	buf = binary.AppendUvarint(buf, uint64(bkt))
	buf = binary.AppendUvarint(buf, uint64(len(syn)))
	buf = append(buf, syn...)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// RemoveCheckpoint deletes dir's checkpoint pair, manifest first — a
// crash mid-remove then leaves data without a manifest (ignored by every
// reader) rather than a manifest pointing at missing data. Absent files
// are not an error.
func RemoveCheckpoint(dir string) error {
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Remove(filepath.Join(dir, checkpointDataName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// ReadCheckpointManifest loads and sanity-checks dir's manifest without
// touching the data file — the cheap probe NewFromCheckpoint runs before
// deciding whether to restore or fall back to a full replay.
func ReadCheckpointManifest(dir string) (*CheckpointManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man CheckpointManifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("store: checkpoint manifest: %w", err)
	}
	if man.Version != checkpointVersion {
		return nil, fmt.Errorf("store: checkpoint manifest version %d: %w", man.Version, core.ErrIncompatible)
	}
	return &man, nil
}

// NewFromCheckpoint returns a fresh store built from cfg and protos,
// restored from dir's checkpoint when that checkpoint may stand for the
// log prefix a replay is about to skip, together with the per-partition
// offsets the replay resumes from — nil when the store is empty. This is
// the one seed rule every restorer uses. The manifest must carry no
// floors (a fenced snapshot lacks the history below them), one offset per
// partition (len(ends)), exactly the partition set parts (nil: an
// unrestricted checkpoint; a cluster node passes its assignment), and no
// offset past its bound in ends: a snapshot ahead of the bound holds
// observations the replay's prefix must not contain — a freeze at an
// older cut, or a log that lost its unsynced tail in a crash — and no
// replay can subtract them. Geometry is RestoreCheckpoint's to check.
// An empty dir, a missing or refused checkpoint, and a restore that
// fails part-way all yield a fresh empty store.
func NewFromCheckpoint(cfg Config, protos map[string]Prototype, dir string, parts []int, ends []uint64) (*Store, []uint64, error) {
	st, err := NewWith(cfg, protos)
	if err != nil || dir == "" {
		return st, nil, err
	}
	man, err := ReadCheckpointManifest(dir)
	if err != nil || len(man.Floors) != 0 || len(man.Offsets) != len(ends) {
		return st, nil, nil
	}
	for pid, off := range man.Offsets {
		if off > ends[pid] {
			return st, nil, nil
		}
	}
	have, want := slices.Clone(man.Partitions), slices.Clone(parts)
	slices.Sort(have)
	slices.Sort(want)
	if !slices.Equal(have, want) {
		return st, nil, nil
	}
	if _, err := RestoreCheckpoint(st, dir); err != nil {
		// The failed restore left partial state; start over empty.
		st, err = NewWith(cfg, protos)
		return st, nil, err
	}
	return st, man.Offsets, nil
}

// RestoreCheckpoint rehydrates st — which must be empty, with every
// metric named by the checkpoint already registered — from dir, and
// returns the manifest (whose Offsets tell the caller where to resume
// the log replay). Geometry mismatches and any corruption (size, CRC,
// record framing, synopsis decode) are errors; on error the store may
// hold partial state and must be discarded, which is cheap because the
// caller builds it fresh for exactly this call.
func RestoreCheckpoint(st *Store, dir string) (*CheckpointManifest, error) {
	if st == nil {
		return nil, core.Errf("RestoreCheckpoint", "store", "must be non-nil")
	}
	man, err := ReadCheckpointManifest(dir)
	if err != nil {
		return nil, err
	}
	if man.BucketWidth != st.cfg.BucketWidth || man.RingBuckets != st.cfg.RingBuckets {
		return nil, fmt.Errorf("store: checkpoint geometry %d/%d vs store %d/%d: %w",
			man.BucketWidth, man.RingBuckets, st.cfg.BucketWidth, st.cfg.RingBuckets, core.ErrIncompatible)
	}
	if st.observed.Load() > 0 || st.Stats().Entries > 0 {
		return nil, core.Errf("RestoreCheckpoint", "store", "must be empty")
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointDataName))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != man.DataBytes || crc32.ChecksumIEEE(data) != man.DataCRC {
		return nil, fmt.Errorf("store: checkpoint data file does not match manifest: %w", core.ErrCorrupt)
	}
	var records uint64
	pos := 0
	for pos < len(data) {
		if pos+8 > len(data) {
			return nil, core.ErrCorrupt
		}
		plen := int(binary.LittleEndian.Uint32(data[pos:]))
		wantCRC := binary.LittleEndian.Uint32(data[pos+4:])
		pos += 8
		if plen < 0 || pos+plen > len(data) {
			return nil, core.ErrCorrupt
		}
		payload := data[pos : pos+plen]
		pos += plen
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return nil, core.ErrCorrupt
		}
		if err := st.restoreRecord(payload); err != nil {
			return nil, err
		}
		records++
	}
	if records != man.Records {
		return nil, fmt.Errorf("store: checkpoint has %d records, manifest says %d: %w", records, man.Records, core.ErrCorrupt)
	}
	st.restored.Store(records)
	return man, nil
}

// restoreRecord decodes one checkpoint record and installs the bucket.
func (s *Store) restoreRecord(payload []byte) error {
	metric, rest, err := cutUvarintString(payload)
	if err != nil {
		return err
	}
	key, rest, err := cutUvarintString(rest)
	if err != nil {
		return err
	}
	ubkt, n := binary.Uvarint(rest)
	if n <= 0 || ubkt > math.MaxInt64 {
		return core.ErrCorrupt
	}
	bkt := int64(ubkt)
	rest = rest[n:]
	synBytes, rest, err := cutUvarintBytes(rest)
	if err != nil || len(rest) != 0 {
		return core.ErrCorrupt
	}
	proto, err := s.metrics.Lookup(metric)
	if err != nil {
		return err
	}

	k := entryKey{metric: metric, key: key}
	sh := s.shards[s.shardIndex(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.getOrCreate(k)
	// A writer emits each held bucket once, all within one retention
	// window; a checkpoint that breaks either rule is not one of ours.
	i, held := e.find(bkt)
	if _, sealed := e.hist.find(bkt); held || sealed {
		return fmt.Errorf("store: checkpoint names bucket %d of %q/%q twice: %w", bkt, metric, key, core.ErrCorrupt)
	}
	if newest := e.newest(); newest >= 0 {
		oldest := newest
		if len(e.slots) > 0 {
			oldest = e.slots[0].idx()
		}
		if len(e.hist.index) > 0 {
			oldest = min(oldest, e.hist.bkt(e.hist.index[0]))
		}
		if lo, hi := min(oldest, bkt), max(newest, bkt); hi-lo >= int64(s.cfg.RingBuckets) {
			return fmt.Errorf("store: checkpoint buckets %d and %d of %q/%q lie a retention window or more apart: %w", lo, hi, metric, key, core.ErrCorrupt)
		}
	}
	// Decode into a bucket opened like a live one: a HyperLogLog or
	// Count-Min record that fits the sparse form lands in it, holding what
	// the checkpointed bucket held.
	syn := proto.bucket()
	if err := syn.UnmarshalBinary(synBytes); err != nil {
		return fmt.Errorf("store: restore %q/%q bucket %d: %w", metric, key, bkt, err)
	}
	e.insert(i, newSlot(bkt, syn), s.cfg.RingBuckets)
	e.grow(sh, syn.Bytes())
	// Restored buckets are history: seal each as it lands (see
	// sealHistory for why a restored store must be all-sealed), into the
	// history when it has a payload.
	e.sealAll(sh)
	return nil
}

// sealHistory seals every resident bucket, the newest included. Sealing
// is always safe — it only forces the next write to that bucket to
// copy-on-write clone, exactly as advance arranges for history buckets.
// Both sides of a checkpoint end all-sealed: on write sealHistory seals
// each entry's open newest bucket and the unsealed copy-on-write clones
// late writes leave behind, and restore seals every bucket as it
// installs it (restoreRecord). The uniform pattern matters because the query path
// merges open buckets under the shard lock and sealed ones after it —
// for an order-sensitive synopsis (the q-digest compresses as it merges)
// a different open/sealed split yields a different, if equally valid,
// answer; with both sides all-sealed, a checkpointed store and its
// restored copy answer every query identically.
func (s *Store) sealHistory() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			e.sealAll(sh)
		}
		sh.mu.Unlock()
	}
}

func cutUvarintString(b []byte) (string, []byte, error) {
	s, rest, err := cutUvarintBytes(b)
	return string(s), rest, err
}

func cutUvarintBytes(b []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, core.ErrCorrupt
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}
