// durable.go gives a topic's partitions segmented on-disk persistence
// behind the existing partition API: every append is written through to
// the active segment file, a group-commit syncer fsyncs dirty partitions
// on a fixed interval (so producers never wait on the disk unless
// SyncEveryAppend asks them to), retention unlinks whole sealed segments
// by age or total bytes, and opening a durable topic replays the segment
// chain — truncating a torn tail record — to rebuild base/end offsets
// and the in-memory log. In-memory topics (no DurableConfig) are
// untouched: the hooks below are nil-guarded no-ops.
package mqlog

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// DurableConfig configures on-disk persistence for a topic's partitions.
// The zero Dir disables durability (and the config is then invalid for
// CreateTopicDurable); every other field has a usable default.
type DurableConfig struct {
	// Dir is the root directory for the topic's segment files; each
	// topic gets Dir/<topic>/p<NNNN>/<base>.seg, so one Dir can host
	// every topic of a broker.
	Dir string
	// SegmentBytes rolls the active segment once it reaches this size
	// (default 1 MiB). Rolling seals the old segment, which makes it
	// eligible for retention.
	SegmentBytes int
	// FsyncInterval is the group-commit window: a background syncer
	// flushes and fsyncs every dirty partition this often (default 2ms).
	// Appends between syncs are buffered — a crash loses at most one
	// window, the standard group-commit trade.
	FsyncInterval time.Duration
	// SyncEveryAppend makes every append flush+fsync inline before
	// returning (no group commit, no background syncer) — the zero-loss
	// mode, at a large per-append cost.
	SyncEveryAppend bool
	// MaxLogBytes unlinks the oldest sealed segments once the
	// partition's on-disk footprint exceeds it (0 = unlimited). The
	// active segment is never unlinked.
	MaxLogBytes int64
}

func (d DurableConfig) withDefaults() DurableConfig {
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = 1 << 20
	}
	if d.FsyncInterval <= 0 {
		d.FsyncInterval = 2 * time.Millisecond
	}
	return d
}

// sealedSegment is the metadata the writer keeps for a closed segment —
// enough to apply retention without reopening the file.
type sealedSegment struct {
	base, end uint64 // offset range [base, end)
	size      int64
	path      string
}

// durPartition is one partition's disk state. Every field is guarded by
// the owning partition's mutex except where noted; the group-commit
// syncer snapshots the *os.File under the lock and fsyncs outside it.
type durPartition struct {
	dir    string
	cfg    DurableConfig
	t      *Topic
	f      *os.File
	w      *bufio.Writer
	base   uint64 // base offset of the active segment
	size   int64  // bytes written to the active segment (incl. header)
	sealed []sealedSegment
	dirty  bool // buffered or unsynced writes since the last fsync
	closed bool
	err    error // first disk error; latched, disables further writes
}

// fail latches the partition's first disk error. The in-memory log keeps
// serving — durability degrades, availability does not — and the error
// surfaces through Topic.Sync, Topic.Close and DurabilityStats.
func (d *durPartition) fail(err error) {
	if d.err == nil {
		d.err = err
		d.t.diskErrors.Add(1)
	}
}

// durAppendLocked writes one record through to the active segment and
// rolls it when full: the frame, then the payload bytes appendBatch just
// put in the tail chunk. Caller holds p.mu; off is the offset
// appendBatch just assigned.
func (p *partition) durAppendLocked(payload []byte, off uint64) {
	d := p.dur
	if d == nil || d.err != nil || d.closed {
		return
	}
	frame := frameHeader(payload)
	if _, err := d.w.Write(frame[:]); err != nil {
		d.fail(err)
		return
	}
	if _, err := d.w.Write(payload); err != nil {
		d.fail(err)
		return
	}
	d.size += int64(len(frame) + len(payload))
	d.dirty = true
	if d.cfg.SyncEveryAppend {
		if err := d.flushSyncLocked(); err != nil {
			d.fail(err)
			return
		}
	}
	if d.size >= int64(d.cfg.SegmentBytes) {
		p.rollLocked(off + 1)
	}
}

// flushSyncLocked flushes the buffered writer and fsyncs the active
// segment, recording fsync latency. Caller holds p.mu.
func (d *durPartition) flushSyncLocked() error {
	if err := d.w.Flush(); err != nil {
		return err
	}
	start := time.Now()
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.t.observeFsync(time.Since(start))
	d.dirty = false
	return nil
}

// rollLocked seals the active segment and opens a fresh one based at
// nextBase, then applies disk retention. Caller holds p.mu.
func (p *partition) rollLocked(nextBase uint64) {
	d := p.dur
	if err := d.flushSyncLocked(); err != nil {
		d.fail(err)
		return
	}
	path := d.f.Name()
	if err := d.f.Close(); err != nil {
		d.fail(err)
		return
	}
	d.sealed = append(d.sealed, sealedSegment{
		base: d.base, end: nextBase, size: d.size, path: path,
	})
	f, err := createSegment(d.dir, nextBase)
	if err != nil {
		d.fail(err)
		return
	}
	d.f = f
	d.w.Reset(f)
	d.base = nextBase
	d.size = segHeaderSize
	d.t.segRolls.Add(1)
	p.applyDiskRetentionLocked()
}

// applyDiskRetentionLocked unlinks the oldest sealed segments while the
// partition exceeds MaxLogBytes, advancing the in-memory base past the
// unlinked range so StartOffset, fetch clamping and Reader truncation
// reflect exactly what the disk still holds. The active segment is never
// unlinked. Caller holds p.mu.
func (p *partition) applyDiskRetentionLocked() {
	d := p.dur
	total := d.size
	for _, s := range d.sealed {
		total += s.size
	}
	drop := 0
	for drop < len(d.sealed) && d.cfg.MaxLogBytes > 0 && total > d.cfg.MaxLogBytes {
		s := d.sealed[drop]
		if err := os.Remove(s.path); err != nil {
			d.fail(err)
			break
		}
		total -= s.size
		drop++
		p.dropBelowLocked(s.end) // the in-memory log follows the disk
	}
	if drop > 0 {
		d.sealed = append(d.sealed[:0], d.sealed[drop:]...)
	}
}

// openDurPartition opens (or creates) one partition's segment directory,
// replays the segment chain into p's in-memory log (each intact payload
// copied straight into p's chunks), truncates a torn tail, and leaves the
// last segment open for appends. The caller applies the in-memory
// retention limit and then compresses the chunks it keeps.
func openDurPartition(dir string, cfg DurableConfig, t *Topic, p *partition) (*durPartition, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &durPartition{dir: dir, cfg: cfg, t: t}
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		f, err := createSegment(dir, 0)
		if err != nil {
			return nil, err
		}
		d.f = f
		d.w = bufio.NewWriter(f)
		d.size = segHeaderSize
		return d, nil
	}

	// segs[i] is names[i]'s offset range and intact size.
	var segs []sealedSegment
	var last segmentScan
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		base, err := segmentHeader(name, data)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.base, p.end = base, base
		} else if base != p.end {
			// Offset gap after a torn or vanished segment: the readable
			// log ends at the previous segment. Unlink the rest rather
			// than serve a log with a hole in it.
			break
		}
		last = scanRecords(data, p.appendPayloadLocked)
		segs = append(segs, sealedSegment{base: base, end: p.end, size: last.validEnd, path: filepath.Join(dir, name)})
		if last.torn {
			t.tornTruncations.Add(1)
			break
		}
	}
	if len(segs) < len(names) {
		if err := discardLater(dir, names, len(segs)); err != nil {
			return nil, err
		}
	}

	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if last.torn {
		if err := f.Truncate(last.validEnd); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(last.validEnd, 0); err != nil {
		f.Close()
		return nil, err
	}
	d.f = f
	d.w = bufio.NewWriter(f)
	d.base = active.base
	d.size = active.size
	d.sealed = append(d.sealed, segs[:len(segs)-1]...)
	t.recoveredRecords.Add(p.end - p.base)
	return d, nil
}

// CreateTopicDurable creates a topic whose partitions persist to disk
// under d.Dir, recovering any state a previous process left there: the
// segment chain is scanned (torn tails truncated, post-gap segments
// discarded), offsets are rebuilt from segment headers, and the
// recovered messages populate the in-memory log before the topic is
// returned. A nil d is exactly CreateTopic — the in-memory fast path is
// byte-for-byte unchanged.
func (b *Broker) CreateTopicDurable(name string, partitions, retention int, d *DurableConfig) (*Topic, error) {
	if d == nil {
		return b.CreateTopic(name, partitions, retention)
	}
	if d.Dir == "" {
		return nil, core.Errf("Broker", "durable", "Dir must be non-empty")
	}
	t, err := b.CreateTopic(name, partitions, retention)
	if err != nil {
		return nil, err
	}
	cfg := d.withDefaults()
	t.dur = &cfg
	start := time.Now()
	for pid, p := range t.parts {
		dir := filepath.Join(cfg.Dir, name, fmt.Sprintf("p%04d", pid))
		dp, err := openDurPartition(dir, cfg, t, p)
		if err != nil {
			b.removeTopic(name)
			return nil, fmt.Errorf("mqlog: open durable partition %d of %q: %w", pid, name, err)
		}
		p.dur = dp
		if p.limit > 0 && p.end-p.base > uint64(p.limit) {
			p.dropBelowLocked(p.end - uint64(p.limit))
		}
		p.compressHeldLocked()
	}
	t.recoveryNanos.Store(time.Since(start).Nanoseconds())
	if !cfg.SyncEveryAppend {
		t.stopSync = make(chan struct{})
		t.syncDone = make(chan struct{})
		go t.syncLoop(cfg.FsyncInterval)
	}
	return t, nil
}

// removeTopic undoes a CreateTopic that failed durable open halfway.
func (b *Broker) removeTopic(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.topics, name)
}

// syncLoop is the group-commit writer: every interval it flushes and
// fsyncs each dirty partition. Flush happens under the partition lock;
// the fsync itself happens outside it so producers are never blocked on
// the disk (see syncIgnoringClosed for the roll race).
func (t *Topic) syncLoop(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	defer close(t.syncDone)
	for {
		select {
		case <-t.stopSync:
			t.syncOnce()
			return
		case <-tick.C:
			t.syncOnce()
		}
	}
}

// syncOnce flushes and fsyncs every dirty partition once.
func (t *Topic) syncOnce() {
	for _, p := range t.parts {
		d := p.dur
		if d == nil {
			continue
		}
		p.mu.Lock()
		var f *os.File
		if d.err == nil && !d.closed && d.dirty {
			if err := d.w.Flush(); err != nil {
				d.fail(err)
			} else {
				f = d.f
				d.dirty = false
			}
		}
		p.mu.Unlock()
		if f == nil {
			continue
		}
		start := time.Now()
		if err := syncIgnoringClosed(f); err != nil {
			p.mu.Lock()
			d.fail(err)
			p.mu.Unlock()
			continue
		}
		t.observeFsync(time.Since(start))
	}
}

// observeFsync records one fsync in the always-on counter and, when
// telemetry is wired, the latency histogram.
func (t *Topic) observeFsync(dt time.Duration) {
	t.fsyncs.Add(1)
	if h := t.telFsync.Load(); h != nil {
		h.Observe(dt.Seconds())
	}
}

// Sync forces a flush+fsync of every partition's active segment — the
// explicit durability barrier for shutdown paths and tests. It returns
// the first disk error latched by any partition. In-memory topics
// return nil.
func (t *Topic) Sync() error {
	if t.dur == nil {
		return nil
	}
	var first error
	for _, p := range t.parts {
		d := p.dur
		if d == nil {
			continue
		}
		p.mu.Lock()
		if d.err == nil && !d.closed {
			if err := d.flushSyncLocked(); err != nil {
				d.fail(err)
			}
		}
		if first == nil && d.err != nil {
			first = d.err
		}
		p.mu.Unlock()
	}
	return first
}

// Close stops the group-commit syncer, flushes and fsyncs every
// partition, and closes the segment files. The in-memory log keeps
// serving reads and even writes afterwards (writes just stop being
// persisted), which lets a closed cluster's log still be replayed; a
// second Close is a no-op. In-memory topics return nil.
func (t *Topic) Close() error {
	if t.dur == nil {
		return nil
	}
	var first error
	t.closeOnce.Do(func() {
		if t.stopSync != nil {
			close(t.stopSync)
			<-t.syncDone
		}
		first = t.Sync()
		for _, p := range t.parts {
			d := p.dur
			if d == nil {
				continue
			}
			p.mu.Lock()
			if !d.closed {
				d.closed = true
				if err := d.f.Close(); err != nil && first == nil {
					first = err
				}
			}
			p.mu.Unlock()
		}
	})
	return first
}

// Close closes every durable topic on the broker (see Topic.Close) and
// returns the first error.
func (b *Broker) Close() error {
	b.mu.Lock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	var first error
	for _, t := range topics {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Durable reports whether the topic persists to disk.
func (t *Topic) Durable() bool { return t.dur != nil }

// DurabilityStats is a point-in-time snapshot of the topic's disk state.
type DurabilityStats struct {
	Segments         int    // segment files on disk (sealed + active)
	DiskBytes        int64  // total on-disk footprint
	Fsyncs           uint64 // fsyncs issued (group commits + explicit Syncs)
	SegmentRolls     uint64 // active-segment rolls
	TornTruncations  uint64 // torn tails truncated during recovery
	RecoveredRecords uint64 // records replayed from disk at open
	RecoveryNanos    int64  // wall time of the open-time recovery scan
	DiskErrors       uint64 // latched disk failures (durability degraded)
	Err              error  // first latched disk error, if any
}

// DurabilityStats reports the topic's durability counters and on-disk
// footprint. In-memory topics return the zero value.
func (t *Topic) DurabilityStats() DurabilityStats {
	if t.dur == nil {
		return DurabilityStats{}
	}
	s := DurabilityStats{
		Fsyncs:           t.fsyncs.Load(),
		SegmentRolls:     t.segRolls.Load(),
		TornTruncations:  t.tornTruncations.Load(),
		RecoveredRecords: t.recoveredRecords.Load(),
		RecoveryNanos:    t.recoveryNanos.Load(),
		DiskErrors:       t.diskErrors.Load(),
	}
	for _, p := range t.parts {
		d := p.dur
		if d == nil {
			continue
		}
		p.mu.Lock()
		s.Segments += 1 + len(d.sealed)
		s.DiskBytes += d.size
		for _, seg := range d.sealed {
			s.DiskBytes += seg.size
		}
		if s.Err == nil {
			s.Err = d.err
		}
		p.mu.Unlock()
	}
	return s
}
