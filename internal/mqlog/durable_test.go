package mqlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// syncEvery returns a DurableConfig with inline fsync, so every produced
// record is fully on disk when Produce returns — tests can then simulate
// a kill -9 by simply not calling Close.
func syncEvery(dir string) *DurableConfig {
	return &DurableConfig{Dir: dir, SyncEveryAppend: true}
}

// fetchAll drains one partition from offset 0.
func fetchAll(t *testing.T, topic *Topic, pid int) []Message {
	t.Helper()
	msgs, _, _, err := topic.Fetch(pid, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

func TestDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	const n = 100

	t1, err := NewBroker().CreateTopicDurable("t", 2, 0, syncEvery(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := produceTo(t1, i%2, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}

	t2, err := NewBroker().CreateTopicDurable("t", 2, 0, syncEvery(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	ds := t2.DurabilityStats()
	if ds.RecoveredRecords != n {
		t.Fatalf("recovered %d records, want %d", ds.RecoveredRecords, n)
	}
	if ds.TornTruncations != 0 {
		t.Fatalf("clean shutdown reported %d torn truncations", ds.TornTruncations)
	}
	for pid := 0; pid < 2; pid++ {
		if got, want := t2.EndOffset(pid), uint64(n/2); got != want {
			t.Fatalf("partition %d end offset %d, want %d", pid, got, want)
		}
		for j, m := range fetchAll(t, t2, pid) {
			i := 2*j + pid
			if m.Offset != uint64(j) || m.Key != fmt.Sprintf("k%d", i) || string(m.Value) != fmt.Sprintf("v%d", i) {
				t.Fatalf("partition %d record %d recovered as %+v", pid, j, m)
			}
		}
	}
	// Offsets continue where the previous process stopped.
	off, err := produceTo(t2, 0, "late", nil)
	if err != nil {
		t.Fatal(err)
	}
	if off != n/2 {
		t.Fatalf("post-recovery append got offset %d, want %d", off, n/2)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	const n = 10

	t1, err := NewBroker().CreateTopicDurable("t", 1, 0, syncEvery(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		produceTo(t1, 0, fmt.Sprintf("k%d", i), []byte("payload"))
	}
	// Simulated kill -9 mid-write: every record is synced (so the file is
	// complete), then the tail record's frame is cut short on disk.
	seg := filepath.Join(dir, "t", "p0000", segmentName(0))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	t2, err := NewBroker().CreateTopicDurable("t", 1, 0, syncEvery(dir))
	if err != nil {
		t.Fatal(err)
	}
	ds := t2.DurabilityStats()
	if ds.TornTruncations != 1 {
		t.Fatalf("torn truncations %d, want 1", ds.TornTruncations)
	}
	if got := t2.EndOffset(0); got != n-1 {
		t.Fatalf("end offset %d after torn tail, want %d", got, n-1)
	}
	msgs := fetchAll(t, t2, 0)
	if len(msgs) != n-1 {
		t.Fatalf("recovered %d records, want %d", len(msgs), n-1)
	}
	for i, m := range msgs {
		if m.Key != fmt.Sprintf("k%d", i) || string(m.Value) != "payload" {
			t.Fatalf("record %d corrupted by truncation: %+v", i, m)
		}
	}
	// The torn offset is reused, and a third open sees a clean log.
	if off, _ := produceTo(t2, 0, "replacement", nil); off != n-1 {
		t.Fatalf("replacement record got offset %d, want %d", off, n-1)
	}
	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}
	t3, err := NewBroker().CreateTopicDurable("t", 1, 0, syncEvery(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Close()
	if ds := t3.DurabilityStats(); ds.TornTruncations != 0 || t3.EndOffset(0) != n {
		t.Fatalf("third open: torn=%d end=%d, want torn=0 end=%d", ds.TornTruncations, t3.EndOffset(0), n)
	}
}

func TestDurableGapDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// ~19-byte records against a 64-byte segment cap: every few appends roll.
	cfg := &DurableConfig{Dir: dir, SegmentBytes: 64, SyncEveryAppend: true}
	t1, err := NewBroker().CreateTopicDurable("t", 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		produceTo(t1, 0, "k", []byte("vvvv"))
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	pdir := filepath.Join(dir, "t", "p0000")
	names, err := listSegments(pdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 4 {
		t.Fatalf("only %d segments, need >= 4 to punch a hole", len(names))
	}
	gapBase, _ := parseSegmentName(names[1])
	if err := os.Remove(filepath.Join(pdir, names[1])); err != nil {
		t.Fatal(err)
	}

	t2, err := NewBroker().CreateTopicDurable("t", 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	// The readable log ends where the hole starts; everything after the
	// vanished segment is unlinked rather than served with an offset gap.
	if got := t2.EndOffset(0); got != gapBase {
		t.Fatalf("end offset %d after gap, want %d", got, gapBase)
	}
	left, err := listSegments(pdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("%d segment files survive the gap discard, want 1 (%v)", len(left), left)
	}
}

func TestDurableSegmentRollAndRetention(t *testing.T) {
	dir := t.TempDir()
	cfg := &DurableConfig{Dir: dir, SegmentBytes: 256, MaxLogBytes: 1024, SyncEveryAppend: true}
	t1, err := NewBroker().CreateTopicDurable("t", 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		produceTo(t1, 0, fmt.Sprintf("k%d", i), []byte("0123456789abcdef"))
	}
	ds := t1.DurabilityStats()
	if ds.SegmentRolls == 0 {
		t.Fatal("no segment rolls despite tiny SegmentBytes")
	}
	if ds.DiskBytes > cfg.MaxLogBytes+int64(cfg.SegmentBytes) {
		t.Fatalf("disk footprint %d not bounded by retention (max %d + one active segment)", ds.DiskBytes, cfg.MaxLogBytes)
	}
	start := t1.StartOffset(0)
	if start == 0 {
		t.Fatal("disk retention never advanced the start offset")
	}
	// The in-memory log tracks exactly what the disk still holds.
	msgs, next, truncated, err := t1.Fetch(0, 0, 1<<20)
	if err != nil || !truncated {
		t.Fatalf("fetch below the retained range: err=%v truncated=%v", err, truncated)
	}
	if msgs[0].Offset != start || next != n {
		t.Fatalf("retained range [%d, %d), want [%d, %d)", msgs[0].Offset, next, start, n)
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}

	t2, err := NewBroker().CreateTopicDurable("t", 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if got := t2.StartOffset(0); got != start {
		t.Fatalf("recovered start offset %d, want %d", got, start)
	}
	if got := t2.EndOffset(0); got != n {
		t.Fatalf("recovered end offset %d, want %d", got, n)
	}
	re := fetchAll(t, t2, 0)
	if len(re) != len(msgs) {
		t.Fatalf("recovered %d retained records, want %d", len(re), len(msgs))
	}
	for i, m := range re {
		if m.Offset != msgs[i].Offset || m.Key != msgs[i].Key {
			t.Fatalf("retained record %d recovered as %+v, want %+v", i, m, msgs[i])
		}
	}
}

// TestGroupCommitCloseFlushesEverything is the group-commit counterpart
// of the SyncEveryAppend tests above: appends are acknowledged before
// their fsync tick, so the write buffer and segment rolls must all land
// on the final flush a clean Close performs — reopening may lose nothing.
func TestGroupCommitCloseFlushesEverything(t *testing.T) {
	dir := t.TempDir()
	t1, err := NewBroker().CreateTopicDurable("t", 4, 0, &DurableConfig{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	for i := 0; i < n; i++ {
		t1.Produce(fmt.Sprintf("k%d", i%17), []byte("v"))
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	t2, err := NewBroker().CreateTopicDurable("t", 4, 0, &DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	ds := t2.DurabilityStats()
	var end uint64
	for _, e := range t2.EndOffsets() {
		end += e
	}
	if ds.RecoveredRecords != n || end != n || ds.TornTruncations != 0 {
		t.Fatalf("recovered %d records, ends sum %d, torn %d; want %d records, 0 torn",
			ds.RecoveredRecords, end, ds.TornTruncations, n)
	}
}

// copyDir copies a topic directory's files as they stand, with no Sync
// or Close on the producing topic: the disk state a kill -9 of the
// producing process leaves behind (its unflushed write buffers are lost
// with it; what it wrote is in the OS's hands).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableProcessKillWindow pins what an ack survives when the
// process is killed: with group commit (a long FsyncInterval, so no
// sync runs during the test) acknowledged appends still sit in the
// partition's write buffer, and a copy of the directory taken without
// Sync or Close reopens to a strict prefix of them — a kill loses the
// unflushed tail, not only a power loss. With SyncEveryAppend the copy
// reopens to every acknowledged append.
func TestDurableProcessKillWindow(t *testing.T) {
	const parts, n = 2, 1000
	for _, tc := range []struct {
		name string
		cfg  DurableConfig
	}{
		{"group-commit", DurableConfig{FsyncInterval: time.Hour}},
		{"sync-every-append", DurableConfig{SyncEveryAppend: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, killed := t.TempDir(), t.TempDir()
			cfg := tc.cfg
			cfg.Dir = dir
			live, err := NewBroker().CreateTopicDurable("t", parts, 0, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { live.Close() })
			for i := 0; i < n; i++ {
				if _, err := produceTo(live, i%parts, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			copyDir(t, dir, killed)

			cfg.Dir = killed
			reopened, err := NewBroker().CreateTopicDurable("t", parts, 0, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			recovered := reopened.DurabilityStats().RecoveredRecords
			for pid := 0; pid < parts; pid++ {
				for j, m := range fetchAll(t, reopened, pid) {
					i := parts*j + pid
					if m.Offset != uint64(j) || m.Key != fmt.Sprintf("k%d", i) || string(m.Value) != fmt.Sprintf("value-%04d", i) {
						t.Fatalf("partition %d record %d recovered as %+v: not a prefix of the acknowledged appends", pid, j, m)
					}
				}
			}
			if cfg.SyncEveryAppend {
				if recovered != n {
					t.Fatalf("SyncEveryAppend: the killed copy recovered %d of %d acknowledged appends", recovered, n)
				}
				return
			}
			if recovered >= n {
				t.Fatalf("group commit: the killed copy recovered all %d acknowledged appends; the unflushed write buffer should be lost", n)
			}
			t.Logf("group commit: a kill kept %d of %d acknowledged appends", recovered, n)
		})
	}
}

func TestProduceBatchToEmptyBatch(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 2, 0)
	if _, err := topic.ProduceBatchTo(0, nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("nil batch: got %v, want ErrEmptyBatch", err)
	}
	if _, err := topic.ProduceBatchTo(0, []Record{}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: got %v, want ErrEmptyBatch", err)
	}
	if end := topic.EndOffset(0); end != 0 {
		t.Fatalf("rejected batches assigned offsets: end %d", end)
	}
	first, err := topic.ProduceBatchTo(0, []Record{{Key: "a"}, {Key: "b"}})
	if err != nil || first != 0 {
		t.Fatalf("first batch: offset %d err %v", first, err)
	}
	first, err = topic.ProduceBatchTo(0, []Record{{Key: "c"}})
	if err != nil || first != 2 {
		t.Fatalf("second batch: offset %d err %v", first, err)
	}
	if _, err := topic.ProduceBatchTo(9, []Record{{Key: "x"}}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestFetchRejectsNonPositiveMax(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 0)
	produceTo(topic, 0, "k", []byte("v"))
	for _, max := range []int{0, -1, -100} {
		msgs, next, _, err := topic.Fetch(0, 0, max)
		if !errors.Is(err, ErrInvalidFetchMax) {
			t.Fatalf("max=%d: got %v, want ErrInvalidFetchMax", max, err)
		}
		if len(msgs) != 0 || next != 0 {
			t.Fatalf("max=%d: rejected fetch still returned msgs=%d next=%d", max, len(msgs), next)
		}
	}
	if msgs, _, _, err := topic.Fetch(0, 0, 1); err != nil || len(msgs) != 1 {
		t.Fatalf("valid fetch: %d msgs, err %v", len(msgs), err)
	}
}

func TestLagConsistentUnderConcurrentCommits(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 4, 0)
	const perPart = 100
	for pid := 0; pid < 4; pid++ {
		for i := 0; i < perPart; i++ {
			produceTo(topic, pid, "k", nil)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := uint64(1); off <= perPart; off++ {
			for pid := 0; pid < 4; pid++ {
				b.Commit("g", "t", pid, off)
			}
		}
	}()
	// Commits only advance, so every lag observed mid-stream must stay
	// within the true range — the one-lock snapshot keeps a commit landing
	// mid-scan from shifting the baseline between partitions.
	for i := 0; i < 1000; i++ {
		if lag := b.Lag("g", topic); lag > 4*perPart {
			t.Fatalf("lag %d exceeds total backlog %d", lag, 4*perPart)
		}
	}
	wg.Wait()
	if lag := b.Lag("g", topic); lag != 0 {
		t.Fatalf("final lag %d, want 0", lag)
	}
}

// BenchmarkDurableIngest measures the per-append cost of the durability
// modes: group-commit (default), inline fsync, and the in-memory baseline.
func BenchmarkDurableIngest(b *testing.B) {
	value := []byte("0123456789abcdef0123456789abcdef")
	run := func(b *testing.B, d *DurableConfig) {
		topic, err := NewBroker().CreateTopicDurable("bench", 1, 0, d)
		if err != nil {
			b.Fatal(err)
		}
		defer topic.Close()
		b.SetBytes(int64(len(value)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			produceTo(topic, 0, "key", value)
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, nil) })
	b.Run("group-commit", func(b *testing.B) { run(b, &DurableConfig{Dir: b.TempDir()}) })
	b.Run("fsync-every-append", func(b *testing.B) { run(b, &DurableConfig{Dir: b.TempDir(), SyncEveryAppend: true}) })
}
