package dstore

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/workload"
)

// feedAt is feed with a stream-time base, so a second batch continues
// where the first stopped instead of rewriting history buckets.
func feedAt(t *testing.T, c *Cluster, events int, seed uint64, base int64) int64 {
	t.Helper()
	rng := workload.NewRNG(seed)
	z := workload.NewZipf(rng, 48, 1.2)
	r := c.Router()
	now := base
	for i := 0; i < events; i++ {
		now = base + int64(i)
		key := fmt.Sprintf("k%d", z.Draw())
		item := fmt.Sprintf("u%d", rng.Uint64()%4096)
		val := rng.Uint64() % 50000
		for _, obs := range []store.Observation{
			{Metric: "uniq", Key: key, Item: item, Time: now},
			{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
			{Metric: "lat", Key: key, Value: val, Time: now},
		} {
			if err := r.ObserveBatch([]store.Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return now
}

func durableClusterConfig(dir string) Config {
	return Config{
		Partitions:    8,
		Store:         store.Config{Shards: 4, BucketWidth: 100, RingBuckets: 64},
		Durable:       &mqlog.DurableConfig{Dir: filepath.Join(dir, "log"), SyncEveryAppend: true},
		CheckpointDir: filepath.Join(dir, "ckpt"),
	}
}

// TestClusterRestartRestoresCheckpointAndReplaysSuffix is the precise
// restart accounting check: a single node owns every partition, so the
// reopened cluster's first recovery sees exactly the checkpoint's
// assignment and must restore the snapshot and replay only the log
// suffix past it — not one message more.
func TestClusterRestartRestoresCheckpointAndReplaysSuffix(t *testing.T) {
	dir := t.TempDir()
	cfg := durableClusterConfig(dir)

	c1 := newTestCluster(t, cfg)
	if _, err := c1.StartNode(); err != nil {
		t.Fatal(err)
	}
	feedAt(t, c1, 400, 7, 0)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	to := feedAt(t, c1, 100, 8, 400)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCluster(t, cfg)
	if got := c2.Topic().DurabilityStats().RecoveredRecords; got != 1500 {
		t.Fatalf("reopened log recovered %d records, want 1500", got)
	}
	if _, err := c2.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.CheckpointRestores != 1 {
		t.Fatalf("CheckpointRestores = %d, want 1", st.CheckpointRestores)
	}
	// 400 events were checkpointed; only the 100 post-checkpoint events
	// (3 observations each) may replay.
	if st.Replayed != 300 {
		t.Fatalf("Replayed = %d, want 300 (the post-checkpoint suffix)", st.Replayed)
	}
	if st.Applied != 0 {
		t.Fatalf("Applied = %d, want 0 (no live appends since restart)", st.Applied)
	}
	o := oracle(t, c2)
	if n := assertMatchesOracle(t, c2, o, to, "after restart"); n == 0 {
		t.Fatal("nothing checked")
	}

	// The restored cluster keeps serving: new appends land on the node
	// event loop and answers still match a full replay.
	to = feedAt(t, c2, 100, 9, 500)
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().Applied; got != 300 {
		t.Fatalf("Applied = %d after post-restart feed, want 300", got)
	}
	o = oracle(t, c2)
	assertMatchesOracle(t, c2, o, to, "after restart + new traffic")
}

// TestClusterRestartMultiNodeMatchesOracle restarts a three-node cluster
// over its durable directory. Nodes join one at a time, so only the
// final generation's assignment matches the three-node checkpoints —
// earlier generations fall back to full replays — but once membership
// matches, every node seeds from its snapshot and the cluster's answers
// equal a single store rebuilt from the recovered log.
func TestClusterRestartMultiNodeMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	cfg := durableClusterConfig(dir)

	c1 := newTestCluster(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := c1.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	feedAt(t, c1, 600, 17, 0)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	to := feedAt(t, c1, 200, 18, 600)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCluster(t, cfg)
	if got := c2.Topic().DurabilityStats().RecoveredRecords; got != 2400 {
		t.Fatalf("reopened log recovered %d records, want 2400", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := c2.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.CheckpointRestores == 0 {
		t.Fatal("no recovery restored a checkpoint; final assignment should match the snapshot's")
	}
	o := oracle(t, c2)
	if n := assertMatchesOracle(t, c2, o, to, "after multi-node restart"); n == 0 {
		t.Fatal("nothing checked")
	}
}

// TestClusterRestartRefusesFlooredCheckpoint: a checkpoint whose manifest
// records offset floors was written by a floor-fenced cluster and holds
// only [floor, offset) of each partition. Offsets and assignment match
// the restarting node, so only the floors mark it unusable; the node must
// ignore it, recover by a full replay, and answer like the oracle.
func TestClusterRestartRefusesFlooredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableClusterConfig(dir)

	c1 := newTestCluster(t, cfg)
	if _, err := c1.StartNode(); err != nil {
		t.Fatal(err)
	}
	to := feedAt(t, c1, 400, 27, 0)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// The fenced snapshot: each partition from the middle of its log.
	ends := c1.Topic().EndOffsets()
	floors := make([]uint64, len(ends))
	parts := make([]int, len(ends))
	fenced, err := store.New(c1.cfg.Store)
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range testProtos(t) {
		if err := fenced.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	for pid, end := range ends {
		floors[pid], parts[pid] = end/2, pid
		if _, err := store.ReplayPartitionTo(fenced, c1.Topic(), pid, floors[pid], end); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(cfg.CheckpointDir, "node-0")
	if _, err := store.WriteCheckpoint(fenced, ckpt, store.CheckpointMeta{Offsets: ends, Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	// No writer stamps floors any more; write the manifest an older one
	// left by hand.
	man, err := store.ReadCheckpointManifest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	man.Floors = floors
	b, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "manifest.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCluster(t, cfg)
	if _, err := c2.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.CheckpointRestores != 0 {
		t.Fatalf("CheckpointRestores = %d, want 0 (a floored checkpoint must not seed a store)", st.CheckpointRestores)
	}
	if st.Replayed != 1200 {
		t.Fatalf("Replayed = %d, want 1200 (the full log)", st.Replayed)
	}
	if n := assertMatchesOracle(t, c2, oracle(t, c2), to, "after floored checkpoint"); n == 0 {
		t.Fatal("nothing checked")
	}
}

// TestClusterRestartRefusesCheckpointAheadOfLog: a crash can lose the
// log's unsynced tail while the checkpoint that covered it survives, so
// the reopened log ends short of the checkpoint's offsets. The snapshot
// holds observations the log no longer has and no replay from its
// offsets can start; the node must refuse it, rebuild from the log it
// has, and answer like the oracle over that log.
func TestClusterRestartRefusesCheckpointAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableClusterConfig(dir)

	c1 := newTestCluster(t, cfg)
	if _, err := c1.StartNode(); err != nil {
		t.Fatal(err)
	}
	to := feedAt(t, c1, 400, 37, 0)
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut every segment to 60% of its bytes: torn-tail recovery then
	// ends each partition short of the checkpoint's offsets.
	err := filepath.WalkDir(cfg.Durable.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".seg" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.Truncate(path, info.Size()*6/10)
	})
	if err != nil {
		t.Fatal(err)
	}

	c2 := newTestCluster(t, cfg)
	var want uint64
	for _, end := range c2.Topic().EndOffsets() {
		want += end
	}
	if want == 0 || want >= 1200 {
		t.Fatalf("reopened log holds %d records, want a cut tail (0 < n < 1200)", want)
	}
	if _, err := c2.StartNode(); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- c2.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Drain did not return within 5s (%d checkpoint restores): recovery is wedged on the checkpoint", c2.Stats().CheckpointRestores)
	}
	st := c2.Stats()
	if st.Store.Observed != want {
		t.Fatalf("Store.Observed = %d, want %d (every record the reopened log holds)", st.Store.Observed, want)
	}
	if st.CheckpointRestores != 0 {
		t.Fatalf("CheckpointRestores = %d, want 0 (a checkpoint ahead of the log must not seed a store)", st.CheckpointRestores)
	}
	if n := assertMatchesOracle(t, c2, oracle(t, c2), to, "after checkpoint ahead of log"); n == 0 {
		t.Fatal("nothing checked")
	}
}
