package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mqlog"
)

func ckptGeom() Config {
	return Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
}

// ckptProtos returns all four synopsis families — a checkpoint must round-
// trip every codec the store can hold.
func ckptProtos(t testing.TB) map[string]Prototype {
	t.Helper()
	protos := map[string]Prototype{}
	mk := func(name string, p Prototype, err error) {
		if err != nil {
			t.Fatal(err)
		}
		protos[name] = p
	}
	cm, err := NewFreqProto(256, 4, 11)
	mk("hits", cm, err)
	hll, err := NewDistinctProto(12, 11)
	mk("uniq", hll, err)
	ss, err := NewTopKProto(64)
	mk("top", ss, err)
	qd, err := NewQuantileProto(16, 64)
	mk("lat", qd, err)
	return protos
}

func ckptStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range ckptProtos(t) {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// ckptObs is the deterministic four-family workload the checkpoint tests
// feed: i indexes the stream, and the keys are the seven quadratic
// residues mod 13, so six of them take twice the writes of the seventh.
func ckptObs(i int) []Observation {
	key := fmt.Sprintf("k%d", i*i%13)
	now := int64(i)
	item := fmt.Sprintf("u%d", i%97)
	return []Observation{
		{Metric: "hits", Key: key, Item: item, Value: 1 + uint64(i)%5, Time: now},
		{Metric: "uniq", Key: key, Item: item, Time: now},
		{Metric: "top", Key: "global", Item: key, Time: now},
		{Metric: "lat", Key: key, Value: uint64(i*2654435761) % 50000, Time: now},
	}
}

// assertCheckpointAgree compares every key's answers across all four families
// and two time ranges. Observation order is identical on both sides, so
// the sketch answers must be exactly equal, not merely close.
func assertCheckpointAgree(t *testing.T, got, want interface {
	Query(context.Context, QueryRequest) (QueryResult, error)
	Keys(string) []string
}, to int64, stage string) {
	t.Helper()
	keys := want.Keys("hits")
	if len(keys) == 0 {
		t.Fatalf("%s: reference store has no keys", stage)
	}
	for _, r := range [][2]int64{{0, to + 1}, {to / 3, 2 * to / 3}} {
		req := QueryRequest{Metrics: []string{"hits", "uniq", "lat"}, Keys: keys, From: r[0], To: r[1]}
		gr, err := got.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		wr, err := want.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ga, wa := gr.Answers(), wr.Answers()
		if len(ga) != len(wa) {
			t.Fatalf("%s: %d answers vs %d", stage, len(ga), len(wa))
		}
		for i := range ga {
			for u := 0; u < 8; u++ {
				item := fmt.Sprintf("u%d", u)
				if g, w := ga[i].Count(item), wa[i].Count(item); g != w {
					t.Fatalf("%s: range %v %s/%s count[%s] %d != %d", stage, r, ga[i].Metric, ga[i].Key, item, g, w)
				}
			}
			if g, w := ga[i].Distinct(), wa[i].Distinct(); g != w {
				t.Fatalf("%s: range %v %s/%s distinct %d != %d", stage, r, ga[i].Metric, ga[i].Key, g, w)
			}
			for _, phi := range []float64{0.5, 0.99} {
				if g, w := ga[i].Quantile(phi), wa[i].Quantile(phi); g != w {
					t.Fatalf("%s: range %v %s/%s p%v %d != %d", stage, r, ga[i].Metric, ga[i].Key, phi, g, w)
				}
			}
		}
		gt, err := got.Query(context.Background(), QueryRequest{Metric: "top", Key: "global", From: r[0], To: r[1]})
		if err != nil {
			t.Fatal(err)
		}
		wt, err := want.Query(context.Background(), QueryRequest{Metric: "top", Key: "global", From: r[0], To: r[1]})
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range wt.TopK(5) {
			if g := gt.TopK(5)[j]; g != c {
				t.Fatalf("%s: range %v top[%d] %+v != %+v", stage, r, j, g, c)
			}
		}
	}
}

func TestCheckpointRestoreParity(t *testing.T) {
	cfg := ckptGeom()
	src := ckptStore(t, cfg)
	const n = 4000
	for i := 0; i < n; i++ {
		for _, obs := range ckptObs(i) {
			if err := src.ObserveBatch([]Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	meta := CheckpointMeta{Offsets: []uint64{7, 11}, Partitions: []int{0, 3}}
	info, err := WriteCheckpoint(src, dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records == 0 || info.Bytes == 0 {
		t.Fatalf("empty checkpoint written: %+v", info)
	}

	dst := ckptStore(t, cfg)
	man, err := RestoreCheckpoint(dst, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The manifest carries the caller's log position verbatim.
	for i, off := range meta.Offsets {
		if man.Offsets[i] != off {
			t.Fatalf("manifest offsets %v, want %v", man.Offsets, meta.Offsets)
		}
	}
	if len(man.Partitions) != 2 || man.Partitions[1] != 3 || man.Floors != nil {
		t.Fatalf("manifest partitions %v floors %v, want %v and none", man.Partitions, man.Floors, meta.Partitions)
	}
	if man.Records != info.Records {
		t.Fatalf("manifest records %d, checkpoint wrote %d", man.Records, info.Records)
	}
	assertCheckpointAgree(t, dst, src, n-1, "restore parity")

	// A restored store keeps absorbing: sealing must match what advance
	// would have left, so later writes land normally.
	late := ckptObs(n)
	for _, obs := range late {
		if err := dst.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
		if err := src.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	assertCheckpointAgree(t, dst, src, n, "post-restore writes")
}

// One store state writes one checkpoint: the same store written twice,
// and two stores fed the same stream, give byte-identical data files and
// manifests that carry the same data CRC.
func TestCheckpointBytesDeterministic(t *testing.T) {
	cfg := ckptGeom()
	fed := func() *Store {
		st := ckptStore(t, cfg)
		for i := 0; i < 2000; i += 10 {
			var batch []Observation
			for j := i; j < i+10; j++ {
				batch = append(batch, ckptObs(j)...)
			}
			if err := st.ObserveBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	write := func(st *Store) ([]byte, uint32) {
		t.Helper()
		dir := t.TempDir()
		if _, err := WriteCheckpoint(st, dir, CheckpointMeta{Offsets: []uint64{3}}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, checkpointDataName))
		if err != nil {
			t.Fatal(err)
		}
		man, err := ReadCheckpointManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		return data, man.DataCRC
	}
	a, b := fed(), fed()
	first, firstCRC := write(a)
	if len(first) == 0 {
		t.Fatal("empty checkpoint")
	}
	for what, st := range map[string]*Store{"the same store written again": a, "a store fed the same stream": b} {
		data, crc := write(st)
		if !bytes.Equal(data, first) || crc != firstCRC {
			at := 0
			for at < min(len(data), len(first)) && data[at] == first[at] {
				at++
			}
			t.Fatalf("%s: %d bytes (CRC %08x) differ from byte %d of the first checkpoint's %d (CRC %08x)",
				what, len(data), crc, at, len(first), firstCRC)
		}
	}
}

// TestCheckpointSuffixReplayEqualsFullReplay is the crash-recovery oracle:
// a store restored from a mid-stream checkpoint and fed only the log
// suffix past its recorded offsets must equal a store that replayed the
// whole log — the exact contract node recovery and FreezeAtFrom rely on.
func TestCheckpointSuffixReplayEqualsFullReplay(t *testing.T) {
	topic, err := mqlog.NewBroker().CreateTopic("log", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const half = 1000
	produce := func(from, to int) {
		for i := from; i < to; i++ {
			for _, obs := range ckptObs(i) {
				topic.Produce(obs.Key, EncodeObservation(obs))
			}
		}
	}
	produce(0, half)
	cut := topic.EndOffsets()
	produce(half, 2*half)

	// Prefix store: replay [0, cut), checkpoint stamped with cut.
	prefix := ckptStore(t, ckptGeom())
	for pid := 0; pid < topic.Partitions(); pid++ {
		if _, err := ReplayPartitionTo(prefix, topic, pid, 0, cut[pid]); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := WriteCheckpoint(prefix, dir, CheckpointMeta{Offsets: cut}); err != nil {
		t.Fatal(err)
	}

	// Recovered store: restore + suffix replay only.
	recovered := ckptStore(t, ckptGeom())
	man, err := RestoreCheckpoint(recovered, dir)
	if err != nil {
		t.Fatal(err)
	}
	var suffix uint64
	for pid := 0; pid < topic.Partitions(); pid++ {
		rs, err := ReplayPartitionTo(recovered, topic, pid, man.Offsets[pid], topic.EndOffset(pid))
		if err != nil {
			t.Fatal(err)
		}
		suffix += rs.Applied
	}
	if want := uint64(half * 4); suffix != want {
		t.Fatalf("suffix replay applied %d observations, want exactly the suffix %d", suffix, want)
	}

	oracle, _, err := Rebuild(ckptGeom(), ckptProtos(t), topic)
	if err != nil {
		t.Fatal(err)
	}
	assertCheckpointAgree(t, recovered, oracle, 2*half-1, "suffix replay vs full replay")
}

func TestCheckpointRestoreValidation(t *testing.T) {
	src := ckptStore(t, ckptGeom())
	for i := 0; i < 200; i++ {
		for _, obs := range ckptObs(i) {
			if err := src.ObserveBatch([]Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	if _, err := WriteCheckpoint(src, dir, CheckpointMeta{Offsets: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// Geometry mismatch: restoring into different bucketing would merge
	// observations into wrong time ranges silently, so it must refuse.
	narrow := ckptGeom()
	narrow.BucketWidth = 50
	if _, err := RestoreCheckpoint(ckptStore(t, narrow), dir); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("geometry mismatch: got %v, want ErrIncompatible", err)
	}

	// Non-empty store.
	dirty := ckptStore(t, ckptGeom())
	if err := dirty.ObserveBatch([]Observation{ckptObs(0)[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(dirty, dir); err == nil {
		t.Fatal("restore into a non-empty store accepted")
	}

	// Corrupt data file: flip one byte past the frame headers.
	data := filepath.Join(dir, "checkpoint.dat")
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(data, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(ckptStore(t, ckptGeom()), dir); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("corrupt data: got %v, want ErrCorrupt", err)
	}

	// RemoveCheckpoint deletes the pair and is idempotent.
	if err := RemoveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointManifest(dir); !os.IsNotExist(err) {
		t.Fatalf("manifest survives removal: %v", err)
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Fatalf("data file survives removal: %v", err)
	}
	if err := RemoveCheckpoint(dir); err != nil {
		t.Fatalf("second removal: %v", err)
	}
}

func TestFreezeAtFromCheckpointSeedsSuffix(t *testing.T) {
	topic, err := mqlog.NewBroker().CreateTopic("log", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const first, extra = 800, 300
	produce := func(from, to int) {
		for i := from; i < to; i++ {
			for _, obs := range ckptObs(i) {
				topic.Produce(obs.Key, EncodeObservation(obs))
			}
		}
	}
	produce(0, first)

	dir := t.TempDir()
	v1, err := FreezeAtFrom(ckptGeom(), ckptProtos(t), topic, topic.EndOffsets(), "")
	if err != nil {
		t.Fatal(err)
	}
	if v1.FromCheckpoint() || v1.Restored() != 0 {
		t.Fatalf("first freeze claims a checkpoint: %+v", v1)
	}
	if _, err := v1.WriteCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	produce(first, first+extra)
	ends := topic.EndOffsets()
	v2, err := FreezeAtFrom(ckptGeom(), ckptProtos(t), topic, ends, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.FromCheckpoint() || v2.Restored() == 0 {
		t.Fatalf("second freeze ignored the checkpoint: restored=%d from=%v", v2.Restored(), v2.FromCheckpoint())
	}
	if want := uint64(extra * 4); v2.Applied() != want {
		t.Fatalf("seeded freeze applied %d, want exactly the suffix %d", v2.Applied(), want)
	}
	oracleView, err := FreezeAtFrom(ckptGeom(), ckptProtos(t), topic, ends, "")
	if err != nil {
		t.Fatal(err)
	}
	assertCheckpointAgree(t, v2, oracleView, int64(first+extra-1), "seeded freeze vs full recompute")

	// A checkpoint restricted to an owned partition subset, or written
	// under an offset floor, covers [floor, off) per partition — a batch
	// view claims [0, ends), so both must be rejected, not restored. So
	// must one with an offset past ends (it holds records the cut
	// excludes) and one with too few offsets.
	st := ckptStore(t, ckptGeom())
	for i := 0; i < 50; i++ {
		for _, obs := range ckptObs(i) {
			if err := st.ObserveBatch([]Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ahead := append([]uint64(nil), ends...)
	ahead[len(ahead)-1]++
	for name, c := range map[string]struct {
		meta   CheckpointMeta
		floors []uint64
	}{
		"owned-subset":  {meta: CheckpointMeta{Offsets: ends, Partitions: []int{0, 1}}},
		"floored":       {meta: CheckpointMeta{Offsets: ends}, floors: []uint64{1, 1, 1, 1}},
		"ahead-of-ends": {meta: CheckpointMeta{Offsets: ahead}},
		"wrong-width":   {meta: CheckpointMeta{Offsets: ends[:3]}},
	} {
		sub := t.TempDir()
		if _, err := WriteCheckpoint(st, sub, c.meta); err != nil {
			t.Fatal(err)
		}
		if c.floors != nil {
			stampFloors(t, sub, c.floors)
		}
		v, err := FreezeAtFrom(ckptGeom(), ckptProtos(t), topic, ends, sub)
		if err != nil {
			t.Fatal(err)
		}
		if v.FromCheckpoint() {
			t.Fatalf("%s checkpoint seeded a batch view", name)
		}
	}
}

// stampFloors rewrites dir's manifest with per-partition offset floors,
// as an older writer left it: no writer stamps floors now, but a floored
// manifest on disk must still be refused.
func stampFloors(t *testing.T, dir string, floors []uint64) {
	t.Helper()
	man, err := ReadCheckpointManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Floors = floors
	if err := writeManifest(dir, *man); err != nil {
		t.Fatal(err)
	}
}

// writeHandCheckpoint writes a checkpoint of uniq buckets of series "k",
// one record per entry of bkts, each holding one item — the records a
// writer never emits, such as a duplicate bucket, made by hand.
func writeHandCheckpoint(t *testing.T, dir string, cfg Config, bkts ...int64) {
	t.Helper()
	proto := ckptProtos(t)["uniq"]
	var data []byte
	for _, bkt := range bkts {
		syn := proto.New()
		syn.Observe(fmt.Sprintf("u%d", bkt), 0)
		data = appendCheckpointRecord(data, entryKey{metric: "uniq", key: "k"}, bkt, marshal(t, syn))
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointDataName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	man := CheckpointManifest{
		Version:     checkpointVersion,
		BucketWidth: cfg.BucketWidth,
		RingBuckets: cfg.RingBuckets,
		Records:     uint64(len(bkts)),
		DataBytes:   int64(len(data)),
		DataCRC:     crc32.ChecksumIEEE(data),
		Offsets:     []uint64{0},
	}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint naming a bucket twice, or two buckets of a series a whole
// retention window apart, holds what no store could have held: restore
// refuses it as corrupt, in either record order. Buckets one short of a
// window apart are both retained, so that checkpoint restores.
func TestRestoreRefusesBucketsNoWindowHolds(t *testing.T) {
	cfg := ckptGeom()
	ring := int64(cfg.RingBuckets)
	for _, tc := range []struct {
		name string
		bkts []int64
	}{
		{"duplicate bucket", []int64{5, 6, 5}},
		{"a window apart", []int64{5, 5 + ring}},
		{"a window apart, newest first", []int64{5 + ring, 5}},
	} {
		dir := t.TempDir()
		writeHandCheckpoint(t, dir, cfg, tc.bkts...)
		if _, err := RestoreCheckpoint(ckptStore(t, cfg), dir); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s %v: got %v, want ErrCorrupt", tc.name, tc.bkts, err)
		}
	}
	dir := t.TempDir()
	writeHandCheckpoint(t, dir, cfg, 5+ring-1, 5)
	st := ckptStore(t, cfg)
	if _, err := RestoreCheckpoint(st, dir); err != nil {
		t.Fatalf("buckets %d apart: %v", ring-1, err)
	}
	res, err := st.Query(context.Background(), QueryRequest{Metric: "uniq", Key: "k", From: 0, To: (5 + ring) * cfg.BucketWidth})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items() != 2 {
		t.Fatalf("restored series holds %d items, want 2", res.Items())
	}
}

// Buckets further apart than a window, not only a whole window, and a
// bucket index past int64 (its uvarint read as a negative bucket) are
// refused too: no store holds them.
func TestRestoreRefusesBucketsPastTheWindow(t *testing.T) {
	cfg := ckptGeom()
	ring := int64(cfg.RingBuckets)
	for _, bkts := range [][]int64{{5, 5 + ring + 1}, {5 + 3*ring, 6, 7}, {-1}} {
		dir := t.TempDir()
		writeHandCheckpoint(t, dir, cfg, bkts...)
		if _, err := RestoreCheckpoint(ckptStore(t, cfg), dir); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("buckets %v: got %v, want ErrCorrupt", bkts, err)
		}
	}
}
