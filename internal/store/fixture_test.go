package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fixtureDir holds a checkpoint written by an earlier build of the store
// from fixtureStore: the bytes every later build must still write for the
// same store state, and still restore.
const fixtureDir = "testdata/checkpoint-v1"

// fixtureStore builds the deterministic store behind fixtureDir: all four
// families at small geometries, over three keys and fourteen buckets of
// width 10 in an 8-bucket window, so that buckets 0–5 have expired.
// Most buckets are small enough for the compact forms (sparse HyperLogLog
// and Count-Min, packed q-digest, flat top-k); key "c" writes enough
// distinct items into buckets 10 and 12 to turn them dense. Bucket 9 of
// key "a" takes one late write per family after it was sealed.
func fixtureStore(t testing.TB) *Store {
	t.Helper()
	st := mustStore(t, Config{Shards: 2, BucketWidth: 10, RingBuckets: 8})
	uniq, _ := NewDistinctProto(8, 7)
	hits, _ := NewFreqProto(32, 2, 7)
	top, _ := NewTopKProto(4)
	lat, _ := NewQuantileProto(10, 8)
	for name, p := range map[string]Prototype{"uniq": uniq, "hits": hits, "top": top, "lat": lat} {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	obs := func(key string, i, bkt int) []Observation {
		now := int64(bkt*10 + i%10)
		item := fmt.Sprintf("i%d", (i*7+bkt)%11)
		return []Observation{
			{Metric: "uniq", Key: key, Item: item, Time: now},
			{Metric: "hits", Key: key, Item: item, Value: uint64(1 + i%3), Time: now},
			{Metric: "top", Key: key, Item: item, Time: now},
			{Metric: "lat", Key: key, Value: uint64(i*131+bkt*17) % 1024, Time: now},
		}
	}
	for bkt := 0; bkt < 14; bkt++ {
		var batch []Observation
		for k, key := range []string{"a", "b", "c"} {
			n := 3 + (bkt+k)%4
			if key == "c" && bkt%2 == 0 && bkt >= 10 {
				n = 40
			}
			for i := 0; i < n; i++ {
				o := obs(key, i, bkt)
				if n == 40 {
					for j := range o {
						o[j].Item = fmt.Sprintf("wide%d", i)
					}
				}
				batch = append(batch, o...)
			}
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ObserveBatch(obs("a", 5, 9)); err != nil { // late, into sealed bucket 9
		t.Fatal(err)
	}
	return st
}

// TestCheckpointFixtureFromParent holds this build to a checkpoint an
// earlier build wrote (fixtureDir): a checkpoint of fixtureStore
// reproduces its data file byte for byte, and the store restored from the
// fixture answers every key of every metric over every bucket-aligned
// [from, to) with the bytes the live store answers.
func TestCheckpointFixtureFromParent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(fixtureDir, checkpointDataName))
	if err != nil {
		t.Fatal(err)
	}
	live := fixtureStore(t)
	dir := t.TempDir()
	if _, err := WriteCheckpoint(live, dir, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointDataName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("checkpoint of fixtureStore: %d bytes differ from byte %d of the fixture's %d", len(got), at, len(want))
	}

	restored := mustStore(t, live.cfg)
	for name, p := range live.metrics.Table() {
		if err := restored.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RestoreCheckpoint(restored, fixtureDir); err != nil {
		t.Fatal(err)
	}
	checkHeld(t, restored)
	if g, w := restored.Stats(), live.Stats(); g.Entries != w.Entries || g.Bytes != w.Bytes {
		t.Fatalf("restored %d entries / %d bytes, live %d / %d", g.Entries, g.Bytes, w.Entries, w.Bytes)
	}
	cells := 0
	for _, metric := range []string{"uniq", "hits", "top", "lat"} {
		for _, key := range []string{"a", "b", "c"} {
			for from := int64(0); from <= 15; from++ {
				for to := from + 1; to <= 15; to++ {
					req := QueryRequest{Metric: metric, Key: key, From: from * 10, To: to * 10}
					g, err := restored.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					w, err := live.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(marshal(t, g.Raw()), marshal(t, w.Raw())) {
						t.Fatalf("%s/%s buckets [%d, %d): the restored fixture answers other bytes than the live store", metric, key, from, to)
					}
					cells++
				}
			}
		}
	}
	t.Logf("%d fixture bytes, %d answers compared", len(want), cells)
}
