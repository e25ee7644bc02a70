package store

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/mqlog"
)

func mustStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func registerUniques(t *testing.T, st *Store) {
	t.Helper()
	proto, err := NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidationAndDefaults(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := New(Config{MaxShardBytes: -1}); err == nil {
		t.Fatal("negative byte budget accepted")
	}
	st := mustStore(t, Config{Shards: 5})
	if st.Shards() != 8 {
		t.Fatalf("shards %d, want next power of two 8", st.Shards())
	}
	if st.BucketWidth() != 60 {
		t.Fatalf("default bucket width %d", st.BucketWidth())
	}
}

func TestRegisterMetricValidation(t *testing.T) {
	st := mustStore(t, Config{})
	proto, _ := NewDistinctProto(10, 1)
	if err := st.RegisterMetric("", proto); err == nil {
		t.Fatal("empty metric name accepted")
	}
	if err := st.RegisterMetric("m", nil); err == nil {
		t.Fatal("nil prototype accepted")
	}
	if err := st.RegisterMetric("m", proto); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("m", proto); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := st.ObserveBatch([]Observation{{Metric: "nope", Time: 0}}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := queryPoint(st, "nope", "k", 0, 1); err == nil {
		t.Fatal("query of unknown metric accepted")
	}
}

// The store's answer over a range must match a single sketch fed the same
// stream directly: bucketing + merging adds no error beyond the sketch's.
func TestQueryMatchesDirectSketch(t *testing.T) {
	st := mustStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 100})
	registerUniques(t, st)
	direct, _ := cardinality.NewHyperLogLog(12, 42)
	for i := 0; i < 5000; i++ {
		item := fmt.Sprintf("user%d", i%1300)
		ts := int64(i % 400) // spans 40 buckets
		if err := st.ObserveBatch([]Observation{{Metric: "uniques", Key: "page", Item: item, Value: 1, Time: ts}}); err != nil {
			t.Fatal(err)
		}
		direct.UpdateString(item)
	}
	syn, err := queryPoint(st, "uniques", "page", 0, 399)
	if err != nil {
		t.Fatal(err)
	}
	got := syn.(*Distinct).Estimate()
	want := direct.Estimate()
	if got != want {
		t.Fatalf("merged estimate %f != direct estimate %f", got, want)
	}
}

func TestQueryRangeSelectsBuckets(t *testing.T) {
	st := mustStore(t, Config{Shards: 1, BucketWidth: 10, RingBuckets: 100})
	registerUniques(t, st)
	// One unique item per bucket, buckets 0..9.
	for b := 0; b < 10; b++ {
		obs := Observation{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", b), Time: int64(b * 10)}
		if err := st.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		from, to int64
		want     float64
	}{
		{0, 99, 10},
		{0, 9, 1},
		{30, 59, 3},
		{90, 1000, 1},
		{500, 900, 0},
	} {
		syn, err := queryPoint(st, "uniques", "k", tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		if got := syn.(*Distinct).Estimate(); got < tc.want-0.5 || got > tc.want+0.5 {
			t.Fatalf("range [%d,%d]: estimate %f, want ~%f", tc.from, tc.to, got, tc.want)
		}
	}
	if _, err := queryPoint(st, "uniques", "k", 50, 40); err == nil {
		t.Fatal("inverted range accepted")
	}
	// A never-written series answers empty, not an error.
	syn, err := queryPoint(st, "uniques", "ghost", 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := syn.(*Distinct).Estimate(); got != 0 {
		t.Fatalf("ghost series estimate %f", got)
	}
}

// Bucket expiry mirrors the mqlog partition-retention tests: the ring
// keeps the last RingBuckets buckets, older ones are truncated, and
// writes behind the window are dropped and counted.
func TestRingRetentionExpiresOldBuckets(t *testing.T) {
	st := mustStore(t, Config{Shards: 1, BucketWidth: 10, RingBuckets: 4})
	registerUniques(t, st)
	for b := 0; b < 10; b++ {
		obs := Observation{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", b), Time: int64(b * 10)}
		if err := st.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	// Buckets 0..5 rotated out; only 6..9 retained.
	syn, _ := queryPoint(st, "uniques", "k", 0, 99)
	if got := syn.(*Distinct).Estimate(); got < 3.5 || got > 4.5 {
		t.Fatalf("retained estimate %f, want ~4", got)
	}
	syn, _ = queryPoint(st, "uniques", "k", 0, 59)
	if got := syn.(*Distinct).Estimate(); got != 0 {
		t.Fatalf("expired range estimate %f, want 0", got)
	}
	// A write more than the ring behind the newest bucket is dropped.
	if err := st.ObserveBatch([]Observation{{Metric: "uniques", Key: "k", Item: "late", Time: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().DroppedLate; got != 1 {
		t.Fatalf("dropped-late count %d, want 1", got)
	}
	// A late write still inside the window is applied (copy-on-write path:
	// bucket 6 was sealed when time advanced to buckets 7..9).
	if err := st.ObserveBatch([]Observation{{Metric: "uniques", Key: "k", Item: "late-ok", Time: 60}}); err != nil {
		t.Fatal(err)
	}
	syn, _ = queryPoint(st, "uniques", "k", 60, 69)
	if got := syn.(*Distinct).Estimate(); got < 1.5 || got > 2.5 {
		t.Fatalf("bucket 6 after late write: estimate %f, want ~2", got)
	}
}

// A large forward jump in stream time must expire everything behind the
// new window immediately: queries may never serve history the write path
// would reject, and the expired bytes must come off the shard accounting.
func TestTimeJumpExpiresStaleBuckets(t *testing.T) {
	st := mustStore(t, Config{Shards: 1, BucketWidth: 10, RingBuckets: 4})
	registerUniques(t, st)
	for b := 0; b < 3; b++ {
		st.ObserveBatch([]Observation{{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", b), Time: int64(b * 10)}})
	}
	bytesBefore := st.Stats().Bytes
	if bytesBefore == 0 {
		t.Fatal("no bytes accounted before jump")
	}
	// Jump far past the ring: buckets 0..2 are all behind the new window.
	st.ObserveBatch([]Observation{{Metric: "uniques", Key: "k", Item: "new", Time: 10_000}})
	syn, _ := queryPoint(st, "uniques", "k", 0, 29)
	if got := syn.(*Distinct).Estimate(); got != 0 {
		t.Fatalf("expired history still served: estimate %f", got)
	}
	syn, _ = queryPoint(st, "uniques", "k", 0, 20_000)
	if got := syn.(*Distinct).Estimate(); got < 0.5 || got > 1.5 {
		t.Fatalf("post-jump estimate %f, want ~1", got)
	}
	// Buckets 0..2 were dropped from the entry; accounting must shrink.
	if after := st.Stats().Bytes; after >= bytesBefore {
		t.Fatalf("bytes %d not reduced from %d after expiry", after, bytesBefore)
	}
}

func TestSizeEvictionHonorsByteBudget(t *testing.T) {
	// A dense HLL at precision 12 is ~4KB, so a 20KB budget holds only a
	// few entries per shard; 50 keys on one shard must evict the cold
	// ones. Buckets open sparse, so each key gets 800 distinct items —
	// well past the 512 occupied registers where its HLL turns dense.
	st := mustStore(t, Config{Shards: 1, BucketWidth: 10, RingBuckets: 4, MaxShardBytes: 20 << 10})
	registerUniques(t, st)
	for i := 0; i < 50; i++ {
		var batch []Observation
		for j := 0; j < 800; j++ {
			batch = append(batch, Observation{Metric: "uniques", Key: fmt.Sprintf("k%d", i), Item: fmt.Sprintf("x%d", j), Time: 0})
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Bytes > 20<<10 {
		t.Fatalf("shard bytes %d exceed budget", stats.Bytes)
	}
	if stats.EvictedSize == 0 {
		t.Fatal("no size evictions recorded")
	}
	if stats.Entries+int(stats.EvictedSize) != 50 {
		t.Fatalf("entries %d + evicted %d != 50", stats.Entries, stats.EvictedSize)
	}
	// The most recently written key survived; the coldest was evicted.
	if keys := st.Keys("uniques"); len(keys) != stats.Entries {
		t.Fatalf("Keys returned %d, stats say %d", len(keys), stats.Entries)
	}
	syn, _ := queryPoint(st, "uniques", "k49", 0, 9)
	if syn.(*Distinct).Estimate() == 0 {
		t.Fatal("hottest key evicted")
	}
	syn, _ = queryPoint(st, "uniques", "k0", 0, 9)
	if syn.(*Distinct).Estimate() != 0 {
		t.Fatal("coldest key survived a full budget")
	}
}

func TestStatsCounters(t *testing.T) {
	st := mustStore(t, Config{Shards: 2, BucketWidth: 10, RingBuckets: 4})
	registerUniques(t, st)
	for i := 0; i < 10; i++ {
		st.ObserveBatch([]Observation{{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", i), Time: int64(i)}})
	}
	queryPoint(st, "uniques", "k", 0, 9)
	queryPoint(st, "uniques", "k", 0, 9)
	stats := st.Stats()
	if stats.Observed != 10 || stats.Queries != 2 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Entries != 1 || stats.Bytes <= 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestAllSynopsisFamiliesThroughStore(t *testing.T) {
	st := mustStore(t, Config{Shards: 4, BucketWidth: 100, RingBuckets: 10})
	hll, _ := NewDistinctProto(12, 7)
	freq, _ := NewFreqProto(1024, 4, 7)
	topk, _ := NewTopKProto(16)
	quant, _ := NewQuantileProto(16, 64)
	for name, p := range map[string]Prototype{
		"uniq": hll, "hits": freq, "top": topk, "lat": quant,
	} {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		item := fmt.Sprintf("it%d", i%100)
		ts := int64(i % 500)
		st.ObserveBatch([]Observation{{Metric: "uniq", Key: "k", Item: item, Time: ts}})
		st.ObserveBatch([]Observation{{Metric: "hits", Key: "k", Item: item, Value: 2, Time: ts}})
		st.ObserveBatch([]Observation{{Metric: "top", Key: "k", Item: fmt.Sprintf("it%d", i%7), Time: ts}})
		st.ObserveBatch([]Observation{{Metric: "lat", Key: "k", Value: uint64(i % 1000), Time: ts}})
	}
	if syn, _ := queryPoint(st, "uniq", "k", 0, 499); syn.(*Distinct).Estimate() < 90 {
		t.Fatalf("uniq estimate %f", syn.(*Distinct).Estimate())
	}
	if syn, _ := queryPoint(st, "hits", "k", 0, 499); syn.(*Freq).Count("it0") < 60 {
		t.Fatalf("hits count %d", syn.(*Freq).Count("it0"))
	}
	syn, _ := queryPoint(st, "top", "k", 0, 499)
	top := syn.(*TopK).Top(7)
	if len(top) != 7 {
		t.Fatalf("topk size %d", len(top))
	}
	syn, _ = queryPoint(st, "lat", "k", 0, 499)
	p50 := syn.(*Quantiles).Quantile(0.5)
	if p50 < 300 || p50 > 700 {
		t.Fatalf("p50 %d out of plausible range", p50)
	}
	// Merging across metrics must be rejected, not silently absorbed.
	a, _ := queryPoint(st, "uniq", "k", 0, 499)
	b, _ := queryPoint(st, "lat", "k", 0, 499)
	if err := a.Merge(b); err == nil {
		t.Fatal("cross-family merge accepted")
	}
	if got := len(st.Metrics()); got != 4 {
		t.Fatalf("metrics %d", got)
	}
}

func TestObservationCodecRoundTrip(t *testing.T) {
	obs := Observation{Metric: "m", Key: "key", Item: "item", Value: 12345, Time: 67890}
	got, err := DecodeObservation(EncodeObservation(obs))
	if err != nil {
		t.Fatal(err)
	}
	if got != obs {
		t.Fatalf("round trip %+v != %+v", got, obs)
	}
	empty := Observation{}
	if got, err := DecodeObservation(EncodeObservation(empty)); err != nil || got != empty {
		t.Fatalf("empty round trip: %+v, %v", got, err)
	}
	for _, bad := range [][]byte{nil, {0xff}, {3, 'a'}, EncodeObservation(obs)[:5]} {
		if _, err := DecodeObservation(bad); err == nil {
			t.Fatalf("decoded corrupt input %v", bad)
		}
	}
}

// Speed layer and batch layer converge: a store fed live and a store
// rebuilt from the log's retained prefix answer identically.
func TestRebuildFromLogMatchesLiveStore(t *testing.T) {
	broker := mqlog.NewBroker()
	topic, err := broker.CreateTopic("events", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	live := mustStore(t, cfg)
	registerUniques(t, live)
	for i := 0; i < 2000; i++ {
		obs := Observation{
			Metric: "uniques",
			Key:    fmt.Sprintf("k%d", i%5),
			Item:   fmt.Sprintf("i%d", i%700),
			Time:   int64(i % 300),
		}
		topic.Produce(obs.Key, EncodeObservation(obs))
		if err := live.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	protos := map[string]Prototype{}
	hll, _ := NewDistinctProto(12, 42)
	protos["uniques"] = hll
	rebuilt, applied, err := Rebuild(cfg, protos, topic)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2000 {
		t.Fatalf("applied %d, want 2000", applied)
	}
	for k := 0; k < 5; k++ {
		key := fmt.Sprintf("k%d", k)
		a, _ := queryPoint(live, "uniques", key, 0, 299)
		b, _ := queryPoint(rebuilt, "uniques", key, 0, 299)
		if a.(*Distinct).Estimate() != b.(*Distinct).Estimate() {
			t.Fatalf("key %s: live %f != rebuilt %f", key,
				a.(*Distinct).Estimate(), b.(*Distinct).Estimate())
		}
	}
}

// With retention on the topic, the rebuild covers exactly the retained
// suffix — the batch layer serves what the log still has.
func TestRebuildRespectsLogRetention(t *testing.T) {
	broker := mqlog.NewBroker()
	topic, _ := broker.CreateTopic("events", 1, 100)
	for i := 0; i < 250; i++ {
		obs := Observation{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", i), Time: 0}
		topic.Produce(obs.Key, EncodeObservation(obs))
	}
	hll, _ := NewDistinctProto(12, 42)
	st, applied, err := Rebuild(Config{Shards: 1, BucketWidth: 10, RingBuckets: 10},
		map[string]Prototype{"uniques": hll}, topic)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 100 {
		t.Fatalf("applied %d, want the 100 retained messages", applied)
	}
	syn, _ := queryPoint(st, "uniques", "k", 0, 9)
	est := syn.(*Distinct).Estimate()
	if est < 95 || est > 105 {
		t.Fatalf("rebuilt estimate %f, want ~100", est)
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the tests' point-query shorthand.
func queryPoint(q interface {
	Query(context.Context, QueryRequest) (QueryResult, error)
}, metric, key string, from, to int64) (Synopsis, error) {
	res, err := q.Query(context.Background(), PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}

// TestGroupIndices pins the batch paths' grouping: every index lands in
// its group's run exactly once, runs follow group order, input order
// holds inside a run, and empty groups get empty runs.
func TestGroupIndices(t *testing.T) {
	of := []int{3, 0, 3, 5, 0, 3, 5, 5, 0}
	order, bounds := groupIndices(len(of), 7, func(i int) int { return of[i] })
	want := map[int][]int{0: {1, 4, 8}, 3: {0, 2, 5}, 5: {3, 6, 7}}
	if len(order) != len(of) || len(bounds) != 8 {
		t.Fatalf("order %v, bounds %v", order, bounds)
	}
	for g := 0; g < 7; g++ {
		run := order[bounds[g]:bounds[g+1]]
		if len(run) != len(want[g]) {
			t.Fatalf("group %d run %v, want %v", g, run, want[g])
		}
		for j := range run {
			if run[j] != want[g][j] {
				t.Fatalf("group %d run %v, want %v", g, run, want[g])
			}
		}
	}
	if order, bounds := groupIndices(0, 3, nil); len(order) != 0 || len(bounds) != 4 {
		t.Fatalf("empty input: order %v, bounds %v", order, bounds)
	}
}
