package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// fourFamilyStore returns a store with one metric per synopsis family and
// a deterministic dataset across keys k0..k<keys-1>, times [0, span).
func fourFamilyStore(t testing.TB, cfg Config, keys int, span int64) *Store {
	t.Helper()
	st := mustStore(t, cfg)
	hll, _ := NewDistinctProto(12, 7)
	cm, _ := NewFreqProto(512, 4, 7)
	topk, _ := NewTopKProto(32)
	qd, _ := NewQuantileProto(16, 64)
	for name, p := range map[string]Prototype{"uniq": hll, "hits": cm, "top": topk, "lat": qd} {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < span; i++ {
		key := fmt.Sprintf("k%d", int(i)%keys)
		item := fmt.Sprintf("u%d", i%17)
		for _, obs := range []Observation{
			{Metric: "uniq", Key: key, Item: item, Time: i},
			{Metric: "hits", Key: key, Item: item, Value: 1 + uint64(i)%3, Time: i},
			{Metric: "top", Key: key, Item: item, Time: i},
			{Metric: "lat", Key: key, Value: uint64(i) % 1000, Time: i},
		} {
			if err := st.ObserveBatch([]Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestQueryTypedAccessors(t *testing.T) {
	st := fourFamilyStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}, 4, 400)
	res, err := st.Query(context.Background(), QueryRequest{
		Metrics: []string{"uniq", "hits", "top", "lat"},
		Key:     "k0",
		From:    0, To: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("cells %d, want 4", res.Len())
	}
	u, ok := res.At("uniq", "k0")
	if !ok || u.Family() != FamilyDistinct {
		t.Fatalf("uniq cell %v %v", ok, u.Family())
	}
	if got := u.Distinct(); got < 15 || got > 19 {
		t.Fatalf("distinct %d, want ~17", got)
	}
	h, _ := res.At("hits", "k0")
	if h.Family() != FamilyFreq {
		t.Fatalf("hits family %v", h.Family())
	}
	if h.Count("u0") == 0 {
		t.Fatal("freq count 0")
	}
	tk, _ := res.At("top", "k0")
	if tk.Family() != FamilyTopK {
		t.Fatalf("top family %v", tk.Family())
	}
	if top := tk.TopK(3); len(top) != 3 {
		t.Fatalf("topk %v", top)
	}
	if tk.Count("u0") == 0 {
		t.Fatal("topk count accessor 0")
	}
	l, _ := res.At("lat", "k0")
	if l.Family() != FamilyQuantile {
		t.Fatalf("lat family %v", l.Family())
	}
	// k0 sees values 0, 4, ..., 396, so the median sits near 198.
	if med := l.Quantile(0.5); med < 150 || med > 250 {
		t.Fatalf("median %d", med)
	}
	// Cross-family accessors answer zero values, not panics.
	if u.Count("u0") != 0 || u.Quantile(0.5) != 0 || u.TopK(1) != nil || h.Distinct() != 0 {
		t.Fatal("cross-family accessor leaked a value")
	}
	// Raw stays available as the escape hatch.
	if _, ok := u.Raw().(*Distinct); !ok {
		t.Fatalf("raw %T", u.Raw())
	}
}

// The batched multi-key gather must produce answers byte-identical to the
// point path: same prototypes, same ascending bucket visit order, same
// merge split. The batch draws accumulators an aggregate query has just
// grown and returned to the pool; two collections then empty the pools,
// so the point queries draw fresh ones. An answer must not depend on
// which accumulator it was merged in.
func TestQueryBatchMatchesPointByteForByte(t *testing.T) {
	st := fourFamilyStore(t, Config{Shards: 8, BucketWidth: 10, RingBuckets: 64}, 16, 500)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for _, metric := range []string{"uniq", "hits", "top", "lat"} {
		if _, err := st.Query(context.Background(), QueryRequest{Metric: metric, AllKeys: true, Aggregate: true, From: 0, To: 500}); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query(context.Background(), QueryRequest{Metric: metric, Keys: keys, From: 0, To: 500})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		for _, a := range res.Answers() {
			want, err := queryPoint(st, metric, a.Key, 0, 499)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Raw(), want) {
				t.Fatalf("%s/%s: batched answer differs from point answer\n batched %s\n point   %s",
					metric, a.Key, describeAnswer(a.Raw()), describeAnswer(want))
			}
		}
	}
}

// describeAnswer renders what a mismatch report needs to tell two answers
// apart: the synopsis type, its Items and its AppendBinary bytes.
func describeAnswer(syn Synopsis) string {
	b, err := AppendBinary(nil, syn)
	return fmt.Sprintf("%T items %d bytes %x (err %v)", syn, syn.Items(), b, err)
}

// Aggregate answers must equal per-key query + CombineSnapshots in sorted
// key order, byte for byte — the contract the cluster parity test extends
// across nodes.
func TestQueryAggregateMatchesCombine(t *testing.T) {
	st := fourFamilyStore(t, Config{Shards: 8, BucketWidth: 10, RingBuckets: 64}, 8, 400)
	hll, _ := NewDistinctProto(12, 7)
	cm, _ := NewFreqProto(512, 4, 7)
	topk, _ := NewTopKProto(32)
	qd, _ := NewQuantileProto(16, 64)
	protos := map[string]Prototype{"uniq": hll, "hits": cm, "top": topk, "lat": qd}
	// Unsorted, with a duplicate: Normalize sorts and dedups.
	keys := []string{"k3", "k0", "k5", "k0", "k1"}
	for metric, proto := range protos {
		res, err := st.Query(context.Background(), QueryRequest{Metric: metric, Keys: keys, From: 0, To: 400, Aggregate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || !res.Answers()[0].Aggregate {
			t.Fatalf("aggregate cells %d", res.Len())
		}
		var parts []Synopsis
		for _, key := range []string{"k0", "k1", "k3", "k5"} { // sorted, deduped
			syn, err := queryPoint(st, metric, key, 0, 399)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, syn)
		}
		want, err := CombineSnapshots(proto, parts...)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, metric+": aggregate vs per-key + CombineSnapshots", res.Raw(), want)
	}
}

// assertSameAnswer holds two answers to the byte-identity promise: equal
// MarshalBinary bytes and equal readings through every typed accessor.
// The in-memory forms may differ — one compact, one dense.
func assertSameAnswer(t testing.TB, what string, got, want Synopsis) {
	t.Helper()
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Fatalf("%s: MarshalBinary bytes differ", what)
	}
	g, w := NewAnswer("", "", got), NewAnswer("", "", want)
	if g.Family() != w.Family() || g.Items() != w.Items() || g.Distinct() != w.Distinct() ||
		g.Quantile(0.5) != w.Quantile(0.5) || !reflect.DeepEqual(g.TopK(5), w.TopK(5)) {
		t.Fatalf("%s: accessors differ", what)
	}
	for i := 0; i < 17; i++ {
		if item := fmt.Sprintf("u%d", i); g.Count(item) != w.Count(item) {
			t.Fatalf("%s: Count(%s) %d vs %d", what, item, g.Count(item), w.Count(item))
		}
	}
}

func TestQueryRangeHalfOpen(t *testing.T) {
	st := mustStore(t, Config{Shards: 2, BucketWidth: 10, RingBuckets: 32})
	cm, _ := NewFreqProto(64, 2, 1)
	if err := st.RegisterMetric("hits", cm); err != nil {
		t.Fatal(err)
	}
	// One observation per bucket at times 5, 15, 25.
	for _, ts := range []int64{5, 15, 25} {
		if err := st.ObserveBatch([]Observation{{Metric: "hits", Key: "k", Item: "x", Value: 1, Time: ts}}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		from, to int64
		want     uint64
	}{
		{0, 10, 1},  // [0,10) sees only bucket 0
		{0, 11, 2},  // crossing into bucket 1 exposes it (bucket granularity)
		{10, 20, 1}, // bucket 1 alone
		{0, 30, 3},  // everything
		{30, 40, 0}, // beyond the data
	}
	for _, tc := range cases {
		res, err := st.Query(context.Background(), QueryRequest{Metric: "hits", Key: "k", From: tc.from, To: tc.to})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Count("x"); got != tc.want {
			t.Fatalf("[%d,%d): count %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	// An empty range is a request error, matching from > to on the point path.
	if _, err := st.Query(context.Background(), QueryRequest{Metric: "hits", Key: "k", From: 10, To: 10}); err == nil {
		t.Fatal("empty range accepted")
	}
	// Unknown metrics carry the sentinel.
	if _, err := st.Query(context.Background(), QueryRequest{Metric: "nope", Key: "k", From: 0, To: 10}); !errors.Is(err, ErrUnknownMetric) {
		t.Fatalf("unknown metric error: %v", err)
	}
	if _, err := queryPoint(st, "nope", "k", 0, 9); !errors.Is(err, ErrUnknownMetric) {
		t.Fatal("point path lost the sentinel")
	}
}

func TestQueryAllKeys(t *testing.T) {
	st := fourFamilyStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}, 6, 300)
	res, err := st.Query(context.Background(), QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6 {
		t.Fatalf("cells %d, want 6", res.Len())
	}
	// Answers come back in sorted key order.
	for i, a := range res.Answers() {
		if want := fmt.Sprintf("k%d", i); a.Key != want {
			t.Fatalf("cell %d key %s, want %s", i, a.Key, want)
		}
		if a.Items() == 0 {
			t.Fatalf("cell %s empty", a.Key)
		}
	}
}

func TestQueryRequestNormalize(t *testing.T) {
	req, err := QueryRequest{Metric: "m", Keys: []string{"b", "a", "b"}, From: 0, To: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Metrics) != 1 || req.Metrics[0] != "m" || req.Metric != "" {
		t.Fatalf("metrics %v / %q", req.Metrics, req.Metric)
	}
	if len(req.Keys) != 2 || req.Keys[0] != "a" || req.Keys[1] != "b" {
		t.Fatalf("keys %v", req.Keys)
	}
	// Idempotent.
	again, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, again) {
		t.Fatalf("normalize not idempotent: %+v vs %+v", req, again)
	}
	// Duplicate metrics dedup preserving order.
	req, err = QueryRequest{Metrics: []string{"b", "a", "b"}, Key: "k", From: 0, To: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Metrics) != 2 || req.Metrics[0] != "b" || req.Metrics[1] != "a" {
		t.Fatalf("metrics %v", req.Metrics)
	}
	if _, err := (QueryRequest{Metric: "m", Key: "k", From: 5, To: 5}).Normalize(); err == nil {
		t.Fatal("empty range normalized")
	}
}

// sealedLowOccupancyStore is the range benchmarks' dataset: 16 keys over
// 50 buckets with at most one write per key and bucket, all but each
// key's newest bucket sealed. It fails the benchmark — the CI smoke runs
// one iteration — if that history is not held in the compact form, so the
// numbers below are never silently those of dense per-bucket sweeps.
func sealedLowOccupancyStore(b *testing.B) *Store {
	b.Helper()
	st := fourFamilyStore(b, Config{Shards: 8, BucketWidth: 10, RingBuckets: 64}, 16, 500)
	if stats := st.Stats(); stats.Compacted == 0 {
		b.Fatalf("sealed history was not compacted: %+v", stats)
	}
	return st
}

// The batched path must not regress single-key query latency: a one-key
// Query takes the same inline single-shard gather the point path always
// took. Compare with BenchmarkQuerySingleKeyPoint.
func BenchmarkQuerySingleKeyTyped(b *testing.B) {
	st := sealedLowOccupancyStore(b)
	req := QueryRequest{Metric: "uniq", Key: "k3", From: 0, To: 500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySingleKeyPoint(b *testing.B) {
	st := fourFamilyStore(b, Config{Shards: 8, BucketWidth: 10, RingBuckets: 64}, 16, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queryPoint(st, "uniq", "k3", 0, 499); err != nil {
			b.Fatal(err)
		}
	}
}

// One batched 16-key request vs 16 point queries — the lock round-trip
// amortization the serving API exists for.
func BenchmarkQueryMultiKeyBatched(b *testing.B) {
	st := sealedLowOccupancyStore(b)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	req := QueryRequest{Metric: "uniq", Keys: keys, From: 0, To: 500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryMultiKeyPointLoop(b *testing.B) {
	st := fourFamilyStore(b, Config{Shards: 8, BucketWidth: 10, RingBuckets: 64}, 16, 500)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			if _, err := queryPoint(st, "uniq", key, 0, 499); err != nil {
				b.Fatal(err)
			}
		}
	}
}
