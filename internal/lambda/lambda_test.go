package lambda

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

func storeGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
}

func testConfig() Config {
	return Config{Partitions: 4, Store: storeGeom()}
}

// testProtos returns the four synopsis families one Lambda code path must
// serve: counters, cardinality, top-k, quantiles.
func testProtos(t testing.TB) map[string]store.Prototype {
	t.Helper()
	protos := map[string]store.Prototype{}
	mk := func(name string, p store.Prototype, err error) {
		if err != nil {
			t.Fatal(err)
		}
		protos[name] = p
	}
	cm, err := store.NewFreqProto(256, 4, 11)
	mk("hits", cm, err)
	hll, err := store.NewDistinctProto(12, 11)
	mk("uniq", hll, err)
	// k=64 counters over a <=48-key item universe: Space-Saving runs in
	// its exact regime, so merged halves must equal a one-pass summary.
	ss, err := store.NewTopKProto(64)
	mk("top", ss, err)
	qd, err := store.NewQuantileProto(16, 256)
	mk("lat", qd, err)
	return protos
}

func newArch(t testing.TB, cfg Config) *Architecture {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	for name, proto := range testProtos(t) {
		if err := a.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestLambdaValidation(t *testing.T) {
	if _, err := New(Config{Store: store.Config{Shards: -1}}); err == nil {
		t.Fatal("invalid store config accepted")
	}
	a := newArch(t, testConfig())
	if err := a.ObserveBatch([]store.Observation{{Metric: "nope", Key: "k", Time: 0}}); err == nil {
		t.Fatal("unregistered metric accepted")
	}
	if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k", Time: -1}}); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "", Item: "u", Time: 0}}); err == nil {
		t.Fatal("empty key accepted (the cluster router rejects it; backends must agree)")
	}
	if got := a.MasterLen(); got != 0 {
		t.Fatalf("rejected appends reached the master dataset: %d", got)
	}
	if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k", Item: "u", Value: 1, Time: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMetric("late", testProtos(t)["hits"]); err == nil {
		t.Fatal("metric registration after first append accepted")
	}
	if _, err := queryPoint(a, "nope", "k", 0, 10); err == nil {
		t.Fatal("query on unregistered metric accepted")
	}
}

// TestLambdaRegisterRacesFirstWrite: a registration racing the first
// write either loses (the metric is refused) or lands in the speed store
// that first write builds. A metric accepted by the registry but absent
// from the speed store would let a write reach the immutable master log
// and then fail, breaking all-or-nothing.
func TestLambdaRegisterRacesFirstWrite(t *testing.T) {
	protos := testProtos(t)
	for run := 0; run < 300; run++ {
		a, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RegisterMetric("hits", protos["hits"]); err != nil {
			t.Fatal(err)
		}
		var regErr error
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			regErr = a.RegisterMetric("m1", protos["hits"])
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k", Item: "u", Value: 1}}); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		before := a.MasterLen()
		err = a.ObserveBatch([]store.Observation{{Metric: "m1", Key: "k", Item: "u", Value: 1}})
		after := a.MasterLen()
		a.Close()
		if err != nil && after != before {
			t.Fatalf("run %d: a failed write reached the master log (MasterLen %d -> %d): %v", run, before, after, err)
		}
		if regErr == nil && err != nil {
			t.Fatalf("run %d: m1 registered, yet its write failed: %v", run, err)
		}
	}
}

func hitCount(t *testing.T, syn store.Synopsis, item string) uint64 {
	t.Helper()
	return syn.(*store.Freq).Count(item)
}

func TestQueryMergesBatchAndSpeed(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 10; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "clicks", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := a.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Applied != 10 {
		t.Fatalf("batch info %+v", info)
	}
	for i := 10; i < 15; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "clicks", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := queryPoint(a, "hits", "clicks", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, merged, "u"); got != 15 {
		t.Fatalf("merged count %d, want 15", got)
	}
	batchOnly, err := a.BatchOnlyQuery("hits", "clicks", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, batchOnly, "u"); got != 10 {
		t.Fatalf("batch-only count %d, want 10", got)
	}
	if s := a.Staleness(); s != 5 {
		t.Fatalf("staleness %d, want 5", s)
	}
	if a.MasterLen() != 15 || a.Appended() != 15 {
		t.Fatalf("master len %d appended %d, want 15", a.MasterLen(), a.Appended())
	}
}

func TestRunBatchTruncatesSpeedLayer(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 100; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: fmt.Sprintf("k%d", i%10), Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	// The speed layer holds exactly the uncovered suffix: nothing.
	if obs := a.Stats().Observed; obs != 0 {
		t.Fatalf("speed layer retains %d observations after batch handoff", obs)
	}
	// Merged query must not double count.
	syn, err := queryPoint(a, "hits", "k0", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, syn, "u"); got != 10 {
		t.Fatalf("double counting: %d, want 10", got)
	}
	// A second boundary with a live tail: only the tail stays realtime.
	for i := 100; i < 130; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k0", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	for i := 130; i < 140; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k0", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if obs := a.Stats().Observed; obs != 10 {
		t.Fatalf("speed layer holds %d, want the 10-event tail", obs)
	}
	if s := a.Staleness(); s != 10 {
		t.Fatalf("staleness %d, want 10", s)
	}
}

func TestBatchOnlyGoesStale(t *testing.T) {
	a := newArch(t, testConfig())
	if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "x", Item: "u", Value: 1, Time: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for i := 1; i <= 50; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "x", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
		b, err := a.BatchOnlyQuery("hits", "x", 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := queryPoint(a, "hits", "x", 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if hitCount(t, b, "u") != hitCount(t, m, "u") {
			stale++
		}
	}
	if stale != 50 {
		t.Fatalf("batch-only should lag merged for all 50 post-batch appends, got %d", stale)
	}
}

// oracleStore rebuilds a single store from the whole master log — the
// replay-everything oracle merged answers must match.
func oracleStore(t testing.TB, a *Architecture) *store.Store {
	t.Helper()
	st, _, err := store.Rebuild(a.cfg.Store, testProtos(t), a.Topic())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertParity compares merged lambda answers against the oracle for
// every key: counters, cardinality and top-k exactly, quantiles within a
// merged q-digest's rank-error bound against the exact value list.
func assertParity(t *testing.T, a *Architecture, o *store.Store, values map[string][]uint64, to int64, context string) {
	t.Helper()
	keys := o.Keys("hits")
	if len(keys) == 0 {
		t.Fatalf("%s: oracle has no keys", context)
	}
	for _, key := range keys {
		merged, err := queryPoint(a, "hits", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := queryPoint(o, "hits", key, 0, to)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if g, w := hitCount(t, merged, item), want.(*store.Freq).Count(item); g != w {
				t.Fatalf("%s: key %s item %s: merged count %d != oracle %d", context, key, item, g, w)
			}
		}
		mu, err := queryPoint(a, "uniq", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		wu, _ := queryPoint(o, "uniq", key, 0, to)
		if g, w := mu.(*store.Distinct).Estimate(), wu.(*store.Distinct).Estimate(); g != w {
			t.Fatalf("%s: key %s: merged cardinality %v != oracle %v", context, key, g, w)
		}
		mt, err := queryPoint(a, "top", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		wt, _ := queryPoint(o, "top", key, 0, to)
		if g, w := topCounts(mt), topCounts(wt); !sameCounts(g, w) {
			t.Fatalf("%s: key %s: merged top-k %v != oracle %v", context, key, g, w)
		}
		ml, err := queryPoint(a, "lat", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		vals := values[key]
		if len(vals) == 0 {
			continue
		}
		sorted := append([]uint64(nil), vals...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		n := len(sorted)
		// Rank tolerance: each constituent q-digest guarantees ~logU/k
		// rank error; the batch+speed merge doubles the constituents, so
		// accept 2x with slack. k=256, logU=16 -> 0.0625 per digest.
		tol := int(0.2*float64(n)) + 1
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			got := ml.(*store.Quantiles).Quantile(phi)
			lo, hi := rankRange(sorted, got)
			target := int(phi * float64(n))
			if lo-tol > target || hi+tol < target {
				t.Fatalf("%s: key %s phi %.2f: answer %d has rank [%d,%d], target %d +/- %d",
					context, key, phi, got, lo, hi, target, tol)
			}
		}
	}
}

func topCounts(syn store.Synopsis) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range syn.(*store.TopK).Top(64) {
		out[c.Item] = c.Count
	}
	return out
}

func sameCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// rankRange returns the index range [lo, hi) positions of x in sorted.
func rankRange(sorted []uint64, x uint64) (int, int) {
	lo, hi := 0, len(sorted)
	for i, v := range sorted {
		if v < x {
			lo = i + 1
		}
		if v <= x {
			hi = i + 1
		}
	}
	return lo, hi
}

// TestMergedMatchesOracleAcrossBoundaries is the batch/speed boundary
// property test (the F1.2 invariant, synopsis_prop_test.go style): after
// an arbitrary interleaving of appends and batch recomputes, Query equals
// a replay-everything oracle for every family, at every checkpoint.
func TestMergedMatchesOracleAcrossBoundaries(t *testing.T) {
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			a := newArch(t, testConfig())
			rng := workload.NewRNG(uint64(1000 + trial))
			z := workload.NewZipf(rng, 24, 1.2)
			values := map[string][]uint64{}
			now := int64(0)
			boundaries := 0
			for i := 0; i < 4000; i++ {
				key := fmt.Sprintf("k%d", z.Draw())
				item := fmt.Sprintf("u%d", rng.Uint64()%48)
				val := rng.Uint64() % 40000
				now = int64(i)
				for _, obs := range []store.Observation{
					{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
					{Metric: "uniq", Key: key, Item: item, Time: now},
					{Metric: "top", Key: key, Item: item, Time: now},
					{Metric: "lat", Key: key, Value: val, Time: now},
				} {
					if err := a.ObserveBatch([]store.Observation{obs}); err != nil {
						t.Fatal(err)
					}
				}
				values[key] = append(values[key], val)
				// Arbitrary interleaving: batch runs fire randomly, ~1/500.
				if rng.Uint64()%500 == 0 {
					if _, err := a.RunBatch(); err != nil {
						t.Fatal(err)
					}
					boundaries++
					assertParity(t, a, oracleStore(t, a), values, now, fmt.Sprintf("post-batch %d", boundaries))
				}
				if i%1499 == 1498 {
					assertParity(t, a, oracleStore(t, a), values, now, "mid-stream")
				}
			}
			for ; boundaries < 3; boundaries++ {
				if _, err := a.RunBatch(); err != nil {
					t.Fatal(err)
				}
				assertParity(t, a, oracleStore(t, a), values, now, "final boundary")
			}
		})
	}
}

// TestLambdaParityUnderConcurrentIngest is the named -race CI target (the
// F1.2 concurrency leg): writers append while batch recomputes and
// queries run; after the dust settles, merged answers equal the oracle
// for the order-independent families (counters, cardinality).
func TestLambdaParityUnderConcurrentIngest(t *testing.T) {
	a := newArch(t, testConfig())
	const writers = 4
	const perWriter = 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := workload.NewRNG(uint64(7000 + w))
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("k%d", rng.Uint64()%16)
				obs := store.Observation{Metric: "hits", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%8), Value: 1, Time: int64(i)}
				if err := a.ObserveBatch([]store.Observation{obs}); err != nil {
					t.Error(err)
					return
				}
				obs.Metric = "uniq"
				if err := a.ObserveBatch([]store.Observation{obs}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := a.RunBatch(); err != nil {
				t.Error(err)
				return
			}
			if _, err := queryPoint(a, "hits", "k0", 0, int64(perWriter)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	o := oracleStore(t, a)
	for k := 0; k < 16; k++ {
		key := fmt.Sprintf("k%d", k)
		merged, err := queryPoint(a, "hits", key, 0, perWriter)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := queryPoint(o, "hits", key, 0, perWriter)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if g, w := hitCount(t, merged, item), want.(*store.Freq).Count(item); g != w {
				t.Fatalf("key %s item %s: merged %d != oracle %d", key, item, g, w)
			}
		}
		mu, err := queryPoint(a, "uniq", key, 0, perWriter)
		if err != nil {
			t.Fatal(err)
		}
		wu, _ := queryPoint(o, "uniq", key, 0, perWriter)
		if g, w := mu.(*store.Distinct).Estimate(), wu.(*store.Distinct).Estimate(); g != w {
			t.Fatalf("key %s: merged cardinality %v != oracle %v", key, g, w)
		}
	}
}

func TestQueryBeforeFirstBatchServesSpeedOnly(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 20; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: "k", Item: "u", Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	syn, err := queryPoint(a, "hits", "k", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, syn, "u"); got != 20 {
		t.Fatalf("pre-batch merged count %d, want 20", got)
	}
	b, err := a.BatchOnlyQuery("hits", "k", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, b, "u"); got != 0 {
		t.Fatalf("batch-only before first batch %d, want 0", got)
	}
	if a.BatchView() != nil {
		t.Fatal("batch view exists before RunBatch")
	}
	if s := a.Staleness(); s != 20 {
		t.Fatalf("staleness %d, want 20", s)
	}
}

func BenchmarkLambdaAppend(b *testing.B) {
	a := newArch(b, testConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), Item: "u", Value: 1, Time: int64(i / 64)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// lambdaBatch returns a 256-observation write over 64 keys, the
// daemon's batch shape: each key written four times.
func lambdaBatch() []store.Observation {
	batch := make([]store.Observation, 256)
	for i := range batch {
		batch[i] = store.Observation{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), Item: "u", Value: 1}
	}
	return batch
}

// BenchmarkLambdaAppendBatch is BenchmarkLambdaAppend at the daemon's
// write shape: 256 observations a call over 64 pre-built keys, so key
// formatting is not timed. Time advances one unit a call.
func BenchmarkLambdaAppendBatch(b *testing.B) {
	a := newArch(b, testConfig())
	batch := lambdaBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Time = int64(i)
		}
		if err := a.ObserveBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLambdaObserveBatchAllocGate: a warm 256-observation ObserveBatch
// encodes into the log writer's reused scratch, appends into the log's
// chunks and groups by partition and by shard in buffers from a free
// list, so it allocates less than once per batch, amortized. Each
// grouping's own buffer made it 2; one encoded value per observation
// would make it 258.
func TestLambdaObserveBatchAllocGate(t *testing.T) {
	a := newArch(t, testConfig())
	batch := lambdaBatch()
	if err := a.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Architecture.ObserveBatch of %d observations: %.0f allocations", len(batch), allocs)
	if allocs > 0 {
		t.Fatalf("Architecture.ObserveBatch of %d observations: %.0f allocations, budget 0", len(batch), allocs)
	}
}

func BenchmarkLambdaMergedQuery(b *testing.B) {
	a := newArch(b, testConfig())
	for i := 0; i < 50000; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), Item: fmt.Sprintf("u%d", i%8), Value: 1, Time: int64(i / 64)}}); err != nil {
			b.Fatal(err)
		}
		if i == 25000 {
			if _, err := a.RunBatch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	to := int64(50000 / 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queryPoint(a, "hits", fmt.Sprintf("k%d", i%64), 0, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambdaRunBatch100k(b *testing.B) {
	a := newArch(b, testConfig())
	for i := 0; i < 100000; i++ {
		if err := a.ObserveBatch([]store.Observation{{Metric: "hits", Key: fmt.Sprintf("k%d", i%1000), Item: "u", Value: 1, Time: int64(i / 1000)}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RunBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the tests' point-query shorthand.
func queryPoint(q interface {
	Query(context.Context, store.QueryRequest) (store.QueryResult, error)
}, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(context.Background(), store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}
