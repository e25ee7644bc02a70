// Benchmarks regenerating every table and figure of the paper's
// evaluation surface — one testing.B target per experiment in the
// DESIGN.md index. Each benchmark runs the full experiment (workload
// generation + all competitors + scoring); ns/op therefore measures the
// cost of reproducing that artifact end to end, and the experiment's
// accuracy tables themselves are printed by cmd/streambench.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkT1_04 -benchmem
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dstore"
	"repro/internal/experiments"
	"repro/internal/store"
)

// benchTable runs an experiment table builder under the benchmark loop
// and sanity-checks that it produced rows.
func benchTable(b *testing.B, build func() experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := build()
		if len(t.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", t.ID)
		}
	}
}

func BenchmarkT1_01_Sampling(b *testing.B)    { benchTable(b, experiments.T1_01_Sampling) }
func BenchmarkT1_02_Filtering(b *testing.B)   { benchTable(b, experiments.T1_02_Filtering) }
func BenchmarkT1_03_Correlation(b *testing.B) { benchTable(b, experiments.T1_03_Correlation) }
func BenchmarkT1_04_Cardinality(b *testing.B) { benchTable(b, experiments.T1_04_Cardinality) }
func BenchmarkT1_05_Quantiles(b *testing.B)   { benchTable(b, experiments.T1_05_Quantiles) }
func BenchmarkT1_06_Moments(b *testing.B)     { benchTable(b, experiments.T1_06_Moments) }
func BenchmarkT1_07_FrequentElements(b *testing.B) {
	benchTable(b, experiments.T1_07_FrequentElements)
}
func BenchmarkT1_08_Inversions(b *testing.B)   { benchTable(b, experiments.T1_08_Inversions) }
func BenchmarkT1_09_Subsequences(b *testing.B) { benchTable(b, experiments.T1_09_Subsequences) }
func BenchmarkT1_10_PathAnalysis(b *testing.B) { benchTable(b, experiments.T1_10_PathAnalysis) }
func BenchmarkT1_11_Anomaly(b *testing.B)      { benchTable(b, experiments.T1_11_Anomaly) }
func BenchmarkT1_12_TemporalPatterns(b *testing.B) {
	benchTable(b, experiments.T1_12_TemporalPatterns)
}
func BenchmarkT1_13_Prediction(b *testing.B)    { benchTable(b, experiments.T1_13_Prediction) }
func BenchmarkT1_14_Clustering(b *testing.B)    { benchTable(b, experiments.T1_14_Clustering) }
func BenchmarkT1_15_GraphAnalysis(b *testing.B) { benchTable(b, experiments.T1_15_GraphAnalysis) }
func BenchmarkT1_16_BasicCounting(b *testing.B) { benchTable(b, experiments.T1_16_BasicCounting) }
func BenchmarkT1_17_SignificantOnes(b *testing.B) {
	benchTable(b, experiments.T1_17_SignificantOnes)
}
func BenchmarkS2_1_Histograms(b *testing.B) { benchTable(b, experiments.S2_1_Histograms) }
func BenchmarkS2_2_Wavelets(b *testing.B)   { benchTable(b, experiments.S2_2_Wavelets) }
func BenchmarkT2_1_Semantics(b *testing.B)  { benchTable(b, experiments.T2_1_Semantics) }
func BenchmarkT2_2_Grouping(b *testing.B)   { benchTable(b, experiments.T2_2_Grouping) }
func BenchmarkT2_3_Broker(b *testing.B)     { benchTable(b, experiments.T2_3_Broker) }
func BenchmarkT2_4_SketchStore(b *testing.B) {
	benchTable(b, experiments.T2_4_SketchStore)
}
func BenchmarkT3_1_ClusterStore(b *testing.B) {
	benchTable(b, experiments.T3_1_ClusterStore)
}
func BenchmarkF1_Lambda(b *testing.B) { benchTable(b, experiments.F1_Lambda) }
func BenchmarkF1_2_StoreLambda(b *testing.B) {
	benchTable(b, experiments.F1_2_StoreLambda)
}
func BenchmarkA1_ConservativeUpdate(b *testing.B) {
	benchTable(b, experiments.A1_ConservativeUpdate)
}
func BenchmarkA2_SparseDenseCrossover(b *testing.B) {
	benchTable(b, experiments.A2_SparseDenseCrossover)
}
func BenchmarkA3_DoubleHashing(b *testing.B)  { benchTable(b, experiments.A3_DoubleHashing) }
func BenchmarkA4_AckingOverhead(b *testing.B) { benchTable(b, experiments.A4_AckingOverhead) }
func BenchmarkA5_GKCompression(b *testing.B)  { benchTable(b, experiments.A5_GKCompression) }

// ---- Sketch store micro-benchmarks ----
//
// Unlike the T2.4 experiment table (fixed writer pool, wall-clock rates),
// these measure per-operation cost under the standard testing.B parallel
// harness, parameterized by shard count:
//
//	go test -bench=BenchmarkStore -benchmem
//
// SetParallelism(8) runs 8 goroutines per GOMAXPROCS processor, so shard
// scaling is visible even on small containers; on a multi-core box add
// -cpu 1,4,8 for the hardware-parallelism curve.

var storeShardCounts = []int{1, 4, 16, 64}

func newBenchStore(b *testing.B, shards int) *store.Store {
	b.Helper()
	st, err := store.New(store.Config{Shards: shards, BucketWidth: 50, RingBuckets: 64})
	if err != nil {
		b.Fatal(err)
	}
	proto, err := store.NewDistinctProto(12, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.RegisterMetric("uniq", proto); err != nil {
		b.Fatal(err)
	}
	return st
}

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

func BenchmarkStoreIngest(b *testing.B) {
	keys := benchKeys(256)
	items := benchKeys(64)
	for _, shards := range storeShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newBenchStore(b, shards)
			var seq atomic.Int64
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					st.ObserveBatch([]store.Observation{{
						Metric: "uniq",
						Key:    keys[int(i)%len(keys)],
						Item:   items[int(i)%len(items)],
						// One stream-time tick per full key sweep, so each
						// (key, bucket) absorbs ~BucketWidth writes instead
						// of opening a fresh synopsis per write.
						Time: i / int64(len(keys)),
					}})
				}
			})
		})
	}
}

func BenchmarkStoreQuery(b *testing.B) {
	keys := benchKeys(256)
	items := benchKeys(64)
	for _, shards := range storeShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newBenchStore(b, shards)
			// Populate ~16 buckets of history for every key.
			const populate = 200000
			for i := 0; i < populate; i++ {
				st.ObserveBatch([]store.Observation{{
					Metric: "uniq",
					Key:    keys[i%len(keys)],
					Item:   items[i%len(items)],
					Time:   int64(i / len(keys)),
				}})
			}
			horizon := int64(populate / len(keys))
			var seq atomic.Int64
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					from := horizon - 1000 // ~20 buckets
					if from < 0 {
						from = 0
					}
					if _, err := queryPoint(st, "uniq", keys[int(i*31)%len(keys)], from, horizon); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// ---- Partitioned store cluster micro-benchmarks ----
//
// End-to-end per-observation and per-query cost of the multi-node
// serving layer (internal/dstore), parameterized by node count:
//
//	go test -bench=BenchmarkCluster -benchmem
//
// Ingest cost covers the whole pipeline — router encode + batched log
// append + node consume + store apply — amortized per observation by
// draining the cluster inside the timed section. Query cost is the
// owner-routed point query; the merged variant scatter-gathers a key set
// across every node and combines the partials.

var clusterNodeCounts = []int{1, 4, 8}

func newBenchCluster(b *testing.B, nodes int) *dstore.Cluster {
	b.Helper()
	c, err := dstore.New(dstore.Config{
		Partitions: 8,
		Store:      store.Config{Shards: 4, BucketWidth: 50, RingBuckets: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	proto, err := store.NewDistinctProto(12, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterMetric("uniq", proto); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, err := c.StartNode(); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkClusterIngest(b *testing.B) {
	keys := benchKeys(256)
	items := benchKeys(64)
	for _, nodes := range clusterNodeCounts {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			c := newBenchCluster(b, nodes)
			r := c.Router()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.ObserveBatch([]store.Observation{{
					Metric: "uniq",
					Key:    keys[i%len(keys)],
					Item:   items[i%len(items)],
					Time:   int64(i / len(keys)),
				}}); err != nil {
					b.Fatal(err)
				}
			}
			// Drain inside the timer so ns/op is end-to-end (applied by
			// the owning nodes), not just the producer-side append.
			if err := c.Drain(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkClusterQuery(b *testing.B) {
	keys := benchKeys(256)
	items := benchKeys(64)
	for _, nodes := range clusterNodeCounts {
		c := newBenchCluster(b, nodes)
		r := c.Router()
		const populate = 100000
		for i := 0; i < populate; i++ {
			if err := r.ObserveBatch([]store.Observation{{
				Metric: "uniq",
				Key:    keys[i%len(keys)],
				Item:   items[i%len(items)],
				Time:   int64(i / len(keys)),
			}}); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			b.Fatal(err)
		}
		horizon := int64(populate / len(keys))
		from := horizon - 1000 // ~20 buckets
		if from < 0 {
			from = 0
		}
		b.Run(fmt.Sprintf("point/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := queryPoint(r, "uniq", keys[(i*31)%len(keys)], from, horizon); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The same single-key request spelled as a QueryRequest literal.
		b.Run(fmt.Sprintf("typed-point/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := store.QueryRequest{Metric: "uniq", Key: keys[(i*31)%len(keys)], From: from, To: horizon + 1}
				if _, err := r.Query(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("merged16/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			req := store.QueryRequest{Metric: "uniq", Keys: keys[:16], From: from, To: horizon + 1, Aggregate: true}
			for i := 0; i < b.N; i++ {
				if _, err := r.Query(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		// One batched 16-key request vs 16 owner-routed round-trips.
		b.Run(fmt.Sprintf("batched16/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			req := store.QueryRequest{Metric: "uniq", Keys: keys[:16], From: from, To: horizon + 1}
			for i := 0; i < b.N; i++ {
				if _, err := r.Query(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Close before the next node count's sub-benchmarks run, so an
		// earlier cluster's idle node loops don't add scheduler noise to
		// later measurements (Close is idempotent; the b.Cleanup from
		// newBenchCluster becomes a no-op).
		c.Close()
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the benchmarks' point-query shorthand.
func queryPoint(q interface {
	Query(store.QueryRequest) (store.QueryResult, error)
}, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}
