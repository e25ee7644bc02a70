// trace_bench_test.go pins the ingest-path cost of the tracing hooks —
// the numbers behind the checked-in BENCH_trace.json. The contract: a
// store with nothing wired pays nothing measurable over the pre-trace
// baseline (0 allocs, ~1 pointer check per shard group), a traced
// registry with untraced observations pays only the registry's lock-wait
// timing and the Context.Valid checks, and only a sampled observation
// buys the span machinery.
package store

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchIngestTraced is benchIngest with a registry carrying tr wired (none
// when tr is nil) and a fraction of observations carrying a sampled trace
// context (sampleEvery == 0 means none do).
func benchIngestTraced(b *testing.B, tr *trace.Tracer, sampleEvery int) {
	b.Helper()
	st, err := New(Config{Shards: 8, BucketWidth: 10, RingBuckets: 64})
	if err != nil {
		b.Fatal(err)
	}
	hll, err := NewDistinctProto(12, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.RegisterMetric("uniq", hll); err != nil {
		b.Fatal(err)
	}
	if tr != nil {
		st.SetTelemetry(telemetry.NewTraced(tr))
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	items := make([]string, 128)
	for i := range items {
		items[i] = fmt.Sprintf("u%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := [1]Observation{{Metric: "uniq", Key: keys[i&15], Item: items[i&127], Time: int64(i)}}
		if sampleEvery > 0 && i%sampleEvery == 0 {
			root := tr.StartSampled("analytics.observe")
			batch[0].Trace = root.Context()
			err = st.ObserveBatch(batch[:])
			root.Finish()
		} else {
			err = st.ObserveBatch(batch[:])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreIngestTraced is the tracing cost ladder. "off" must
// match BenchmarkStoreIngest/bare (same harness, nil tracer): that pair
// is the 0-extra-allocs, <=1% ns/op acceptance BENCH_trace.json pins.
func BenchmarkStoreIngestTraced(b *testing.B) {
	cfg := trace.Config{SampleRate: 1, Seed: 7}
	b.Run("off", func(b *testing.B) { benchIngestTraced(b, nil, 0) })
	b.Run("wired-untraced", func(b *testing.B) { benchIngestTraced(b, trace.NewTracer(cfg), 0) })
	b.Run("sampled-1-in-1024", func(b *testing.B) { benchIngestTraced(b, trace.NewTracer(cfg), 1024) })
	b.Run("sampled-every", func(b *testing.B) { benchIngestTraced(b, trace.NewTracer(cfg), 1) })
}

// TestObserveBatchAllocGate: a one-observation ObserveBatch into a
// resident entry allocates nothing, whether nothing is wired or a traced
// registry is wired and the observation is untraced, at any shard count. A single observation skips the grouping sort, whose
// buffer cost 1 allocation per call.
func TestObserveBatchAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Tracer
	}{{"no-tracer", nil}, {"wired-untraced", trace.NewTracer(trace.Config{SampleRate: 1})}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := New(Config{Shards: 64, BucketWidth: 10, RingBuckets: 64})
			if err != nil {
				t.Fatal(err)
			}
			hll, err := NewDistinctProto(12, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.RegisterMetric("uniq", hll); err != nil {
				t.Fatal(err)
			}
			if tc.tr != nil {
				st.SetTelemetry(telemetry.NewTraced(tc.tr))
			}
			batch := []Observation{{Metric: "uniq", Key: "k0", Item: "u0", Time: 1}}
			if err := st.ObserveBatch(batch); err != nil { // make the entry resident
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := st.ObserveBatch(batch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("one-observation ObserveBatch: %.1f allocations, want 0", allocs)
			}
		})
	}
}
