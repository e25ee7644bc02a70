package store

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestStoreTelemetryExposition wires a store into a registry, runs
// traffic, and checks the scrape carries the store's counters, gauges
// and latency histograms with real values behind them.
func TestStoreTelemetryExposition(t *testing.T) {
	st, err := New(Config{Shards: 4, BucketWidth: 10, RingBuckets: 64})
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
	reg := telemetry.New()
	st.SetTelemetry(reg)
	for i := int64(0); i < 300; i++ {
		obs := Observation{Metric: "uniq", Key: fmt.Sprintf("k%d", i%4), Item: fmt.Sprintf("u%d", i%29), Time: i}
		if err := st.ObserveBatch([]Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Query(context.Background(), QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: 300}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for pat, want := range map[string]string{
		`analytics_store_observations_total\{layer="store"\} (\d+)`:      "300",
		`analytics_store_entries\{layer="store"\} (\d+)`:                 "4",
		`analytics_store_lock_wait_seconds_count\{layer="store"\} (\d+)`: "300",
		`analytics_store_gather_seconds_count\{layer="store"\} (\d+)`:    "1",
	} {
		m := regexp.MustCompile(`(?m)^` + pat + `$`).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("scrape is missing %s", pat)
			continue
		}
		if m[1] != want {
			t.Errorf("%s = %s, want %s", pat, m[1], want)
		}
	}
}

// benchIngest streams single-metric observations into a fresh store;
// with a live registry the hot path times every shard-lock acquisition,
// without one it pays a single nil check.
func benchIngest(b *testing.B, reg *telemetry.Registry) {
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
	if reg != nil {
		st.SetTelemetry(reg)
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
		obs := Observation{Metric: "uniq", Key: keys[i&15], Item: items[i&127], Time: int64(i)}
		if err := st.ObserveBatch([]Observation{obs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreIngest pins the cost of the telemetry layer on the
// hottest path in the repo: bare is a store with no registry wired (the
// shipped default), instrumented times lock-wait on every shard group.
// The bare variant must stay within noise of the pre-telemetry baseline.
func BenchmarkStoreIngest(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchIngest(b, nil) })
	b.Run("instrumented", func(b *testing.B) { benchIngest(b, telemetry.New()) })
}
