package lambda

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestTelemetryCoversAllLayers wires an architecture — the lambda
// dispatch itself, the mqlog master topic and the speed store — into one
// registry, runs a full ingest/batch/query cycle, and requires the scrape
// to expose at least one counter, one gauge and one histogram from each
// of the three layers, with real traffic behind the counters. The dstore
// layer's share of this check is TestTelemetryCoversClusterLayers.
func TestTelemetryCoversAllLayers(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	arch, err := New(Config{Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	hll, err := store.NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.RegisterMetric("uniq", hll); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	arch.SetTelemetry(reg)

	const span = 200
	for i := int64(0); i < span; i++ {
		obs := store.Observation{
			Metric: "uniq",
			Key:    fmt.Sprintf("k%d", i%4),
			Item:   fmt.Sprintf("u%d", i%13),
			Time:   i,
		}
		if err := arch.ObserveBatch([]store.Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := arch.RunBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Query(context.Background(), store.QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: span}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Family kinds, from the TYPE comments the encoder emits per family.
	typeLine := regexp.MustCompile(`(?m)^# TYPE (analytics_[a-z_]+) (counter|gauge|histogram)$`)
	kinds := map[string]map[string]bool{} // layer -> kind -> present
	for _, m := range typeLine.FindAllStringSubmatch(text, -1) {
		layer := strings.SplitN(strings.TrimPrefix(m[1], "analytics_"), "_", 2)[0]
		if kinds[layer] == nil {
			kinds[layer] = map[string]bool{}
		}
		kinds[layer][m[2]] = true
	}
	for _, layer := range []string{"store", "mqlog", "lambda"} {
		for _, kind := range []string{"counter", "gauge", "histogram"} {
			if !kinds[layer][kind] {
				t.Errorf("scrape has no %s from layer %q", kind, layer)
			}
		}
	}

	// The counters carry the actual traffic, not just registrations.
	sample := func(name, labels string) float64 {
		pat := regexp.MustCompile(`(?m)^` + name + `\{` + labels + `\} (\S+)$`)
		m := pat.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("scrape is missing %s{%s}", name, labels)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s{%s}: %v", name, labels, err)
		}
		return v
	}
	if got := sample("analytics_lambda_appended_total", `layer="lambda"`); got != span {
		t.Errorf("appended_total %v, want %d", got, span)
	}
	if got := sample("analytics_mqlog_produced_records_total", `topic="lambda-master"`); got != span {
		t.Errorf("produced_records_total %v, want %d", got, span)
	}
	if got := sample("analytics_lambda_merges_total", `layer="lambda"`); got <= 0 {
		t.Errorf("merges_total %v, want > 0 after a merged query", got)
	}
	// The speed store registered under its own label set.
	if !strings.Contains(text, `analytics_store_observations_total{layer="lambda_speed"}`) {
		t.Error("scrape has no speed-store counters")
	}
	// Histograms saw the batch handoff.
	if got := sample("analytics_lambda_batch_handoff_seconds_count", `layer="lambda"`); got != 1 {
		t.Errorf("batch_handoff count %v, want 1", got)
	}
}

// TestTelemetryRebindsAcrossHandoff pins the speed-store swap: after
// RunBatch replaces the single-mode speed store, the scrape must follow
// the fresh store (its counters reset to the uncovered tail) rather than
// keep reading the retired one.
func TestTelemetryRebindsAcrossHandoff(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	arch, err := New(Config{Partitions: 2, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	hll, err := store.NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.RegisterMetric("uniq", hll); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	arch.SetTelemetry(reg)

	for i := int64(0); i < 100; i++ {
		if err := arch.ObserveBatch([]store.Observation{{Metric: "uniq", Key: "k", Item: fmt.Sprintf("u%d", i), Time: i}}); err != nil {
			t.Fatal(err)
		}
	}
	observed := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?m)^analytics_store_observations_total\{layer="lambda_speed"\} (\d+)$`).FindStringSubmatch(sb.String())
		if m == nil {
			t.Fatal("scrape has no lambda_speed store counter")
		}
		return m[1]
	}
	if got := observed(); got != "100" {
		t.Fatalf("pre-handoff speed observations %s, want 100", got)
	}
	if _, err := arch.RunBatch(); err != nil {
		t.Fatal(err)
	}
	// The batch view now covers everything: the swapped-in speed store
	// replayed an empty suffix, and the scrape must say 0, not 100.
	if got := observed(); got != "0" {
		t.Fatalf("post-handoff speed observations %s, want 0 (fresh store)", got)
	}
}

// TestTelemetryTracesQueryStages: a traced query records the three merge
// stages — lambda.speed, lambda.batch, lambda.merge — as children of the
// caller's span, with the store's own spans free to nest under
// lambda.speed; a cancelled context aborts the query with an error
// wrapping context.Canceled.
func TestTelemetryTracesQueryStages(t *testing.T) {
	tr := trace.NewTracer(trace.Config{SampleRate: 1, Seed: 7})
	arch := newArch(t, testConfig())
	arch.SetTelemetry(telemetry.NewTraced(tr))
	for i := 0; i < 60; i++ {
		if err := arch.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 40 {
			if _, err := arch.RunBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}

	root := tr.StartRoot("test.query")
	req := store.QueryRequest{Metrics: []string{"hits", "lat"}, AllKeys: true, From: 0, To: 60, Trace: root.Context()}
	if _, err := arch.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	rootID := root.Context().Span
	root.Finish()
	stages := map[string]trace.SpanSnapshot{}
	for _, ts := range tr.Traces() {
		for _, sp := range ts.Spans {
			if strings.HasPrefix(sp.Name, "lambda.") {
				stages[sp.Name] = sp
			}
		}
	}
	for _, name := range []string{"lambda.speed", "lambda.batch", "lambda.merge"} {
		sp, ok := stages[name]
		if !ok {
			t.Fatalf("traced query recorded no %s span (have %v)", name, stages)
		}
		if sp.Parent != rootID {
			t.Errorf("%s parent %v, want the caller's span %v", name, sp.Parent, rootID)
		}
	}
	if !slices.Contains(stages["lambda.batch"].Attrs, trace.Bool("view", true)) {
		t.Errorf("lambda.batch attrs %v, want view=true after a batch run", stages["lambda.batch"].Attrs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req.Trace = trace.Context{}
	if _, err := arch.Query(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error %v, want one wrapping context.Canceled", err)
	}
}
