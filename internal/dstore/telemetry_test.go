package dstore

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestTelemetryCoversClusterLayers wires a two-node cluster into one
// registry, feeds and queries it, and requires the scrape to expose a
// counter, a gauge and a histogram from the dstore layer, real traffic
// behind the apply counters, and each node's store series under its own
// layer="dstore",node=<name> label set.
func TestTelemetryCoversClusterLayers(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	for i := 0; i < 2; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 200, 5)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Router().Query(context.Background(), store.QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: to + 1}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, kind := range []string{"counter", "gauge", "histogram"} {
		if !regexp.MustCompile(`(?m)^# TYPE analytics_dstore_[a-z_]+ ` + kind + `$`).MatchString(text) {
			t.Errorf("scrape has no %s from layer \"dstore\"", kind)
		}
	}
	sample := func(name string) float64 {
		m := regexp.MustCompile(`(?m)^` + name + `\{layer="dstore"\} (\S+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("scrape is missing %s{layer=\"dstore\"}", name)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	applied, replayed := sample("analytics_dstore_applied_total"), sample("analytics_dstore_replayed_total")
	if applied+replayed <= 0 {
		t.Errorf("dstore applied %v + replayed %v, want > 0", applied, replayed)
	}
	for _, node := range c.NodeNames() {
		if !strings.Contains(text, `analytics_store_observations_total{layer="dstore",node="`+node+`"}`) {
			t.Errorf("scrape has no store counters for node %s", node)
		}
	}
}

// TestTelemetryRebindsAcrossRebalance: a node's store series follow the
// store its recovery rebuilds. After one of two nodes stops, the
// survivor rebuilds its store over every partition (no CheckpointDir,
// so a full replay of the log), and its observations counter must read
// every observation fed — not the half the pre-rebalance store held.
func TestTelemetryRebindsAcrossRebalance(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	for i := 0; i < 2; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	const events = 200
	feed(t, c, events, 64) // three observations per event
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.StopNode("node-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^analytics_store_observations_total\{layer="dstore",node="node-1"\} (\d+)$`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatal(`scrape has no analytics_store_observations_total{layer="dstore",node="node-1"}`)
	}
	if got, want := m[1], strconv.Itoa(3*events); got != want {
		t.Fatalf("survivor's observations_total = %s, want %s (its rebuilt store replays the whole log)", got, want)
	}
}
