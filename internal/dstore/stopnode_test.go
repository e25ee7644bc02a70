package dstore

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestStopNodeDropsSeries: a stopped node leaves the scrape and the heap.
// No node=<name> series survives StopNode — the survivor serves the dead
// node's partitions now, so its series would double-count them under
// sum() — and nothing keeps the dead store reachable.
func TestStopNodeDropsSeries(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	for i := 0; i < 2; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, c, 200, 61)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(c.Node("node-0").currentStore(), func(*store.Store) { close(collected) })
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
	scrape := sb.String()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.Contains(line, `node="node-0"`) {
			t.Fatalf("stopped node still scraped: %s", line)
		}
	}
	if !strings.Contains(scrape, `analytics_store_entries{layer="dstore",node="node-1"}`) {
		t.Fatal("the survivor's store series are gone too")
	}

	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the stopped node's store is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestStopNodeCountersNeverFall: the cluster's _total counters (and the
// Stats fields behind them) count over the cluster's life, so neither a
// StopNode nor a rejoin moves one backwards — a falling counter reads
// as a process reset to Prometheus.
func TestStopNodeCountersNeverFall(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4, CheckpointDir: t.TempDir()})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	for i := 0; i < 2; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	feed(t, c, 300, 62)
	c.Router().Flush()
	c.Topic().Produce("k1", []byte{0xff}) // poison, for a nonzero rejected count
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	names := []string{"applied", "replayed", "rejected", "recoveries", "checkpoint_restores"}
	sample := func() []uint64 {
		st := c.Stats()
		out := []uint64{st.Applied, st.Replayed, st.Rejected, st.Recoveries, st.CheckpointRestores}
		for i, name := range names {
			if got := reg.Counter("analytics_dstore_"+name+"_total", "", "layer", "dstore").Value(); got != out[i] {
				t.Fatalf("analytics_dstore_%s_total = %d, Stats has %d", name, got, out[i])
			}
		}
		return out
	}
	prev := sample()
	if prev[0] == 0 || prev[2] == 0 {
		t.Fatalf("nothing applied or rejected before the kill: %v", prev)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"StopNode", func() error { return c.StopNode("node-0") }},
		{"rejoin", func() error { _, err := c.StartNode(); return err }},
		{"more ingest", func() error { feed(t, c, 100, 63); return nil }},
	} {
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		cur := sample()
		for i, name := range names {
			if cur[i] < prev[i] {
				t.Errorf("after %s: %s fell from %d to %d", step.name, name, prev[i], cur[i])
			}
		}
		prev = cur
	}
}
