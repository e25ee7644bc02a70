package dstore

import (
	"fmt"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestNodeTracesOncePerPolledBatch: sampled observations cross the log
// as record headers, and the owning node opens one mqlog.fetch ->
// dstore.apply pair for the polled batch that holds them — not one per
// record — with the store's write spans under the apply. A second trace
// polled in the same batch gets no node spans rather than borrowing the
// first one's.
func TestNodeTracesOncePerPolledBatch(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1})
	reg := telemetry.NewTraced(trace.NewTracer(trace.Config{SampleRate: 1}))
	tr := reg.Tracer()
	c.SetTelemetry(reg)
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	first, second := tr.StartRoot("first"), tr.StartRoot("second")
	var batch []store.Observation
	for i := 0; i < 8; i++ {
		tctx := first.Context()
		if i >= 6 {
			tctx = second.Context()
		}
		batch = append(batch, store.Observation{Metric: "uniq", Key: fmt.Sprintf("k%d", i), Item: "u", Time: 1, Trace: tctx})
	}
	// One partition and one flush: the eight records land in one append
	// and the node polls them as one batch.
	if err := c.Router().ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	first.Finish()
	second.Finish()

	spans := func(root *trace.Span) map[string][]trace.SpanSnapshot {
		out := map[string][]trace.SpanSnapshot{}
		for _, ts := range tr.Traces() {
			if ts.ID == root.Context().Trace {
				for _, sp := range ts.Spans {
					out[sp.Name] = append(out[sp.Name], sp)
				}
			}
		}
		return out
	}
	got := spans(first)
	for _, name := range []string{"mqlog.append", "mqlog.fetch", "dstore.apply"} {
		if len(got[name]) != 1 {
			t.Fatalf("first trace holds %d %s spans, want 1 (spans %v)", len(got[name]), name, got)
		}
	}
	apply := got["dstore.apply"][0]
	if apply.Parent != got["mqlog.fetch"][0].ID {
		t.Fatal("dstore.apply is not a child of mqlog.fetch")
	}
	if len(got["store.observe"]) == 0 {
		t.Fatal("first trace holds no store.observe span")
	}
	for _, sp := range got["store.observe"] {
		if sp.Parent != apply.ID {
			t.Fatal("store.observe is not a child of dstore.apply")
		}
	}
	if other := spans(second); len(other["mqlog.fetch"])+len(other["dstore.apply"])+len(other["store.observe"]) != 0 {
		t.Fatalf("second trace got node spans %v from the first trace's poll", other)
	}
}
