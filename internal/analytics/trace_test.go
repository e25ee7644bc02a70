// trace_test.go pins the tracing decorator's two contracts: wrapping a
// backend with a tracer changes no answer (the conformance dataset
// reads back identically, traced vs bare), and a sampled cluster ingest
// stitches one trace across the log — Instrument root, router append,
// node fetch, node apply, store observe.
package analytics

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dstore"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// tracedTracer samples everything and calls every query slow, the
// maximally invasive configuration: every ingest carries a context,
// every query root is kept and slow-logged.
func tracedTracer() *trace.Tracer {
	return trace.NewTracer(trace.Config{
		SampleRate:    1,
		SlowThreshold: time.Nanosecond,
		Seed:          0x5EED,
	})
}

// TestTracedBackendsAnswerLikeBare runs every serving backend twice on
// the conformance dataset — bare, and wired with a registry carrying a
// sample-everything tracer, wrapped in Instrument over that registry —
// and requires identical answers. Tracing is observation, never
// computation.
func TestTracedBackendsAnswerLikeBare(t *testing.T) {
	bare := newHarnesses(t, false)
	traced := newHarnesses(t, true)
	for i := range bare {
		t.Run(bare[i].name, func(t *testing.T) {
			tr := traced[i].reg.Tracer()
			tbe := Instrument(traced[i].be, traced[i].reg, traced[i].name)

			for _, h := range []struct {
				be    Backend
				drain func() error
			}{{bare[i].be, bare[i].drain}, {tbe, traced[i].drain}} {
				registerFamilies(t, h.be)
				feed(t, h.be, conformanceSpan)
				if err := h.drain(); err != nil {
					t.Fatal(err)
				}
			}

			req := store.QueryRequest{
				Metrics: []string{"uniq", "hits", "top", "lat"},
				AllKeys: true,
				From:    0, To: conformanceSpan,
			}
			want, err := bare[i].be.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tbe.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("traced answered %d cells, bare %d", got.Len(), want.Len())
			}
			for j, a := range got.Answers() {
				b := want.Answers()[j]
				if a.Metric != b.Metric || a.Key != b.Key {
					t.Fatalf("cell %d is %s/%s, bare has %s/%s", j, a.Metric, a.Key, b.Metric, b.Key)
				}
				switch a.Metric {
				case "uniq":
					if a.Distinct() != b.Distinct() {
						t.Errorf("%s/%s: distinct %d vs %d", a.Metric, a.Key, a.Distinct(), b.Distinct())
					}
				case "hits":
					for u := 0; u < 13; u++ {
						item := fmt.Sprintf("u%d", u)
						if a.Count(item) != b.Count(item) {
							t.Errorf("%s/%s: count(%s) %d vs %d", a.Metric, a.Key, item, a.Count(item), b.Count(item))
						}
					}
				case "top":
					if !reflect.DeepEqual(a.TopK(5), b.TopK(5)) {
						t.Errorf("%s/%s: topk %v vs %v", a.Metric, a.Key, a.TopK(5), b.TopK(5))
					}
				case "lat":
					if a.Quantile(0.5) != b.Quantile(0.5) {
						t.Errorf("%s/%s: median %d vs %d", a.Metric, a.Key, a.Quantile(0.5), b.Quantile(0.5))
					}
				}
			}

			// The tracer actually saw the traffic: every batch opened a
			// root, and the slow threshold put the queries in the slow log.
			if st := tr.Stats(); st.Started == 0 || st.Sampled == 0 {
				t.Fatalf("tracer stats %+v, want started and sampled roots", st)
			}
			if len(tr.Slow()) == 0 {
				t.Fatal("no slow-query entries despite 1ns threshold")
			}
		})
	}
}

// TestIngestTraceStitchesAcrossLog is the cross-log acceptance: one
// sampled batch through the cluster router must come back as one trace
// whose spans cover the whole ingest path — the Instrument root,
// the router's batched append, and the consuming node's fetch, apply,
// and store observe — even though the append and consume happen after
// the root span finished.
func TestIngestTraceStitchesAcrossLog(t *testing.T) {
	cl, err := dstore.New(dstore.Config{Partitions: 2, Store: storeGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	reg := telemetry.NewTraced(tracedTracer())
	tr := reg.Tracer()
	cl.SetTelemetry(reg)
	be := Instrument(cl.Router(), reg, "cluster")

	hll, err := store.NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.RegisterMetric("uniq", hll); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	// Settle the post-start rebalances first: records landing while a
	// node is still rebuilding are absorbed by the recovery replay — the
	// untraced bulk path — not the event loop that stitches.
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	batch := make([]store.Observation, 8)
	for i := range batch {
		batch[i] = store.Observation{Metric: "uniq", Key: fmt.Sprintf("k%d", i%3), Item: fmt.Sprintf("u%d", i), Time: int64(i)}
	}
	if err := be.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}

	wantSpans := []string{"analytics.observe", "mqlog.append", "mqlog.fetch", "dstore.apply", "store.observe"}
	stitched := 0
	for _, ts := range tr.Traces() {
		names := make(map[string]bool, len(ts.Spans))
		for _, sp := range ts.Spans {
			names[sp.Name] = true
		}
		complete := true
		for _, w := range wantSpans {
			if !names[w] {
				complete = false
				break
			}
		}
		if complete {
			stitched++
		}
	}
	if stitched == 0 {
		var seen [][]string
		for _, ts := range tr.Traces() {
			var names []string
			for _, sp := range ts.Spans {
				names = append(names, sp.Name)
			}
			seen = append(seen, names)
		}
		t.Fatalf("no trace stitched the full ingest path %v; traces held %v (stats %+v)", wantSpans, seen, tr.Stats())
	}
}

// TestInstrumentObserveBatchOpensRoot: at sample rate 1 a batch written
// through Instrument opens an analytics.observe root, and the store
// underneath hangs its store.observe span off it — without the caller's
// slice being written to. A batch that already rides a trace (as the
// serving edge hands over) is not re-rooted.
func TestInstrumentObserveBatchOpensRoot(t *testing.T) {
	st, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewTraced(tracedTracer())
	tr := reg.Tracer()
	st.SetTelemetry(reg)
	be := Instrument(st, reg, "store")
	registerFamilies(t, be)
	batch := conformanceStream(3)
	if err := be.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, o := range batch {
		if o.Trace.Valid() {
			t.Fatal("the sampled root wrote its context into the caller's slice")
		}
	}
	rooted := false
	for _, ts := range tr.Traces() {
		var root trace.SpanID
		for _, sp := range ts.Spans {
			if sp.Name == "analytics.observe" && sp.Parent == 0 {
				root = sp.ID
			}
		}
		for _, sp := range ts.Spans {
			if root != 0 && sp.Name == "store.observe" && sp.Parent == root {
				rooted = true
			}
		}
	}
	if !rooted {
		t.Fatal("no analytics.observe root with a store.observe child")
	}

	started := tr.Stats().Started
	edge := tr.StartRoot("serve.observe")
	for i := range batch {
		batch[i].Trace = edge.Context()
	}
	if err := be.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	edge.Finish()
	if got := tr.Stats().Started; got != started+1 {
		t.Fatalf("a batch riding a trace opened %d roots beyond its own edge", got-started-1)
	}
}
