package engine

import (
	"fmt"
	"testing"

	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/store"
)

func sinkGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}
}

// sinkBackends builds one harness per serving layer: the backend, a
// drain to reach read-your-writes, and a label.
func sinkBackends(t *testing.T) []struct {
	name  string
	be    analytics.Backend
	drain func() error
} {
	t.Helper()
	st, err := store.New(sinkGeom())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dstore.New(dstore.Config{Partitions: 4, Store: sinkGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	arch, err := lambda.New(lambda.Config{Partitions: 2, Batch: sinkGeom(), Speed: sinkGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	return []struct {
		name  string
		be    analytics.Backend
		drain func() error
	}{
		{"store", st, func() error { return nil }},
		{"cluster-router", cl.Router(), func() error {
			if len(cl.NodeNames()) == 0 {
				if _, err := cl.StartNode(); err != nil {
					return err
				}
				if _, err := cl.StartNode(); err != nil {
					return err
				}
			}
			return cl.Drain()
		}},
		{"lambda", arch, arch.Drain},
	}
}

// One generic SinkBolt drives every serving backend through the same
// topology wiring — parallel bolt tasks hammer ObserveBatch concurrently, so
// this is also the -race pass over the Backend write paths (named
// TestSinkBolt for the CI race step).
func TestSinkBoltIntoEachBackend(t *testing.T) {
	const events = 3000
	hll, err := store.NewDistinctProto(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range sinkBackends(t) {
		t.Run(h.name, func(t *testing.T) {
			if err := h.be.RegisterMetric("uniques", hll); err != nil {
				t.Fatal(err)
			}
			sink, err := NewSinkBolt(h.be, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sink.Backend() == nil {
				t.Fatal("backend accessor lost the backend")
			}
			emitted := 0
			spout := SpoutFunc(func() (Message, bool) {
				if emitted >= events {
					return Message{}, false
				}
				i := emitted
				emitted++
				key := fmt.Sprintf("page%d", i%8)
				return Message{Key: key, Value: store.Observation{
					Metric: "uniques", Key: key, Item: fmt.Sprintf("u%d", i%500), Time: int64(i % 300),
				}}, true
			})
			topo, err := NewBuilder().
				AddSpout("events", spout).
				AddBolt("sink", sink.Factory(), 4, FieldsFrom("events")).
				Build(Config{Semantics: AtLeastOnce})
			if err != nil {
				t.Fatal(err)
			}
			stats := topo.Run()
			sink.Flush() // settles buffering backends; no-op for the store
			if err := h.drain(); err != nil {
				t.Fatal(err)
			}
			if stats.Acked != events {
				t.Fatalf("acked %d, want %d", stats.Acked, events)
			}
			if got := h.be.Stats().Observed; got != events {
				t.Fatalf("backend observed %d, want %d", got, events)
			}
			res, err := h.be.Query(store.QueryRequest{Metric: "uniques", AllKeys: true, From: 0, To: 300, Aggregate: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Distinct(); got < 450 || got > 550 {
				t.Fatalf("aggregate distinct %d, want ~500", got)
			}
		})
	}
}

// Skips and failures follow the bolt contract: extract false skips the
// tuple, a backend error fails the tuple tree.
func TestSinkBoltSkipAndError(t *testing.T) {
	st, err := store.New(sinkGeom())
	if err != nil {
		t.Fatal(err)
	}
	hll, _ := store.NewDistinctProto(10, 1)
	if err := st.RegisterMetric("uniques", hll); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSinkBolt(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-observation values are skipped, not errors.
	if err := sink.Process(Message{Value: "not an observation"}, nil); err != nil {
		t.Fatalf("skip returned %v", err)
	}
	// Unknown metrics fail the tuple.
	err = sink.Process(Message{Value: store.Observation{Metric: "nope", Key: "k", Time: 0}}, nil)
	if err == nil {
		t.Fatal("unknown metric did not fail the tuple")
	}
	if _, err := NewSinkBolt(nil, nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}
