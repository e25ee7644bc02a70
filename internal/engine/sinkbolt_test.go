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

// sinkHarness is one serving layer under test: the backend, a drain to
// reach read-your-writes, and a nil pointer of the backend's type.
type sinkHarness struct {
	name     string
	be       analytics.Backend
	drain    func() error
	typedNil analytics.Backend
}

// sinkBackends builds one harness per serving layer.
func sinkBackends(t *testing.T) []sinkHarness {
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
	arch, err := lambda.New(lambda.Config{Partitions: 2, Store: sinkGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	return []sinkHarness{
		{"store", st, func() error { return nil }, (*store.Store)(nil)},
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
		}, (*dstore.Router)(nil)},
		{"lambda", arch, func() error { return nil }, (*lambda.Architecture)(nil)},
	}
}

// One generic SinkBolt drives every serving backend through the same
// topology wiring — parallel bolt tasks hammer ObserveBatch concurrently, so
// this is also the -race pass over the Backend write paths (named
// TestSinkBolt for the CI race step). Every backend must answer each key
// exactly like a store fed the same observations directly, and a Lambda
// must hold every tuple in its master log as well as its speed layer.
func TestSinkBoltIntoEachBackend(t *testing.T) {
	const events = 3000
	hll, err := store.NewDistinctProto(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	event := func(i int) store.Observation {
		key := fmt.Sprintf("page%d", i%8)
		return store.Observation{Metric: "uniques", Key: key, Item: fmt.Sprintf("u%d", i%500), Time: int64(i % 300)}
	}
	ref, err := store.New(sinkGeom())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterMetric("uniques", hll); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		if err := ref.ObserveBatch([]store.Observation{event(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// matchesRef compares every key's answer with the directly fed store.
	matchesRef := func(t *testing.T, be analytics.Backend) {
		t.Helper()
		if keys := be.Keys("uniques"); len(keys) != 8 {
			t.Fatalf("backend serves %d keys, want 8", len(keys))
		}
		for k := 0; k < 8; k++ {
			req := store.QueryRequest{Metric: "uniques", Key: fmt.Sprintf("page%d", k), From: 0, To: 300}
			got, err := be.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			// gcd(8 pages, 500 users) = 4: each page sees 125 users.
			if g, w := got.Distinct(), want.Distinct(); g != w || g < 110 || g > 140 {
				t.Fatalf("%s: distinct %d, direct store %d, want ~125", req.Key, g, w)
			}
		}
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
				obs := event(emitted)
				emitted++
				return Message{Key: obs.Key, Value: obs}, true
			})
			topo, err := NewBuilder().
				AddSpout("events", spout).
				AddBolt("sink", sink.Factory(), 4, FieldsFrom("events")).
				Build(Config{Semantics: AtLeastOnce})
			if err != nil {
				t.Fatal(err)
			}
			stats := topo.Run()
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
			matchesRef(t, h.be)
			arch, ok := h.be.(*lambda.Architecture)
			if !ok {
				return
			}
			// Lambda: every tuple reached the master log too, so a batch
			// recompute takes the whole run over from the speed layer and
			// the answers do not move.
			if got := arch.MasterLen(); got != events {
				t.Fatalf("master log holds %d records, want %d", got, events)
			}
			if _, err := arch.RunBatch(); err != nil {
				t.Fatal(err)
			}
			if got := arch.Stats().Observed; got != 0 {
				t.Fatalf("speed layer holds %d observations after the handoff", got)
			}
			matchesRef(t, h.be)
		})
	}
}

// Messages the extractor rejects are skipped, not failed: the tuple tree
// still acks under at-least-once, and no backend (nor a Lambda's master
// log) sees the foreign message.
func TestSinkBoltSkipsForeignMessages(t *testing.T) {
	hll, err := store.NewDistinctProto(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range sinkBackends(t) {
		t.Run(h.name, func(t *testing.T) {
			if err := h.be.RegisterMetric("uniques", hll); err != nil {
				t.Fatal(err)
			}
			msgs := []Message{
				{Key: "a", Value: store.Observation{Metric: "uniques", Key: "a", Item: "x", Time: 1}},
				{Key: "b", Value: "not an observation"},
				{Key: "c", Value: store.Observation{Metric: "uniques", Key: "c", Item: "y", Time: 2}},
			}
			sink, err := NewSinkBolt(h.be, nil)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := NewBuilder().
				AddSpout("events", &sliceSpout{msgs: msgs}).
				AddBolt("sink", sink.Factory(), 2, ShuffleFrom("events")).
				Build(Config{Semantics: AtLeastOnce})
			if err != nil {
				t.Fatal(err)
			}
			stats := topo.Run()
			if err := h.drain(); err != nil {
				t.Fatal(err)
			}
			if stats.Dropped != 0 || stats.Errors["sink"] != 0 {
				t.Fatalf("stats %+v", stats)
			}
			if got := h.be.Stats().Observed; got != 2 {
				t.Fatalf("observed %d, want 2", got)
			}
			if arch, ok := h.be.(*lambda.Architecture); ok && arch.MasterLen() != 2 {
				t.Fatalf("master log holds %d records, want 2", arch.MasterLen())
			}
		})
	}
}

// A nil pointer of any backend type is rejected at construction, like a
// nil interface, instead of panicking at the first Process.
func TestSinkBoltRejectsNilBackend(t *testing.T) {
	for _, h := range sinkBackends(t) {
		t.Run(h.name, func(t *testing.T) {
			if _, err := NewSinkBolt(h.typedNil, nil); err == nil {
				t.Fatalf("typed nil %T accepted", h.typedNil)
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

func TestDefaultExtract(t *testing.T) {
	obs := store.Observation{Metric: "m", Key: "k", Item: "i", Time: 3}
	if got, ok := DefaultExtract(Message{Value: obs}); !ok || got != obs {
		t.Fatalf("value extract: %+v %v", got, ok)
	}
	if got, ok := DefaultExtract(Message{Value: &obs}); !ok || got != obs {
		t.Fatalf("pointer extract: %+v %v", got, ok)
	}
	if _, ok := DefaultExtract(Message{Value: (*store.Observation)(nil)}); ok {
		t.Fatal("nil pointer extracted")
	}
	if _, ok := DefaultExtract(Message{Value: "not an observation"}); ok {
		t.Fatal("foreign value extracted")
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the tests' point-query shorthand.
func queryPoint(be analytics.Backend, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := be.Query(store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}

// pageSpout emits tuples observations of metric, keyed over eight pages,
// with item(i) as the observed item.
func pageSpout(tuples int, metric string, item func(i int) string) Spout {
	emitted := 0
	return SpoutFunc(func() (Message, bool) {
		if emitted >= tuples {
			return Message{}, false
		}
		i := emitted
		emitted++
		key := fmt.Sprintf("page%d", i%8)
		return Message{
			Key:   key,
			Value: store.Observation{Metric: metric, Key: key, Item: item(i), Value: 1, Time: int64(i % 300)},
		}, true
	})
}

// runSink runs spout through four parallel SinkBolt tasks into be and
// fails the test on any dropped or failed tuple.
func runSink(t *testing.T, be analytics.Backend, spout Spout) {
	t.Helper()
	sink, err := NewSinkBolt(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewBuilder().
		AddSpout("events", spout).
		AddBolt("sink", sink.Factory(), 4, FieldsFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	if stats := topo.Run(); stats.Dropped != 0 || stats.Errors["sink"] != 0 {
		t.Fatalf("topology failures: %+v", stats)
	}
}

// A topology with parallel SinkBolt tasks sinks a keyed stream into one
// store; fields grouping keeps each series on one task, but the shared
// store must be safe either way because it locks per shard, not per task.
func TestStoreBoltSinksTopologyStream(t *testing.T) {
	st, err := store.New(store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := store.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	const tuples = 4000
	runSink(t, st, pageSpout(tuples, "uniques", func(i int) string { return fmt.Sprintf("user%d", i%900) }))
	got := st.Stats()
	if got.Observed != tuples {
		t.Fatalf("store observed %d, want %d", got.Observed, tuples)
	}
	if got.Entries != 8 {
		t.Fatalf("entries %d, want 8", got.Entries)
	}
	for k := 0; k < 8; k++ {
		syn, err := queryPoint(st, "uniques", fmt.Sprintf("page%d", k), 0, 299)
		if err != nil {
			t.Fatal(err)
		}
		est := syn.(*store.Distinct).Estimate()
		// gcd(8 pages, 900 users) = 4, so each page cycles through a
		// 225-user residue class; allow HLL error around that.
		if est < 200 || est > 250 {
			t.Fatalf("page%d distinct estimate %f", k, est)
		}
	}
}

// A topology with parallel SinkBolt tasks forwards a keyed stream to a
// cluster's router; after the run drains, every series is served by its
// owning node with the same answers as one store rebuilt from the log.
func TestClusterBoltSinksTopologyStream(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	c, err := dstore.New(dstore.Config{Partitions: 8, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	proto, err := store.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	const tuples = 4000
	runSink(t, c.Router(), pageSpout(tuples, "uniques", func(i int) string { return fmt.Sprintf("user%d", i%900) }))
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	cst := c.Stats()
	if got := cst.Applied + cst.Replayed; got != tuples {
		t.Fatalf("cluster consumed %d, want %d", got, tuples)
	}
	// Oracle: one store rebuilt from the same log.
	oracle, _, err := store.Rebuild(geom, map[string]store.Prototype{"uniques": proto}, c.Topic())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("page%d", k)
		got, err := queryPoint(c.Router(), "uniques", key, 0, 299)
		if err != nil {
			t.Fatal(err)
		}
		want, err := queryPoint(oracle, "uniques", key, 0, 299)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.(*store.Distinct).Estimate(), want.(*store.Distinct).Estimate()
		if g != w {
			t.Fatalf("%s: cluster %v != oracle %v", key, g, w)
		}
	}
}

// A topology drives both Lambda layers through one SinkBolt: every tuple
// lands in the master log AND the speed layer, so a batch recompute after
// the run and the merged query agree with the tuple count.
func TestLambdaBoltDrivesBothLayers(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	a, err := lambda.New(lambda.Config{Partitions: 4, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	proto, err := store.NewFreqProto(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMetric("hits", proto); err != nil {
		t.Fatal(err)
	}
	const tuples = 4000
	runSink(t, a, pageSpout(tuples, "hits", func(int) string { return "view" }))
	if got := a.MasterLen(); got != tuples {
		t.Fatalf("master log has %d messages, want %d", got, tuples)
	}
	// counts checks every page's merged answer against the tuple count.
	counts := func(phase string) {
		t.Helper()
		for k := 0; k < 8; k++ {
			syn, err := queryPoint(a, "hits", fmt.Sprintf("page%d", k), 0, 299)
			if err != nil {
				t.Fatal(err)
			}
			if got := syn.(*store.Freq).Count("view"); got != tuples/8 {
				t.Fatalf("page%d %s merged count %d, want %d", k, phase, got, tuples/8)
			}
		}
	}
	// Speed layer absorbed the stream (pre-batch merged answer is live).
	counts("pre-batch")
	// Batch recompute covers the whole run; answers are unchanged and the
	// speed layer is truncated to nothing.
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	if obs := a.Stats().Observed; obs != 0 {
		t.Fatalf("speed layer holds %d observations after handoff", obs)
	}
	counts("post-batch")
}
