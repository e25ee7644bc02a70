package engine

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

func storeWithUniques(t *testing.T) *store.Store {
	t.Helper()
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
	return st
}

func TestNewStoreBoltValidation(t *testing.T) {
	if _, err := NewStoreBolt(nil, nil); err == nil {
		t.Fatal("nil store accepted")
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

// A topology with parallel StoreBolt tasks sinks a keyed stream into the
// store; fields grouping keeps each series on one task, but the shared
// store instance must be safe either way because the store locks per
// shard, not per task.
func TestStoreBoltSinksTopologyStream(t *testing.T) {
	st := storeWithUniques(t)
	const tuples = 4000
	emitted := 0
	spout := SpoutFunc(func() (Message, bool) {
		if emitted >= tuples {
			return Message{}, false
		}
		i := emitted
		emitted++
		return Message{
			Key: fmt.Sprintf("page%d", i%8),
			Value: store.Observation{
				Metric: "uniques",
				Key:    fmt.Sprintf("page%d", i%8),
				Item:   fmt.Sprintf("user%d", i%900),
				Time:   int64(i % 300),
			},
		}, true
	})
	sink, err := NewStoreBolt(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewBuilder().
		AddSpout("events", spout).
		AddBolt("store", sink.Factory(), 4, FieldsFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["store"] != 0 {
		t.Fatalf("topology failures: %+v", stats)
	}
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

// Messages the extractor rejects are skipped, not failed: the tuple tree
// still acks under at-least-once, so foreign messages cost nothing.
func TestStoreBoltSkipsForeignMessages(t *testing.T) {
	st := storeWithUniques(t)
	msgs := []Message{
		{Key: "a", Value: store.Observation{Metric: "uniques", Key: "a", Item: "x", Time: 1}},
		{Key: "b", Value: "not an observation"},
		{Key: "c", Value: store.Observation{Metric: "uniques", Key: "c", Item: "y", Time: 2}},
	}
	sink, _ := NewStoreBolt(st, nil)
	topo, err := NewBuilder().
		AddSpout("events", &sliceSpout{msgs: msgs}).
		AddBolt("store", sink.Factory(), 2, ShuffleFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["store"] != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if got := st.Stats().Observed; got != 2 {
		t.Fatalf("observed %d, want 2", got)
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the tests' point-query shorthand.
func queryPoint(q interface {
	Query(store.QueryRequest) (store.QueryResult, error)
}, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}
