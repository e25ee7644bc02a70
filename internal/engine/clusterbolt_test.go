package engine

import (
	"fmt"
	"testing"

	"repro/internal/dstore"
	"repro/internal/store"
)

func clusterWithUniques(t *testing.T, nodes int) *dstore.Cluster {
	t.Helper()
	c, err := dstore.New(dstore.Config{
		Partitions: 8,
		Store:      store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100},
	})
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
	for i := 0; i < nodes; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestNewClusterBoltValidation(t *testing.T) {
	if _, err := NewClusterBolt(nil, nil); err == nil {
		t.Fatal("nil router accepted")
	}
}

// A topology with parallel ClusterBolt tasks forwards a keyed stream to
// the cluster's router; after the run drains, every series is served by
// its owning node with the same answers StoreBolt would have produced on
// one local store.
func TestClusterBoltSinksTopologyStream(t *testing.T) {
	c := clusterWithUniques(t, 3)
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
	sink, err := NewClusterBolt(c.Router(), nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewBuilder().
		AddSpout("events", spout).
		AddBolt("cluster", sink.Factory(), 4, FieldsFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["cluster"] != 0 {
		t.Fatalf("topology failures: %+v", stats)
	}
	sink.Flush()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	cst := c.Stats()
	if got := cst.Applied + cst.Replayed; got != tuples {
		t.Fatalf("cluster consumed %d, want %d", got, tuples)
	}
	// Oracle: one store rebuilt from the same log.
	protos := map[string]store.Prototype{}
	p, _ := store.NewDistinctProto(12, 42)
	protos["uniques"] = p
	oracle, _, err := store.Rebuild(store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}, protos, c.Topic())
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

// Messages the extractor rejects are skipped, not failed, matching
// StoreBolt's contract.
func TestClusterBoltSkipsForeignMessages(t *testing.T) {
	c := clusterWithUniques(t, 2)
	msgs := []Message{
		{Key: "a", Value: store.Observation{Metric: "uniques", Key: "a", Item: "x", Time: 1}},
		{Key: "b", Value: "not an observation"},
		{Key: "c", Value: store.Observation{Metric: "uniques", Key: "c", Item: "y", Time: 2}},
	}
	sink, _ := NewClusterBolt(c.Router(), nil)
	topo, err := NewBuilder().
		AddSpout("events", &sliceSpout{msgs: msgs}).
		AddBolt("cluster", sink.Factory(), 2, ShuffleFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["cluster"] != 0 {
		t.Fatalf("stats %+v", stats)
	}
	sink.Flush()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	cst := c.Stats()
	if got := cst.Applied + cst.Replayed; got != 2 {
		t.Fatalf("consumed %d, want 2", got)
	}
}
