package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro"
)

// These tests exercise the public facade end to end — the integration
// surface a downstream user sees — complementing the per-package unit
// tests in internal/.

func TestFacadeSketchRoundTrip(t *testing.T) {
	hll, err := repro.NewHyperLogLog(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := repro.NewSpaceSaving(50)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := repro.NewGK(0.01)
	if err != nil {
		t.Fatal(err)
	}
	bloom, err := repro.NewBloom(10000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("item-%d", i%1000)
		hll.UpdateString(key)
		ss.Update(key)
		gk.Update(float64(i % 1000))
		bloom.AddString(key)
	}
	if est := hll.Estimate(); math.Abs(est-1000) > 100 {
		t.Fatalf("facade HLL estimate %v", est)
	}
	if top := ss.TopK(5); len(top) != 5 {
		t.Fatalf("facade top-k %v", top)
	}
	if med := gk.Query(0.5); med < 400 || med > 600 {
		t.Fatalf("facade median %v", med)
	}
	if !bloom.ContainsString("item-1") {
		t.Fatal("facade bloom lost a key")
	}
}

func TestFacadeGenericSamplers(t *testing.T) {
	res, err := repro.NewReservoir[string](10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		res.Update(fmt.Sprintf("ev-%d", i))
	}
	if len(res.Sample()) != 10 {
		t.Fatalf("facade reservoir size %d", len(res.Sample()))
	}
}

func TestFacadeTopologyWordcount(t *testing.T) {
	sentences := []string{"a b", "b c", "c c"}
	i := 0
	spout := repro.SpoutFunc(func() (repro.TupleMessage, bool) {
		if i >= len(sentences) {
			return repro.TupleMessage{}, false
		}
		i++
		return repro.TupleMessage{Value: sentences[i-1]}, true
	})
	counts := map[string]int{}
	split := func(int) repro.Bolt {
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			for _, r := range m.Value.(string) {
				if r != ' ' {
					emit(repro.TupleMessage{Key: string(r), Value: 1})
				}
			}
			return nil
		})
	}
	count := func(int) repro.Bolt {
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			counts[m.Key]++
			return nil
		})
	}
	top, err := repro.NewTopologyBuilder().
		AddSpout("src", spout).
		AddBolt("split", split, 2, repro.ShuffleFrom("src")).
		AddBolt("count", count, 1, repro.FieldsFrom("split")).
		Build(repro.TopologyConfig{Semantics: repro.AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := top.Run()
	if counts["c"] != 3 || counts["b"] != 2 || counts["a"] != 1 {
		t.Fatalf("facade wordcount %v", counts)
	}
	if stats.Acked != 3 {
		t.Fatalf("facade acked %d", stats.Acked)
	}
}

func TestFacadeLambda(t *testing.T) {
	geom := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 2, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	proto, err := repro.NewFreqProto(256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.RegisterMetric("hits", proto); err != nil {
		t.Fatal(err)
	}
	if err := arch.ObserveBatch([]repro.StoreObservation{{Metric: "hits", Key: "k", Item: "u", Value: 5, Time: 0}}); err != nil {
		t.Fatal(err)
	}
	info, err := arch.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Applied != 1 {
		t.Fatalf("facade batch info %+v", info)
	}
	if err := arch.ObserveBatch([]repro.StoreObservation{{Metric: "hits", Key: "k", Item: "u", Value: 3, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := arch.Query(context.Background(), repro.QueryRequest{Metric: "hits", Key: "k", From: 0, To: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count("u"); got != 8 {
		t.Fatalf("facade lambda merged count %d, want 8", got)
	}
	if arch.Staleness() != 1 {
		t.Fatalf("facade staleness %d, want 1", arch.Staleness())
	}
}

// The unified serving API through the facade: all three serving layers
// satisfy repro.Backend, answer typed QueryRequests, and agree on the
// unknown-metric sentinel.
func TestFacadeBackend(t *testing.T) {
	geom := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	proto, err := repro.NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}

	st, err := repro.NewSketchStore(geom)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := repro.NewStoreCluster(repro.StoreClusterConfig{Partitions: 4, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 2, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()

	backends := []repro.Backend{st, cl.Router(), arch}
	for _, be := range backends {
		if err := be.RegisterMetric("uniques", proto); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		for i := 0; i < 100; i++ {
			if err := be.ObserveBatch([]repro.StoreObservation{{
				Metric: "uniques", Key: "home", Item: fmt.Sprintf("u%d", i%40), Time: int64(i % 50),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		res, err := be.Query(context.Background(), repro.QueryRequest{Metric: "uniques", Key: "home", From: 0, To: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Family().String() != "distinct" {
			t.Fatalf("family %v, want distinct", res.Family())
		}
		if got := res.Distinct(); got < 35 || got > 45 {
			t.Fatalf("typed distinct %d, want ~40", got)
		}
		// Unified error semantics: unknown metrics carry the sentinel...
		if _, err := be.Query(context.Background(), repro.QueryRequest{Metric: "nope", Key: "home", From: 0, To: 50}); !errors.Is(err, repro.ErrUnknownMetric) {
			t.Fatalf("unknown metric error %v, want ErrUnknownMetric", err)
		}
		// ...and a known metric with no data answers empty, not an error.
		res, err = be.Query(context.Background(), repro.QueryRequest{Metric: "uniques", Key: "ghost", From: 0, To: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Items() != 0 {
			t.Fatalf("ghost key items %d, want 0", res.Items())
		}
		if got := be.Keys("uniques"); len(got) != 1 || got[0] != "home" {
			t.Fatalf("keys %v, want [home]", got)
		}
		if be.Stats().Observed == 0 {
			t.Fatal("stats observed 0")
		}
	}
}

func TestFacadeBrokerConsumerGroup(t *testing.T) {
	b := repro.NewBroker()
	topic, err := b.CreateTopic("t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		topic.Produce(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	g, err := repro.NewConsumerGroup(b, topic, "grp")
	if err != nil {
		t.Fatal(err)
	}
	g.Join("w")
	total := 0
	for {
		batches := g.Poll("w", 100)
		if len(batches) == 0 {
			break
		}
		for _, batch := range batches {
			total += len(batch.Messages)
			g.Commit(batch.Partition, batch.Next)
		}
	}
	if total != 10 {
		t.Fatalf("facade consumer got %d", total)
	}
}

// The partitioned store cluster through the facade: cluster up, ingest
// through the router, survive a kill/rejoin, and answer every key and
// the scatter-gathered union exactly like one sketch store fed the same
// stream.
func TestFacadeStoreCluster(t *testing.T) {
	storeCfg := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	c, err := repro.NewStoreCluster(repro.StoreClusterConfig{Partitions: 8, Store: storeCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle, err := repro.NewSketchStore(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := repro.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	const events = 3000
	r := c.Router()
	for i := 0; i < events; i++ {
		obs := []repro.StoreObservation{{
			Metric: "uniques",
			Key:    fmt.Sprintf("page%d", i%8),
			Item:   fmt.Sprintf("user%d", i%700),
			Time:   int64(i % 500),
		}}
		if err := r.ObserveBatch(obs); err != nil {
			t.Fatal(err)
		}
		if err := oracle.ObserveBatch(obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Kill + rejoin: survivors and the joiner recover from the log.
	if err := c.StopNode(c.NodeNames()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	keys := r.Keys("uniques")
	if len(keys) != 8 {
		t.Fatalf("cluster serves %d keys, want 8", len(keys))
	}
	reqs := []repro.QueryRequest{{Metric: "uniques", Keys: keys, From: 0, To: 500, Aggregate: true}}
	for _, key := range keys {
		reqs = append(reqs, repro.QueryRequest{Metric: "uniques", Key: key, From: 0, To: 500})
	}
	for _, req := range reqs {
		got, err := r.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Distinct(), want.Distinct(); g != w {
			t.Fatalf("%s: cluster %d != single store %d", req.Key, g, w)
		}
	}
}
