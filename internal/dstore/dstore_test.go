package dstore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// newTestCluster builds a cluster with three metric families registered
// (distinct, frequency, quantiles) and no per-node budgets, so cluster
// answers are exactly comparable to a single-store oracle.
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Store.BucketWidth == 0 {
		cfg.Store = store.Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for name, mk := range testProtos(t) {
		if err := c.RegisterMetric(name, mk); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testProtos(t testing.TB) map[string]store.Prototype {
	t.Helper()
	protos := map[string]store.Prototype{}
	hll, err := store.NewDistinctProto(12, 11)
	if err != nil {
		t.Fatal(err)
	}
	protos["uniq"] = hll
	cm, err := store.NewFreqProto(256, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	protos["hits"] = cm
	qd, err := store.NewQuantileProto(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	protos["lat"] = qd
	return protos
}

// feed produces a deterministic Zipf-keyed stream through the router
// across all three metrics and returns the stream-time high water.
func feed(t *testing.T, c *Cluster, events int, seed uint64) int64 {
	t.Helper()
	rng := workload.NewRNG(seed)
	z := workload.NewZipf(rng, 48, 1.2)
	r := c.Router()
	var now int64
	for i := 0; i < events; i++ {
		now = int64(i)
		key := fmt.Sprintf("k%d", z.Draw())
		item := fmt.Sprintf("u%d", rng.Uint64()%4096)
		val := rng.Uint64() % 50000
		if err := r.ObserveBatch([]store.Observation{
			{Metric: "uniq", Key: key, Item: item, Time: now},
			{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
			{Metric: "lat", Key: key, Value: val, Time: now},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// oracle rebuilds a single store from the cluster's ingest log — the
// same stream, one process.
func oracle(t *testing.T, c *Cluster) *store.Store {
	t.Helper()
	st, _, err := store.Rebuild(c.cfg.Store, testProtos(t), c.Topic())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertMatchesOracle compares every key's cardinality, per-item
// frequency, and quantile answers between the cluster and the oracle.
// Per-key observation order is identical on both sides (one key = one
// partition = one log order), so the sketch answers must be *equal*, not
// merely close.
func assertMatchesOracle(t *testing.T, c *Cluster, o *store.Store, to int64, context string) int {
	t.Helper()
	r := c.Router()
	keys := o.Keys("uniq")
	if len(keys) == 0 {
		t.Fatalf("%s: oracle has no keys", context)
	}
	clusterKeys := r.Keys("uniq")
	if len(clusterKeys) != len(keys) {
		t.Fatalf("%s: cluster serves %d keys, oracle has %d", context, len(clusterKeys), len(keys))
	}
	checked := 0
	for _, key := range keys {
		cu, err := queryPoint(r, "uniq", key, 0, to)
		if err != nil {
			t.Fatalf("%s: cluster uniq query %s: %v", context, key, err)
		}
		ou, err := queryPoint(o, "uniq", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cu.(*store.Distinct).Estimate(), ou.(*store.Distinct).Estimate(); got != want {
			t.Fatalf("%s: uniq[%s] cluster %v != oracle %v", context, key, got, want)
		}
		ch, err := queryPoint(r, "hits", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		oh, err := queryPoint(o, "hits", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 16; u++ {
			item := fmt.Sprintf("u%d", u)
			if got, want := ch.(*store.Freq).Count(item), oh.(*store.Freq).Count(item); got != want {
				t.Fatalf("%s: hits[%s][%s] cluster %d != oracle %d", context, key, item, got, want)
			}
		}
		cl, err := queryPoint(r, "lat", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		ol, err := queryPoint(o, "lat", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			if got, want := cl.(*store.Quantiles).Quantile(phi), ol.(*store.Quantiles).Quantile(phi); got != want {
				t.Fatalf("%s: lat[%s] p%v cluster %d != oracle %d", context, key, phi, got, want)
			}
		}
		checked++
	}
	return checked
}

func TestClusterValidation(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 2})
	if err := c.RegisterMetric("", nil); err == nil {
		t.Fatal("empty metric accepted")
	}
	if err := c.RegisterMetric("x", nil); err == nil {
		t.Fatal("nil prototype accepted")
	}
	if err := c.RegisterMetric("uniq", testProtos(t)["uniq"]); err == nil {
		t.Fatal("duplicate metric accepted")
	}
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMetric("late", testProtos(t)["uniq"]); err == nil {
		t.Fatal("metric registered after nodes started")
	}
	if err := c.StopNode("node-99"); err == nil {
		t.Fatal("unknown node stop accepted")
	}
	if err := c.Router().ObserveBatch([]store.Observation{{Metric: "nope", Key: "k", Time: 1}}); err == nil {
		t.Fatal("unregistered metric observed")
	}
	if err := c.Router().ObserveBatch([]store.Observation{{Metric: "uniq", Key: "k", Time: -1}}); err == nil {
		t.Fatal("negative time observed")
	}
	// An empty key would round-robin by value hash in the log, scattering
	// one series across partitions owned by different nodes.
	if err := c.Router().ObserveBatch([]store.Observation{{Metric: "uniq", Key: "", Item: "x", Time: 1}}); err == nil {
		t.Fatal("empty key observed")
	}
}

func TestClusterServesAndMatchesOracle(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 4; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 4000, 21)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	o := oracle(t, c)
	if n := assertMatchesOracle(t, c, o, to, "steady state"); n == 0 {
		t.Fatal("nothing checked")
	}
	st := c.Stats()
	if st.Nodes != 4 || st.Applied+st.Replayed == 0 || st.Lag != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// An ack means the write is on the log: the moment ObserveBatch returns
// on a running cluster, the log's end offsets hold every acknowledged
// observation and Lag counts every one no node has consumed, with no
// Drain in between; after Drain a query counts all of them.
func TestClusterAckIsOnLog(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	var names []string
	for i := 0; i < 2; i++ {
		name, err := c.StartNode()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	r := c.Router()
	logged := func() uint64 {
		var end uint64
		for _, e := range c.Topic().EndOffsets() {
			end += e
		}
		return end
	}
	batch := func(at int64) []store.Observation {
		return []store.Observation{
			{Metric: "hits", Key: "a", Item: "x", Value: 1, Time: at},
			{Metric: "hits", Key: "b", Item: "x", Value: 1, Time: at},
			{Metric: "hits", Key: "c", Item: "x", Value: 1, Time: at},
		}
	}
	counted := func(want uint64) {
		t.Helper()
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := r.Query(context.Background(), store.QueryRequest{Metric: "hits", AllKeys: true, From: 0, To: 100, Aggregate: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Count("x"); got != want {
			t.Fatalf("after Drain a query counts %d observations, want %d", got, want)
		}
	}

	// Live nodes may apply the batch at once, so Lag is checked below
	// with none consuming; the end offsets do not depend on them.
	if err := r.ObserveBatch(batch(1)); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != 3 {
		t.Fatalf("an acknowledged 3-observation batch left %d records on the log, want 3", got)
	}
	counted(3)

	for _, name := range names {
		if err := c.StopNode(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ObserveBatch(batch(2)); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != 6 {
		t.Fatalf("the log holds %d records after two acknowledged batches, want 6", got)
	}
	if got := c.Lag(); got != 3 {
		t.Fatalf("Lag counts %d of the 3 acknowledged, unconsumed observations", got)
	}
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	counted(6)
}

// TestClusterKillRejoinMatchesOracle is T3.1's correctness half and this
// package's race-suite anchor: ingest a stream, kill a node (survivors
// recover its partitions from the log), verify every query still matches
// the single-store oracle, rejoin a node (everyone rebalances and
// recovers), and verify again.
func TestClusterKillRejoinMatchesOracle(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 4; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 3000, 33)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	o := oracle(t, c)
	assertMatchesOracle(t, c, o, to, "before kill")

	victim := c.NodeNames()[1]
	if err := c.StopNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.NodeNames()); got != 3 {
		t.Fatalf("%d nodes after kill, want 3", got)
	}
	assertMatchesOracle(t, c, o, to, "after kill")

	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, o, to, "after rejoin")

	// And the cluster keeps ingesting correctly after the cycle.
	to = feed(t, c, 1500, 34)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, oracle(t, c), to, "after rejoin + more ingest")
}

// TestClusterPoisonSkippedLiveAndOnRecovery: records the router's
// producer-side checks would have refused — bytes that do not decode, an
// unregistered metric, an empty key, a negative time — produced straight
// onto the ingest topic among valid records are counted and skipped by
// the live apply loop, and the recoveries a kill and a rejoin run over
// the same log skip them too instead of wedging. Answers match the
// single-store oracle (which skips the same records) throughout.
func TestClusterPoisonSkippedLiveAndOnRecovery(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	for i := 0; i < 2; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	// Settle the joins first, so the poison reaches the live loop rather
	// than a recovery replay.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	feed(t, c, 400, 51)
	topic := c.Topic()
	topic.Produce("k1", []byte{0xff, 0xff})
	for _, obs := range []store.Observation{
		{Metric: "ghost", Key: "k2", Item: "x", Time: 3},
		{Metric: "uniq", Key: "", Item: "x", Time: 3},
		{Metric: "uniq", Key: "k3", Item: "x", Time: -1},
	} {
		topic.Produce(obs.Key, store.EncodeObservation(obs))
	}
	to := feed(t, c, 400, 52)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Rejected; got != 4 {
		t.Fatalf("live loop rejected %d records, want the 4 poison ones", got)
	}
	o := oracle(t, c)
	assertMatchesOracle(t, c, o, to, "live")

	if err := c.StopNode(c.NodeNames()[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, o, to, "after kill")
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, o, to, "after rejoin")
}

// TestClusterKillUnderIngest races a node kill against live producers:
// at-least-once consumption plus rebuild-from-log recovery must neither
// lose nor double-count a single observation.
func TestClusterKillUnderIngest(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	const (
		producers   = 4
		perProducer = 2000
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := c.Router()
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("k%d", (p*perProducer+i)%64)
				if err := r.ObserveBatch([]store.Observation{{
					Metric: "uniq",
					Key:    key,
					Item:   fmt.Sprintf("u%d-%d", p, i),
					Time:   int64(i),
				}}); err != nil {
					panic(err)
				}
			}
		}(p)
	}
	// Kill and rejoin mid-stream.
	victim := c.NodeNames()[0]
	if err := c.StopNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	o := oracle(t, c)
	assertMatchesOracle(t, c, o, int64(perProducer), "kill under ingest")
}

// TestAggregateQueryScattersAcrossNodes pins the scatter-gather path: a
// multi-key union answered by per-node partials combined through
// CombineSnapshots must equal the oracle's own multi-key combine.
func TestAggregateQueryScattersAcrossNodes(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 4; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 3000, 55)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	o := oracle(t, c)
	keys := o.Keys("uniq")
	if len(keys) < 8 {
		t.Fatalf("only %d keys", len(keys))
	}

	got, err := queryUnion(c.Router(), "uniq", keys, 0, to)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]store.Synopsis, 0, len(keys))
	for _, key := range keys {
		syn, err := queryPoint(o, "uniq", key, 0, to)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, syn)
	}
	proto := testProtos(t)["uniq"]
	want, err := store.CombineSnapshots(proto, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.(*store.Distinct).Estimate(), want.(*store.Distinct).Estimate(); g != w {
		t.Fatalf("scatter-gather union %v != oracle union %v", g, w)
	}

	// A union contains each series once: duplicated input keys must not
	// change the answer (merging a key twice doubles additive counts).
	doubled := append(append([]string(nil), keys...), keys...)
	again, err := queryUnion(c.Router(), "uniq", doubled, 0, to)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := again.(*store.Distinct).Estimate(), want.(*store.Distinct).Estimate(); g != w {
		t.Fatalf("duplicated-keys union %v != deduplicated union %v", g, w)
	}
	hitsOnce, err := queryUnion(c.Router(), "hits", keys[:4], 0, to)
	if err != nil {
		t.Fatal(err)
	}
	hitsTwice, err := queryUnion(c.Router(), "hits", append(append([]string(nil), keys[:4]...), keys[:4]...), 0, to)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		item := fmt.Sprintf("u%d", u)
		if a, b := hitsOnce.(*store.Freq).Count(item), hitsTwice.(*store.Freq).Count(item); a != b {
			t.Fatalf("duplicate keys doubled additive count for %s: %d vs %d", item, a, b)
		}
	}

	if _, err := queryUnion(c.Router(), "nope", keys, 0, to); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := queryUnion(c.Router(), "uniq", keys, 5, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestPerNodeBudgetsPartitionState pins the scale-out motivation: the
// keyspace's working set overflows one node's byte budget but fits the
// aggregate budget of eight, so the single node evicts constantly while
// the cluster holds every series (T3.1 measures the throughput side of
// this; here we pin the state side deterministically).
func TestPerNodeBudgetsPartitionState(t *testing.T) {
	// Per-node budget 4 x 128 KB = 512 KB: the ~2 MB working set below
	// overflows one node 4x but fits eight nodes (~256 KB each) with 2x
	// slack for hash skew across partitions and shards.
	budgeted := store.Config{Shards: 4, BucketWidth: 1 << 20, RingBuckets: 2, MaxShardBytes: 128 << 10}
	run := func(nodes int) Stats {
		c := newTestCluster(t, Config{Partitions: 8, Store: budgeted})
		for i := 0; i < nodes; i++ {
			if _, err := c.StartNode(); err != nil {
				t.Fatal(err)
			}
		}
		r := c.Router()
		// ~512 HLL series at 4 KB each = ~2 MB of working set vs a
		// 256 KB per-node budget. Buckets open sparse, so each series
		// gets 800 distinct items — well past the 512 occupied registers
		// where a precision-12 HLL turns dense.
		for k := 0; k < 512; k++ {
			batch := make([]store.Observation, 0, 800)
			for j := 0; j < 800; j++ {
				batch = append(batch, store.Observation{
					Metric: "uniq",
					Key:    fmt.Sprintf("k%d", k),
					Item:   fmt.Sprintf("u%d", j),
					Time:   1,
				})
			}
			if err := r.ObserveBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	one, eight := run(1), run(8)
	if one.Store.EvictedSize == 0 {
		t.Fatal("single node never evicted despite an overflowing working set")
	}
	if eight.Store.EvictedSize != 0 {
		t.Fatalf("8-node cluster evicted %d entries despite 8x aggregate budget", eight.Store.EvictedSize)
	}
	if eight.Store.Entries != 512 {
		t.Fatalf("8-node cluster holds %d series, want all 512", eight.Store.Entries)
	}
}

// A store config that cannot construct must fail at New, not leave every
// node retrying recovery forever with Drain hanging.
func TestClusterRejectsInvalidStoreConfig(t *testing.T) {
	if _, err := New(Config{Store: store.Config{Shards: -1}}); err == nil {
		t.Fatal("invalid per-node store config accepted")
	}
	if _, err := New(Config{Store: store.Config{MaxShardBytes: -1}}); err == nil {
		t.Fatal("invalid byte budget accepted")
	}
}

// The acceptance contract of the batched serving API: a multi-key
// aggregate QueryRequest over the cluster answers byte-identically to
// issuing per-key queries and combining them through CombineSnapshots in
// sorted key order — for every synopsis family, across several nodes.
func TestClusterAggregateByteIdenticalToPerKeyCombine(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 6000, 31)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	r := c.Router()
	keys := r.Keys("uniq") // sorted, deduplicated
	if len(keys) < 8 {
		t.Fatalf("only %d keys", len(keys))
	}
	protos := testProtos(t)
	for metric, proto := range protos {
		agg, err := r.Query(context.Background(), store.QueryRequest{Metric: metric, Keys: keys, From: 0, To: to + 1, Aggregate: true})
		if err != nil {
			t.Fatal(err)
		}
		var parts []store.Synopsis
		for _, key := range keys {
			syn, err := queryPoint(r, metric, key, 0, to)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, syn)
		}
		want, err := store.CombineSnapshots(proto, parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(agg.Raw(), want) {
			t.Fatalf("%s: aggregate answer differs from per-key Query + CombineSnapshots", metric)
		}
	}
}

// A fan-out that cannot resolve its owners must say which partitions and
// nodes were unreachable, not fail opaquely.
func TestQueryReportsUnreachableNodes(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	// No nodes at all: every partition is unowned, and the error names the
	// partitions the requested keys hash to.
	_, err := c.Router().Query(context.Background(), store.QueryRequest{
		Metric: "uniq", Keys: []string{"a", "b", "c", "d", "e", "f"}, From: 0, To: 10, Aggregate: true,
	})
	if err == nil {
		t.Fatal("query on an empty cluster succeeded")
	}
	if !strings.Contains(err.Error(), "unowned") || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("error does not name unowned partitions: %v", err)
	}
}

// An unknown metric is answered from the cluster's registry before any
// fan-out: even with no node to own a partition, the error is
// ErrUnknownMetric and never an unreachable-partition error. The serving
// edge relies on this to keep no cache of unknown names.
func TestQueryUnknownMetricNeedsNoNode(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	_, err := c.Router().Query(context.Background(), store.QueryRequest{
		Metric: "ghost", Keys: []string{"a", "b", "c", "d"}, From: 0, To: 10,
	})
	if !errors.Is(err, store.ErrUnknownMetric) {
		t.Fatalf("unknown metric on a node-less cluster: %v, want ErrUnknownMetric", err)
	}
	if strings.Contains(err.Error(), "unowned") {
		t.Fatalf("unknown metric fanned out: %v", err)
	}
}

// queryPoint answers one series over the inclusive range [from, to]
// through the typed query API — the tests' point-query shorthand.
func queryPoint(q interface {
	Query(context.Context, store.QueryRequest) (store.QueryResult, error)
}, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(context.Background(), store.PointRequest(metric, key, from, to))
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}

// queryUnion answers the union of keys over the inclusive range
// [from, to] as one aggregate query.
func queryUnion(r *Router, metric string, keys []string, from, to int64) (store.Synopsis, error) {
	req := store.PointRequest(metric, "", from, to)
	req.Keys, req.Aggregate = keys, true
	res, err := r.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return res.Raw(), nil
}
