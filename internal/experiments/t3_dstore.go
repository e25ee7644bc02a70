package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/dstore"
	"repro/internal/store"
	"repro/internal/workload"
)

// T3_1_ClusterStore measures the partitioned store cluster (internal/
// dstore) on the two axes that justify going multi-node, per the
// tutorial's Section 3 platforms:
//
// Scale-out ingest. Every node gets the same fixed synopsis byte budget —
// per-node memory, the resource a real deployment adds machines to get
// more of — sized from the working set's measured footprint: a quarter
// of it, so the uniform-key workload overflows one node's budget 4x and
// fits the aggregate budget of eight with 2x slack. The single node
// churns — every write to an evicted series pays an eviction plus a
// fresh synopsis allocation — while the eight-node cluster absorbs the
// same stream into resident entries with no eviction. The evictions
// column is the capacity claim; the speedup column's gate is >= 1.5x at
// 8 nodes, because a born-sparse synopsis makes a fresh one cheap, so
// the churn the cluster avoids costs little. This is a memory-capacity
// win, visible even on one core, not a CPU-parallelism win (nodes are
// single-threaded event loops, the Samza container model, so on a
// multi-core box the same rows also gain core parallelism). The
// producer writes one observation per call, so every row also pays one
// log append per observation.
//
// Log-based recovery. The second phase ingests a Zipf stream across all
// three synopsis families, kills a node (the survivors recover its
// partitions by replaying the log), verifies every per-key cardinality /
// frequency / quantile answer against a single-store oracle rebuilt from
// the same log, rejoins a node (another rebalance + recovery), and
// verifies again. The mismatch column must be zero: scatter-gathered
// cluster answers equal one store fed the same stream, through the whole
// kill-and-rejoin cycle.
func T3_1_ClusterStore() Table {
	t := Table{
		ID:     "T3.1",
		Title:  "Partitioned store cluster: scale-out ingest + kill/rejoin recovery",
		Claim:  "fixed per-node budgets scale out: 1 node overflows the working set and evicts on nearly every write, 8 nodes hold it with 0 evictions and ingest >= 1.5x one node; after kill+rejoin every query equals a single-store oracle",
		Header: []string{"phase", "nodes", "obs/sec", "speedup", "evictions", "checked", "mismatch"},
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	// ---- Phase 1: ingest scaling under fixed per-node budgets ----
	const (
		events   = 120000
		keySpace = 2048
		trials   = 3
	)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("u%d", i)
	}
	stream := func(i int) store.Observation {
		return store.Observation{Metric: "uniq", Key: keys[i%keySpace], Item: items[i%len(items)], Time: 1}
	}
	newProto := func() store.Prototype {
		proto, err := store.NewDistinctProto(12, 7)
		if err != nil {
			panic(err)
		}
		return proto
	}
	// The per-node budget is sized from the working set's measured
	// footprint: one unbudgeted store absorbs the whole stream, and a
	// node gets a quarter of its Stats.Bytes, so 1 node overflows the
	// working set 4x and 8 nodes hold it with 2x slack. Measured, so the
	// budget follows the synopsis representation (a born-sparse HLL
	// bucket is far smaller than its 4 KB dense register array).
	nodeStore := store.Config{Shards: 4, BucketWidth: 1 << 30, RingBuckets: 2}
	whole, err := store.New(nodeStore)
	if err != nil {
		panic(err)
	}
	if err := whole.RegisterMetric("uniq", newProto()); err != nil {
		panic(err)
	}
	for i := 0; i < events; i++ {
		if err := whole.ObserveBatch([]store.Observation{stream(i)}); err != nil {
			panic(err)
		}
	}
	workingSet := whole.Stats().Bytes
	nodeStore.MaxShardBytes = max(1, workingSet/4/nodeStore.Shards)

	ingest := func(nodes int) (float64, uint64) {
		c, err := dstore.New(dstore.Config{Partitions: 8, Store: nodeStore})
		if err != nil {
			panic(err)
		}
		defer c.Close()
		if err := c.RegisterMetric("uniq", newProto()); err != nil {
			panic(err)
		}
		for i := 0; i < nodes; i++ {
			if _, err := c.StartNode(); err != nil {
				panic(err)
			}
		}
		// Settle all join rebalances on an empty log so the timed section
		// measures ingest, not membership churn.
		if err := c.Drain(); err != nil {
			panic(err)
		}
		r := c.Router()
		runtime.GC()
		start := time.Now()
		for i := 0; i < events; i++ {
			if err := r.ObserveBatch([]store.Observation{stream(i)}); err != nil {
				panic(err)
			}
		}
		if err := c.Drain(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start).Seconds()
		return float64(events) / elapsed, c.Stats().Store.EvictedSize
	}

	var base float64
	for _, nodes := range []int{1, 2, 4, 8} {
		rates := make([]float64, trials)
		evicted := make([]uint64, trials)
		for i := 0; i < trials; i++ {
			rates[i], evicted[i] = ingest(nodes)
		}
		// Report the median-rate trial as one consistent row: its rate
		// AND its eviction count, so the columns describe the same run.
		order := make([]int, trials)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return rates[order[a]] < rates[order[b]] })
		mid := order[trials/2]
		rate := rates[mid]
		if nodes == 1 {
			base = rate
		}
		t.AddRow(
			"ingest",
			d(nodes),
			f(rate),
			fmt.Sprintf("%.2fx", rate/base),
			d(evicted[mid]),
			"-", "-",
		)
	}

	// ---- Phase 2: kill-and-rejoin recovery vs a single-store oracle ----
	exact := store.Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
	protos := map[string]store.Prototype{}
	mk := func(name string, p store.Prototype, err error) {
		if err != nil {
			panic(err)
		}
		protos[name] = p
	}
	hll, err := store.NewDistinctProto(12, 11)
	mk("uniq", hll, err)
	cm, err := store.NewFreqProto(256, 4, 11)
	mk("hits", cm, err)
	qd, err := store.NewQuantileProto(16, 64)
	mk("lat", qd, err)

	c, err := dstore.New(dstore.Config{Partitions: 8, Store: exact})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	for name, p := range protos {
		if err := c.RegisterMetric(name, p); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := c.StartNode(); err != nil {
			panic(err)
		}
	}
	rng := workload.NewRNG(909)
	z := workload.NewZipf(rng, 48, 1.2)
	r := c.Router()
	var to int64
	for i := 0; i < 4000; i++ {
		to = int64(i)
		key := fmt.Sprintf("k%d", z.Draw())
		item := fmt.Sprintf("u%d", rng.Uint64()%4096)
		val := rng.Uint64() % 50000
		if err := r.ObserveBatch([]store.Observation{
			{Metric: "uniq", Key: key, Item: item, Time: to},
			{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: to},
			{Metric: "lat", Key: key, Value: val, Time: to},
		}); err != nil {
			panic(err)
		}
	}
	if err := c.Drain(); err != nil {
		panic(err)
	}
	oracle, _, err := store.Rebuild(exact, protos, c.Topic())
	if err != nil {
		panic(err)
	}

	compare := func() (checked, mismatch int) {
		// One multi-metric, multi-key request per side replaces 3 x N point
		// queries: the cluster side fans out to owning nodes (one batched
		// store query each), the oracle side gathers per shard.
		req := store.QueryRequest{
			Metrics: []string{"uniq", "hits", "lat"},
			Keys:    oracle.Keys("uniq"),
			From:    0, To: to + 1,
		}
		cres, err := r.Query(req)
		if err != nil {
			panic(err)
		}
		ores, err := oracle.Query(req)
		if err != nil {
			panic(err)
		}
		ca, oa := cres.Answers(), ores.Answers()
		for i, c := range ca {
			o := oa[i]
			switch c.Metric {
			case "uniq":
				if c.Distinct() != o.Distinct() {
					mismatch++
				}
				checked++
			case "hits":
				for u := 0; u < 8; u++ {
					item := fmt.Sprintf("u%d", u)
					if c.Count(item) != o.Count(item) {
						mismatch++
					}
					checked++
				}
			case "lat":
				for _, phi := range []float64{0.5, 0.9, 0.99} {
					if c.Quantile(phi) != o.Quantile(phi) {
						mismatch++
					}
					checked++
				}
			}
		}
		return checked, mismatch
	}

	phase := func(label string, nodes int) {
		checked, mismatch := compare()
		t.AddRow(label, d(nodes), "-", "-", "-", d(checked), d(mismatch))
	}
	phase("steady", 4)

	victim := c.NodeNames()[1]
	if err := c.StopNode(victim); err != nil {
		panic(err)
	}
	if err := c.Drain(); err != nil {
		panic(err)
	}
	phase("after kill", 3)

	if _, err := c.StartNode(); err != nil {
		panic(err)
	}
	if err := c.Drain(); err != nil {
		panic(err)
	}
	phase("after rejoin", 4)

	return t
}
