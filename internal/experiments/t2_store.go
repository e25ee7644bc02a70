package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quantile"
	"repro/internal/store"
	"repro/internal/workload"
)

// T2_4_SketchStore measures the sharded sketch store as a serving system,
// at shard counts 1/4/16/64 under two key distributions, in two phases per
// row: an ingest phase (16 parallel writers) and a serving phase (writers
// keep ingesting while readers issue range merge-queries). The tutorial's
// Section 3 point is that the speed layer's state store — not the sketch —
// is where write-heavy concurrency lives. Sharding shrinks the lock
// domain: with one shard, every preemption of a lock holder stalls every
// writer; with N shards, only the writers colliding on that shard. On
// uniform keys ingest throughput therefore rises from 1 to 16 shards; on
// Zipf-skewed keys the hottest keys serialize on their home shards and cap
// the win — the limitation that leads production stores to split or
// replicate hot keys, and that this store meets by amortizing the shard
// lock over batched writes (ObserveBatch) instead. GOMAXPROCS is raised
// to the writer count for the measurement so lock holders genuinely get
// timesliced mid-critical-section even on small containers — the regime a deployed multi-threaded
// store actually runs in (on a multi-core box the same contention appears
// without the override; see BenchmarkStoreIngest).
func T2_4_SketchStore() Table {
	t := Table{
		ID:     "T2.4",
		Title:  "Sharded sketch store: concurrent ingest + merge-query serving",
		Claim:  "per-shard locking scales ingest 1 -> 16 shards on uniform keys (Zipf hot keys cap the win); snapshot queries stay fast under ingest",
		Header: []string{"shards", "keys", "ingest/sec", "queries/sec", "query-p50-us", "query-p99-us"},
	}
	const (
		writers   = 16
		perWriter = 25000
		readers   = 4
		perReader = 300
		keySpace  = 128
	)
	prev := runtime.GOMAXPROCS(writers)
	defer runtime.GOMAXPROCS(prev)

	// Pre-generate workloads so the measured sections are store cost, not
	// generator cost.
	uniform := make([]string, writers*perWriter)
	for i := range uniform {
		uniform[i] = fmt.Sprintf("k%d", i%keySpace)
	}
	zipf := make([]string, writers*perWriter)
	rng := workload.NewRNG(404)
	z := workload.NewZipf(rng, keySpace, 1.1)
	for i := range zipf {
		zipf[i] = fmt.Sprintf("k%d", z.Draw())
	}
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("u%d", i)
	}

	for _, shards := range []int{1, 4, 16, 64} {
		for _, dist := range []struct {
			name string
			keys []string
		}{{"uniform", uniform}, {"zipf", zipf}} {
			st, err := store.New(store.Config{Shards: shards, BucketWidth: 50, RingBuckets: 64})
			if err != nil {
				panic(err)
			}
			proto, err := store.NewDistinctProto(12, 7)
			if err != nil {
				panic(err)
			}
			if err := st.RegisterMetric("uniq", proto); err != nil {
				panic(err)
			}
			var clock atomic.Int64
			write := func(i int) {
				ts := clock.Add(1)
				if err := st.ObserveBatch([]store.Observation{{
					Metric: "uniq",
					Key:    dist.keys[i%len(dist.keys)],
					Item:   items[i%len(items)],
					Time:   ts,
				}}); err != nil {
					panic(err)
				}
			}

			// Phase A: ingest only — throughput vs shard count.
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						write(w*perWriter + i)
					}
				}(w)
			}
			wg.Wait()
			ingestSecs := time.Since(start).Seconds()

			// Phase B: serving under ingest — half the writers stream on
			// while readers issue bounded batches of range merge-queries
			// over recent history.
			stop := make(chan struct{})
			var bg sync.WaitGroup
			for w := 0; w < writers/2; w++ {
				bg.Add(1)
				go func(w int) {
					defer bg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							write(w*perWriter + i)
						}
					}
				}(w)
			}
			qlat, _ := quantile.NewGK(0.01)
			var qmu sync.Mutex
			var rwg sync.WaitGroup
			qstart := time.Now()
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(r int) {
					defer rwg.Done()
					for i := 0; i < perReader; i++ {
						now := clock.Load()
						from := now - 2000
						if from < 0 {
							from = 0
						}
						q0 := time.Now()
						if _, err := st.Query(context.Background(), store.PointRequest("uniq", dist.keys[(r*7919+i*31)%len(dist.keys)], from, now)); err != nil {
							panic(err)
						}
						us := float64(time.Since(q0).Microseconds())
						qmu.Lock()
						qlat.Update(us)
						qmu.Unlock()
					}
				}(r)
			}
			rwg.Wait()
			querySecs := time.Since(qstart).Seconds()
			close(stop)
			bg.Wait()

			t.AddRow(
				fmt.Sprintf("%d", shards),
				dist.name,
				f(float64(writers*perWriter)/ingestSecs),
				f(float64(readers*perReader)/querySecs),
				f(qlat.Query(0.50)),
				f(qlat.Query(0.99)),
			)
		}
	}
	return t
}
