package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quantile"
	"repro/internal/store"
	"repro/internal/workload"
)

// T2_5_HotKeySplay measures the hot-key mitigation T2.4 motivates: the
// same 16-writer ingest phase, on Zipf-keyed traffic at two skews, with
// the store's hot-key splaying off (baseline) and on. The baseline's hot
// keys serialize on their home shard's lock, so adding shards stops
// helping; with splaying enabled the store detects them with per-shard
// Space-Saving trackers and spreads their writes across R sub-entries on
// distinct shards, re-merged lazily at query time — the split/replicate
// strategy production stores use, made safe here by the mergeable-
// summaries property of every bucket synopsis. The speedup column is the
// acceptance gate: at 16 shards splayed ingest must beat baseline by well
// over 1x (deterministic equality of splayed vs unsplayed answers is
// asserted by TestHotKeyLifecycleMatchesControl in internal/store).
func T2_5_HotKeySplay() Table {
	t := Table{
		ID:     "T2.5",
		Title:  "Hot-key write splaying: Zipf ingest, baseline vs splayed",
		Claim:  "splaying hot keys across shards recovers the ingest scaling Zipf skew destroys (>= 1.5x at 16 shards)",
		Header: []string{"shards", "zipf-s", "baseline/sec", "splayed/sec", "speedup", "hot-keys", "splayed-writes"},
	}
	const (
		writers   = 16
		perWriter = 50000 // long enough that detection warmup is noise
		keySpace  = 128
	)
	prev := runtime.GOMAXPROCS(writers)
	defer runtime.GOMAXPROCS(prev)

	keysFor := func(seed uint64, skew float64) []string {
		keys := make([]string, writers*perWriter)
		rng := workload.NewRNG(seed)
		z := workload.NewZipf(rng, keySpace, skew)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", z.Draw())
		}
		return keys
	}
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("u%d", i)
	}

	ingest := func(shards int, keys []string, hot store.HotKeyConfig) (float64, store.Stats) {
		st, err := store.New(store.Config{Shards: shards, BucketWidth: 50, RingBuckets: 64, HotKey: hot})
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
		runtime.GC() // start every trial from a settled heap
		var clock atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					n := w*perWriter + i
					if err := st.Observe(store.Observation{
						Metric: "uniq",
						Key:    keys[n%len(keys)],
						Item:   items[n%len(items)],
						Time:   clock.Add(1),
					}); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(writers*perWriter) / time.Since(start).Seconds(), st.Stats()
	}
	// A sub-second trial is at the mercy of scheduler and GC timing with
	// GOMAXPROCS raised past the physical cores, so each cell reports the
	// median of five trials, and baseline/splayed trials interleave so
	// drift in the container's effective speed cancels instead of biasing
	// whichever column ran second.
	const trials = 5
	median := func(rates []float64, stats []store.Stats) (float64, store.Stats) {
		order := make([]int, len(rates))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return rates[order[a]] < rates[order[b]] })
		mid := order[len(order)/2]
		return rates[mid], stats[mid]
	}

	// The key streams are shard-independent; build one per skew up front
	// instead of re-generating 800k strings for every shard count.
	keysBySkew := map[float64][]string{}
	for _, skew := range []float64{1.1, 1.5} {
		keysBySkew[skew] = keysFor(505, skew)
	}

	for _, shards := range []int{1, 4, 16, 64} {
		for _, skew := range []float64{1.1, 1.5} {
			keys := keysBySkew[skew]
			baseRates := make([]float64, trials)
			baseStats := make([]store.Stats, trials)
			splayRates := make([]float64, trials)
			splayStats := make([]store.Stats, trials)
			for i := 0; i < trials; i++ {
				baseRates[i], baseStats[i] = ingest(shards, keys, store.HotKeyConfig{})
				// Deliberately broad promotion (low PromotePct, high
				// MaxHot): on a 128-key Zipf stream nearly every key
				// clears the bar eventually, so the hot-keys column shows
				// the whole keyspace splayed — write combining pays for
				// medium keys too, and MaxHot is the actual guard rail.
				splayRates[i], splayStats[i] = ingest(shards, keys, store.HotKeyConfig{Replicas: 16, MaxHot: 256, PromotePct: 2, EpochWrites: 512})
			}
			base, _ := median(baseRates, baseStats)
			splay, stats := median(splayRates, splayStats)
			t.AddRow(
				fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.1f", skew),
				f(base),
				f(splay),
				fmt.Sprintf("%.2fx", splay/base),
				d(int64(stats.HotKeys)),
				d(stats.SplayedWrites),
			)
		}
	}
	return t
}

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
// the win — the known limitation that leads production stores to split or
// replicate hot keys. GOMAXPROCS is raised to the writer count for the
// measurement so lock holders genuinely get timesliced mid-critical-
// section even on small containers — the regime a deployed multi-threaded
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
				if err := st.Observe(store.Observation{
					Metric: "uniq",
					Key:    dist.keys[i%len(dist.keys)],
					Item:   items[i%len(items)],
					Time:   ts,
				}); err != nil {
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
						if _, err := st.Query(store.PointRequest("uniq", dist.keys[(r*7919+i*31)%len(dist.keys)], from, now)); err != nil {
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
