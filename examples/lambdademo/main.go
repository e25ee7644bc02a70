// Command lambdademo walks through the store-backed Figure 1 Lambda
// Architecture end to end: observations are dispatched to the immutable
// mqlog master topic and the sketch-store speed layer, batch views are
// periodically recomputed from the log up to frozen end offsets, and
// queries merge the sealed batch view with the live speed snapshot. It
// prints, at each stage, what a batch-only system would answer versus
// what the Lambda merge answers, making the speed layer's contribution
// visible.
package main

import (
	"fmt"

	"repro"
	"repro/internal/workload"
)

func main() {
	geom := repro.SketchStoreConfig{Shards: 8, BucketWidth: 1000, RingBuckets: 64}
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 4, Store: geom})
	if err != nil {
		panic(err)
	}
	defer arch.Close()
	proto, err := repro.NewFreqProto(2048, 4, 9)
	if err != nil {
		panic(err)
	}
	if err := arch.RegisterMetric("hits", proto); err != nil {
		panic(err)
	}

	rng := workload.NewRNG(11)
	keys := workload.NewZipf(rng, 100, 1.2)
	exact := map[string]uint64{}
	now := int64(0)

	appendBurst := func(n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("metric-%d", keys.Draw())
			if err := arch.ObserveBatch([]repro.StoreObservation{{Metric: "hits", Key: k, Item: "hit", Value: 1, Time: now}}); err != nil {
				panic(err)
			}
			exact[k]++
			now++
		}
	}

	probe := "metric-0"
	countStale := func(syn repro.StoreSynopsis, err error) uint64 {
		if err != nil {
			panic(err)
		}
		return syn.(*repro.FreqSynopsis).Count("hit")
	}
	// Merged answers come through the typed serving API: the Count
	// accessor replaces the *FreqSynopsis type assertion.
	count := func(key string) uint64 {
		res, err := arch.Query(repro.QueryRequest{Metric: "hits", Key: key, From: 0, To: now + 1})
		if err != nil {
			panic(err)
		}
		return res.Count("hit")
	}
	report := func(stage string) {
		fmt.Printf("%-28s master=%-7d staleness=%-6d batch-only(%s)=%-6d merged=%-6d exact=%-6d\n",
			stage, arch.MasterLen(), arch.Staleness(), probe,
			countStale(arch.BatchOnlyQuery("hits", probe, 0, now)),
			count(probe), exact[probe])
	}

	appendBurst(20000)
	report("after first burst:")

	if _, err := arch.RunBatch(); err != nil {
		panic(err)
	}
	report("after batch recompute:")

	appendBurst(15000)
	report("speed layer absorbing:")

	if _, err := arch.RunBatch(); err != nil {
		panic(err)
	}
	report("second batch recompute:")

	appendBurst(5000)
	report("fresh events again:")

	// Verify the Lambda contract over every key: merged == exact (the
	// counter series are collision-free at this width, so the Count-Min
	// answers are exact, and the offset fence guarantees no double count).
	mismatches := 0
	for k, v := range exact {
		if count(k) != v {
			mismatches++
		}
	}
	fmt.Printf("contract check over %d keys: mismatches=%d\n", len(exact), mismatches)
}
