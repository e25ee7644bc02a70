// Command trending runs the tutorial's flagship application — trending
// hashtags — as a Storm/Heron-style topology on the engine substrate:
//
//	tweets (spout) --shuffle--> extract (bolt x4) --fields--> count (bolt x4)
//
// Each counting task owns a Space-Saving summary for its key shard (fields
// grouping guarantees a hashtag always lands on the same task), and the
// shards merge at the end — the scale-out pattern the tutorial's
// "algorithms should scale out" requirement describes, with at-least-once
// delivery and injected failures to show the semantics.
package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/workload"
)

func main() {
	const tweets = 100000
	rng := workload.NewRNG(7)
	tags := workload.NewZipf(rng, 2000, 1.25)

	// Spout: synthetic tweets, each with 1-3 hashtags.
	emitted := 0
	spout := repro.SpoutFunc(func() (repro.TupleMessage, bool) {
		if emitted >= tweets {
			return repro.TupleMessage{}, false
		}
		emitted++
		n := 1 + rng.Intn(3)
		var sb strings.Builder
		sb.WriteString("some tweet text")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, " #t%d", tags.Draw())
		}
		return repro.TupleMessage{Value: sb.String()}, true
	})

	// Extract bolt: flaky on purpose — 1 in 500 tuples fails transiently,
	// demonstrating at-least-once replay.
	var injected int64
	extract := func(task int) repro.Bolt {
		n := 0
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			n++
			if n%500 == 250 {
				atomic.AddInt64(&injected, 1)
				return errors.New("transient extract failure")
			}
			for _, tok := range strings.Fields(m.Value.(string)) {
				if strings.HasPrefix(tok, "#") {
					emit(repro.TupleMessage{Key: tok, Value: 1})
				}
			}
			return nil
		})
	}

	// Count bolt: one Space-Saving shard per task.
	const shards = 4
	var mu sync.Mutex
	summaries := make([]*repro.SpaceSaving, shards)
	count := func(task int) repro.Bolt {
		ss, err := repro.NewSpaceSaving(200)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		summaries[task] = ss
		mu.Unlock()
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			ss.Update(m.Key)
			return nil
		})
	}

	top, err := repro.NewTopologyBuilder().
		AddSpout("tweets", spout).
		AddBolt("extract", extract, 4, repro.ShuffleFrom("tweets")).
		AddBolt("count", count, shards, repro.FieldsFrom("extract")).
		Build(repro.TopologyConfig{Semantics: repro.AtLeastOnce, MaxRetries: 5})
	if err != nil {
		panic(err)
	}
	stats := top.Run()

	// Merge shard top-k lists (fields grouping makes shards disjoint by
	// key, so concatenation is a valid merge).
	var all []repro.Counted
	for _, ss := range summaries {
		if ss != nil {
			all = append(all, ss.TopK(20)...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Count > all[j].Count })

	fmt.Printf("tweets: %d   acked: %d   replayed: %d   dropped: %d   injected failures: %d\n",
		stats.SpoutEmitted, stats.Acked, stats.Replayed, stats.Dropped, injected)
	fmt.Println("\ntop-10 trending hashtags across shards:")
	for i, c := range all {
		if i >= 10 {
			break
		}
		fmt.Printf("  %2d. %-8s ~%d occurrences\n", i+1, c.Item, c.Count)
	}
	fmt.Println("\n(at-least-once: counts may include duplicates from replayed tuples;")
	fmt.Println(" the engine's Dedup bolt wrapper, internal/engine, makes them effectively-once)")
}
