package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/freelist"
	"repro/internal/mqlog"
)

// The store's central claim is that many writers and many readers are
// safe together: writers lock only their shard, readers snapshot sealed
// buckets and merge them outside any lock. Run a write-heavy mixed load
// across shards, keys and advancing time (so sealing, ring rotation,
// copy-on-write late writes and eviction all trigger) with concurrent
// range queries, under -race in CI.
func TestConcurrentWritersAndReaders(t *testing.T) {
	st := mustStore(t, Config{
		Shards:        8,
		BucketWidth:   10,
		RingBuckets:   16,
		MaxShardBytes: 1 << 20,
	})
	hll, _ := NewDistinctProto(10, 99)
	topk, _ := NewTopKProto(32)
	quant, _ := NewQuantileProto(16, 32)
	st.RegisterMetric("uniq", hll)
	st.RegisterMetric("top", topk)
	st.RegisterMetric("lat", quant)

	const (
		writers  = 8
		readers  = 4
		perGoro  = 5000
		keySpace = 64
	)
	var wg sync.WaitGroup
	var writeErrs, readErrs atomic.Uint64
	// One shared stream clock across writers, as a real ingest tier would
	// see: mostly-advancing time with a late-write minority, so sealed
	// buckets see copy-on-write while readers hold their snapshots.
	var clock atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				ts := clock.Add(1)
				if i%17 == 0 && ts > 40 {
					ts -= 40
				}
				key := fmt.Sprintf("k%d", (w*perGoro+i)%keySpace)
				metric := [...]string{"uniq", "top", "lat"}[i%3]
				obs := Observation{
					Metric: metric,
					Key:    key,
					Item:   fmt.Sprintf("item%d", i%500),
					Value:  uint64(i % 1000),
					Time:   ts,
				}
				if err := st.ObserveBatch([]Observation{obs}); err != nil {
					writeErrs.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				key := fmt.Sprintf("k%d", (r*perGoro+i)%keySpace)
				metric := [...]string{"uniq", "top", "lat"}[i%3]
				syn, err := queryPoint(st, metric, key, 0, int64(writers*perGoro))
				if err != nil {
					readErrs.Add(1)
					continue
				}
				// Exercise the result so the merged synopsis is actually
				// read, not just constructed.
				switch s := syn.(type) {
				case *Distinct:
					_ = s.Estimate()
				case *TopK:
					_ = s.Top(5)
				case *Quantiles:
					_ = s.Quantile(0.99)
				}
			}
		}(r)
	}
	wg.Wait()
	if writeErrs.Load() != 0 || readErrs.Load() != 0 {
		t.Fatalf("write errors %d, read errors %d", writeErrs.Load(), readErrs.Load())
	}
	stats := st.Stats()
	total := uint64(writers * perGoro)
	if stats.Observed+stats.DroppedLate != total {
		t.Fatalf("observed %d + dropped %d != %d", stats.Observed, stats.DroppedLate, total)
	}
	// The shared clock keeps every writer inside the retention window, so late
	// drops stay a small minority even under scheduler skew.
	if stats.Observed < total*9/10 {
		t.Fatalf("only %d of %d writes absorbed", stats.Observed, total)
	}
	if stats.Queries != readers*perGoro {
		t.Fatalf("queries %d, want %d", stats.Queries, readers*perGoro)
	}
	// Post-hoc sanity: with all writers done, a full-range query per key
	// answers without error and the store is internally consistent.
	for _, metric := range st.Metrics() {
		for _, key := range st.Keys(metric) {
			if _, err := queryPoint(st, metric, key, 0, int64(writers*perGoro)); err != nil {
				t.Fatalf("post-run query %s/%s: %v", metric, key, err)
			}
		}
	}
}

// Replay and Rebuild are the batch layer; today they also run against
// stores that are concurrently absorbing live traffic (warming a store
// while it serves, rebuilding while producers keep appending). Race the
// three against each other — live writers into the same store a replay
// is feeding, producers appending to the topic mid-replay, and a Rebuild of
// an independent store from the same topic — under -race in CI.
func TestReplayRebuildConcurrentWithObserve(t *testing.T) {
	broker := mqlog.NewBroker()
	topic, err := broker.CreateTopic("events", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const prefill = 4000
	mkObs := func(i int) Observation {
		return Observation{
			Metric: "uniques",
			Key:    fmt.Sprintf("k%d", i%7),
			Item:   fmt.Sprintf("i%d", i%900),
			Time:   int64(i % 1000),
		}
	}
	for i := 0; i < prefill; i++ {
		obs := mkObs(i)
		topic.Produce(obs.Key, EncodeObservation(obs))
	}

	live := mustStore(t, Config{Shards: 8, BucketWidth: 10, RingBuckets: 128})
	registerUniques(t, live)

	var wg sync.WaitGroup
	var replayed atomic.Uint64
	var rebuilt atomic.Uint64
	// Live writers into the same store the replay is warming: two write
	// one observation at a time, two in batches of 25.
	const liveWrites = 6000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []Observation
			for i := 0; i < liveWrites/4; i++ {
				obs := mkObs(prefill + w*liveWrites/4 + i)
				if w%2 == 0 {
					if err := live.ObserveBatch([]Observation{obs}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if batch = append(batch, obs); len(batch) == 25 {
					if err := live.ObserveBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
		}(w)
	}
	// Producers appending while the replay below runs: the replay clamps to
	// the end offsets it snapshots, so these belong to live ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			obs := mkObs(prefill + liveWrites + i)
			topic.Produce(obs.Key, EncodeObservation(obs))
		}
	}()
	// Replay the retained prefix into the live store, racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := replayAll(live, topic)
		if err != nil {
			t.Error(err)
			return
		}
		replayed.Store(n)
	}()
	// And rebuild an independent store from the same topic, racing the
	// producers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hll, _ := NewDistinctProto(12, 42)
		st, n, err := Rebuild(Config{Shards: 4, BucketWidth: 10, RingBuckets: 128},
			map[string]Prototype{"uniques": hll}, topic)
		if err != nil {
			t.Error(err)
			return
		}
		if got := st.Stats(); got.Observed != n {
			t.Errorf("rebuilt store observed %d, replay returned %d", got.Observed, n)
		}
		rebuilt.Store(n)
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if replayed.Load() < prefill {
		t.Fatalf("replay applied %d, want at least the %d prefilled", replayed.Load(), prefill)
	}
	if rebuilt.Load() < prefill {
		t.Fatalf("rebuild applied %d, want at least the %d prefilled", rebuilt.Load(), prefill)
	}
	stats := live.Stats()
	want := replayed.Load() + liveWrites
	if stats.Observed+stats.DroppedLate != want {
		t.Fatalf("live store observed %d + dropped %d != replayed %d + live %d",
			stats.Observed, stats.DroppedLate, replayed.Load(), liveWrites)
	}
	// The store stays queryable and consistent after the combined load.
	for _, key := range live.Keys("uniques") {
		if _, err := queryPoint(live, "uniques", key, 0, 2000); err != nil {
			t.Fatalf("post-run query %s: %v", key, err)
		}
	}
}

// Registration racing with reads of the metric table must be safe too
// (the table has its own lock, separate from the shard locks).
func TestConcurrentRegistrationAndIngest(t *testing.T) {
	st := mustStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 8})
	base, _ := NewDistinctProto(10, 1)
	st.RegisterMetric("m0", base)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proto, _ := NewDistinctProto(10, uint64(g+2))
			st.RegisterMetric(fmt.Sprintf("m%d", g+1), proto)
			for i := 0; i < 2000; i++ {
				st.ObserveBatch([]Observation{{Metric: "m0", Key: "k", Item: fmt.Sprintf("i%d", i), Time: int64(i)}})
				st.Metrics()
			}
		}(g)
	}
	wg.Wait()
	if got := len(st.Metrics()); got != 5 {
		t.Fatalf("metrics %d, want 5", got)
	}
}

// Goroutines that meet Prototypes for the first time at once, each
// asking for every one of them, get one free list of gathers per
// Prototype value: equal values share a list, whichever goroutine added
// it, and distinct values never do. Run under -race.
func TestGatherListOnePerPrototypeUnderConcurrency(t *testing.T) {
	const workers, protos = 8, 64
	got := make([][]*freelist.List[gather], workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range protos {
				// Seeds no other test uses, so in a fresh process every
				// list starts absent; each worker walks the Prototypes
				// from its own offset.
				j := (i + w*protos/workers) % protos
				got[w] = append(got[w], Prototype{Family: FamilyFreq, Width: 64, Depth: 2, Seed: 1<<40 + uint64(j)}.gathers())
			}
		}()
	}
	wg.Wait()
	seen := make(map[*freelist.List[gather]]int)
	for w := range got {
		for i, l := range got[w] {
			j := (i + w*protos/workers) % protos
			if first, ok := seen[l]; ok && first != j {
				t.Fatalf("Prototypes %d and %d share a list", first, j)
			}
			seen[l] = j
			if l != (Prototype{Family: FamilyFreq, Width: 64, Depth: 2, Seed: 1<<40 + uint64(j)}).gathers() {
				t.Fatalf("worker %d holds a list for Prototype %d that lost the race", w, j)
			}
		}
	}
	if len(seen) != protos {
		t.Fatalf("%d lists for %d Prototypes", len(seen), protos)
	}
}
