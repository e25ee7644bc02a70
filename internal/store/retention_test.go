package store

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// checkHeld holds every entry of st to the held-bucket layout: buckets in
// strictly ascending order, all inside the retention window behind the
// newest, and a slice whose capacity never passes the window. It also
// holds the byte accounting to what the synopses report: an entry's bytes
// are the sum of its slots' syn.Bytes(), and a shard's the sum of its
// entries'.
func checkHeld(t *testing.T, st *Store) {
	t.Helper()
	ring := st.cfg.RingBuckets
	for si, sh := range st.shards {
		sh.mu.RLock()
		shardBytes := 0
		for k, e := range sh.entries {
			if cap(e.slots) > ring {
				t.Fatalf("%s/%s: cap(slots) %d past RingBuckets %d", k.metric, k.key, cap(e.slots), ring)
			}
			entryBytes := 0
			for i := range e.slots {
				sl := &e.slots[i]
				if i > 0 && e.slots[i-1].idx() >= sl.idx() {
					t.Fatalf("%s/%s: buckets %d, %d out of order", k.metric, k.key, e.slots[i-1].idx(), sl.idx())
				}
				if sl.idx() <= e.newest()-int64(ring) {
					t.Fatalf("%s/%s: bucket %d held behind the window of newest %d", k.metric, k.key, sl.idx(), e.newest())
				}
				entryBytes += sl.syn.Bytes()
			}
			if e.bytes != entryBytes {
				t.Fatalf("%s/%s: entry accounts %d bytes, its synopses report %d", k.metric, k.key, e.bytes, entryBytes)
			}
			shardBytes += e.bytes
		}
		if sh.bytes != shardBytes {
			t.Fatalf("shard %d accounts %d bytes, its entries %d", si, sh.bytes, shardBytes)
		}
		sh.mu.RUnlock()
	}
}

// retained is one accepted observation of the naive retention model.
type retained struct {
	bkt   int64
	item  string
	value uint64
}

// retentionModel is the retention rule stated plainly, per series: a write
// more than the window behind the series' newest bucket is dropped; the
// series serves the accepted writes whose bucket is inside the window
// behind its newest.
type retentionModel struct {
	ring   int64
	newest map[entryKey]int64
	obs    map[entryKey][]retained
	drops  uint64
}

func (m *retentionModel) observe(o Observation, width int64) {
	k := entryKey{metric: o.Metric, key: o.Key}
	bkt := o.Time / width
	newest, seen := m.newest[k]
	if seen && bkt <= newest-m.ring {
		m.drops++
		return
	}
	if !seen || bkt > newest {
		m.newest[k] = bkt
	}
	m.obs[k] = append(m.obs[k], retained{bkt: bkt, item: o.Item, value: o.Value})
}

// answer recomputes the series' answer over buckets [fromB, toB] from the
// retained observations, fed one by one into a fresh synopsis.
func (m *retentionModel) answer(k entryKey, proto Prototype, fromB, toB int64) Synopsis {
	syn := proto.New()
	horizon := m.newest[k] - m.ring
	for _, o := range m.obs[k] {
		if o.bkt > horizon && o.bkt >= fromB && o.bkt <= toB {
			syn.Observe(o.item, o.value)
		}
	}
	return syn
}

// TestRetentionMatchesNaiveModel drives a seeded stream over more than
// three windows of buckets — with gaps, late writes into held buckets,
// late writes into never-held buckets inside the window and writes too
// late to keep — and holds the store to the naive model: the same late
// drops, and HyperLogLog and Count-Min range answers whose Items,
// Distinct and Count equal a recompute from the retained observations.
// HyperLogLog and Count-Min merges are exact, so equality is exact.
func TestRetentionMatchesNaiveModel(t *testing.T) {
	const (
		width, ring = 10, 16
		span        = 4 * ring // buckets the clock crosses
	)
	st := mustStore(t, Config{Shards: 2, BucketWidth: width, RingBuckets: ring})
	hll, _ := NewDistinctProto(12, 5)
	cm, _ := NewFreqProto(256, 4, 5)
	protos := map[string]Prototype{"uniq": hll, "hits": cm}
	for name, p := range protos {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	model := &retentionModel{ring: ring, newest: map[entryKey]int64{}, obs: map[entryKey][]retained{}}
	keys := []string{"a", "b", "c"}
	rng := workload.NewRNG(43)
	// At the clock, after a gap, late into a held bucket, late into a
	// never-held bucket inside the window, too late.
	var kinds [5]int
	writes := 0
	verify := func() {
		t.Helper()
		checkHeld(t, st)
		if got := st.Stats().DroppedLate; got != model.drops {
			t.Fatalf("after %d writes: DroppedLate %d, model %d", writes, got, model.drops)
		}
		for _, key := range keys {
			for metric, proto := range protos {
				k := entryKey{metric: metric, key: key}
				newest := model.newest[k]
				for _, r := range [][2]int64{{0, newest}, {newest - ring + 1, newest}, {newest - ring/2, newest - 2}, {newest - ring - 3, newest - ring + 3}} {
					res, err := st.Query(context.Background(), QueryRequest{Metric: metric, Key: key, From: r[0] * width, To: (r[1] + 1) * width})
					if err != nil {
						t.Fatal(err)
					}
					got, want := res.Answers()[0], NewAnswer(metric, key, model.answer(k, proto, r[0], r[1]))
					what := fmt.Sprintf("after %d writes: %s/%s buckets [%d, %d]", writes, metric, key, r[0], r[1])
					if got.Items() != want.Items() || got.Distinct() != want.Distinct() {
						t.Fatalf("%s: items %d distinct %d, model %d %d", what, got.Items(), got.Distinct(), want.Items(), want.Distinct())
					}
					for _, item := range []string{"i0", "i1", "i7"} {
						if got.Count(item) != want.Count(item) {
							t.Fatalf("%s: count(%s) %d, model %d", what, item, got.Count(item), want.Count(item))
						}
					}
				}
			}
		}
	}
	clock := int64(0)
	for clock < span {
		key := keys[rng.Intn(len(keys))]
		var bkt int64
		switch r := rng.Intn(50); {
		case r < 25:
			bkt = clock
		case r < 26:
			clock += 2 + int64(rng.Intn(5)) // a gap: buckets never written
			bkt = clock
			kinds[1]++
		case r < 45:
			bkt = max(clock-1-int64(rng.Intn(ring-1)), 0) // held or never held
		default:
			bkt = max(clock-ring-int64(rng.Intn(ring)), 0) // too late
		}
		if rng.Intn(40) == 0 {
			clock++
		}
		if newest, ok := model.newest[entryKey{metric: "uniq", key: key}]; ok && bkt < newest {
			switch {
			case bkt <= newest-ring:
				kinds[4]++
			case slices.ContainsFunc(model.obs[entryKey{metric: "uniq", key: key}], func(o retained) bool { return o.bkt == bkt }):
				kinds[2]++
			default:
				kinds[3]++
			}
		} else if bkt == clock {
			kinds[0]++
		}
		item := fmt.Sprintf("i%d", rng.Intn(12))
		batch := []Observation{
			{Metric: "uniq", Key: key, Item: item, Time: bkt*width + int64(rng.Intn(width))},
			{Metric: "hits", Key: key, Item: item, Value: uint64(rng.Intn(3)), Time: bkt*width + int64(rng.Intn(width))},
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, o := range batch {
			model.observe(o, width)
		}
		writes++
		if writes%100 == 0 {
			verify()
		}
	}
	verify()
	t.Logf("%d writes: %d at the clock, %d after a gap, %d late into held buckets, %d late into never-held buckets, %d too late; %d observations dropped",
		writes, kinds[0], kinds[1], kinds[2], kinds[3], kinds[4], model.drops)
	for i, n := range kinds {
		if n == 0 {
			t.Fatalf("the stream exercised no write of kind %d", i)
		}
	}
}

// TestSeriesCostsHeldBuckets is the footprint gate of the held-bucket
// layout: with the daemon's 256-bucket window and ingest_zipf's shape —
// 193 series (64 pages of three metrics and one top-pages series) of 11
// buckets each — every series' slot storage is at most twice the buckets
// it holds. A preallocated ring took 256 slots per series.
func TestSeriesCostsHeldBuckets(t *testing.T) {
	const (
		pages, buckets = 64, 11
		width, ring    = 100, 256
	)
	st := mustStore(t, Config{Shards: 8, BucketWidth: width, RingBuckets: ring})
	uniq, _ := NewDistinctProto(12, 42)
	hits, _ := NewFreqProto(1024, 4, 42)
	top, _ := NewTopKProto(32)
	lat, _ := NewQuantileProto(20, 512)
	for name, p := range map[string]Prototype{"uniques": uniq, "page-hits": hits, "top-pages": top, "latency-us": lat} {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	var batch []Observation
	for bkt := int64(0); bkt < buckets; bkt++ {
		batch = batch[:0]
		for p := 0; p < pages; p++ {
			page := fmt.Sprintf("page-%02d", p)
			now := bkt*width + int64(p)
			batch = append(batch,
				Observation{Metric: "uniques", Key: page, Item: fmt.Sprintf("user-%d", p), Time: now},
				Observation{Metric: "page-hits", Key: page, Item: page, Time: now},
				Observation{Metric: "top-pages", Key: "all", Item: page, Time: now},
				Observation{Metric: "latency-us", Key: page, Value: 100 + uint64(p), Time: now},
			)
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	series, held, slots := 0, 0, 0
	for _, sh := range st.shards {
		for k, e := range sh.entries {
			if len(e.slots) != buckets {
				t.Fatalf("%s/%s holds %d buckets, want %d", k.metric, k.key, len(e.slots), buckets)
			}
			if cap(e.slots) > 2*len(e.slots) {
				t.Fatalf("%s/%s: %d slots for %d held buckets", k.metric, k.key, cap(e.slots), len(e.slots))
			}
			series++
			held += len(e.slots)
			slots += cap(e.slots)
		}
	}
	if series != 3*pages+1 {
		t.Fatalf("%d series, want %d", series, 3*pages+1)
	}
	size := int(unsafe.Sizeof(slot{}))
	t.Logf("%d series hold %d buckets in %d slots: %d bytes of slots, %d as %d-slot rings",
		series, held, slots, slots*size, series*ring*size, ring)
}
