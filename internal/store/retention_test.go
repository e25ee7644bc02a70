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
// newest, and a slot slice whose capacity never passes the window. The
// history holds each bucket once, not also as a slot, in ascending
// order; its records lie in the arena without overlap and their lengths
// sum to the arena's live bytes; and no sealed slot has a payload it
// should have left for the history (which keeps every sealed q-digest of
// a range in ascending order). It also holds the byte accounting to what
// the buckets report: an entry's bytes are the sum of its slots'
// syn.Bytes() plus its history's live record bytes and index, and a
// shard's the sum of its entries'.
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
				if _, ok := sl.syn.appendPayload(nil); ok && sl.sealed() {
					t.Fatalf("%s/%s: sealed bucket %d (%T) kept as a slot, not in the history", k.metric, k.key, sl.idx(), sl.syn)
				}
				entryBytes += sl.syn.Bytes()
			}
			h := &e.hist
			type span struct{ lo, hi int }
			var spans []span
			live := 0
			for j, r := range h.index {
				bkt := h.bkt(r)
				if j > 0 && h.bkt(h.index[j-1]) >= bkt {
					t.Fatalf("%s/%s: history buckets %d, %d out of order", k.metric, k.key, h.bkt(h.index[j-1]), bkt)
				}
				if bkt <= e.newest()-int64(ring) {
					t.Fatalf("%s/%s: history bucket %d behind the window of newest %d", k.metric, k.key, bkt, e.newest())
				}
				if _, held := e.find(bkt); held {
					t.Fatalf("%s/%s: bucket %d held both as a slot and in the history", k.metric, k.key, bkt)
				}
				_, size := h.record(r)
				spans = append(spans, span{r.off(), r.off() + size})
				live += size
			}
			slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
			for j := 1; j < len(spans); j++ {
				if spans[j].lo < spans[j-1].hi {
					t.Fatalf("%s/%s: history records overlap at arena offset %d", k.metric, k.key, spans[j].lo)
				}
			}
			if n := len(spans); n > 0 && spans[n-1].hi > len(h.arena) {
				t.Fatalf("%s/%s: a history record ends at %d, past the arena's %d bytes", k.metric, k.key, spans[n-1].hi, len(h.arena))
			}
			if live != len(h.arena)-h.dead {
				t.Fatalf("%s/%s: history records hold %d bytes, the arena %d less %d dead", k.metric, k.key, live, len(h.arena), h.dead)
			}
			entryBytes += live + refSize*len(h.index)
			if e.bytes != entryBytes {
				t.Fatalf("%s/%s: entry accounts %d bytes, its synopses and history report %d", k.metric, k.key, e.bytes, entryBytes)
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
// buckets each — every series' bucket storage, its slots and its history
// index, is at most twice the buckets it holds. A preallocated ring took
// 256 slots per series; since sealed compact buckets went to the
// history, only the top-pages series keeps its sealed buckets in slots.
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
	series, held, slots, refs := 0, 0, 0, 0
	for _, sh := range st.shards {
		for k, e := range sh.entries {
			n := len(e.slots) + len(e.hist.index)
			if n != buckets {
				t.Fatalf("%s/%s holds %d buckets, want %d", k.metric, k.key, n, buckets)
			}
			if cap(e.slots)+cap(e.hist.index) > 2*n {
				t.Fatalf("%s/%s: %d slots and %d index words for %d held buckets", k.metric, k.key, cap(e.slots), cap(e.hist.index), n)
			}
			series++
			held += n
			slots += cap(e.slots)
			refs += cap(e.hist.index)
		}
	}
	if series != 3*pages+1 {
		t.Fatalf("%d series, want %d", series, 3*pages+1)
	}
	size := int(unsafe.Sizeof(slot{}))
	t.Logf("%d series hold %d buckets in %d slots and %d index words: %d bytes, %d as %d-slot rings",
		series, held, slots, refs, slots*size+refs*refSize, series*ring*size, ring)
}
