package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/frequency"
	"repro/internal/workload"
)

// topkStore writes Zipf (s = 1.1) items from a 100-item universe into the
// k = 8 top-k metric "top" under keys, 60 events per key and bucket over
// buckets buckets of width 10, so that every bucket is full; the newest
// bucket stays open.
func topkStore(t *testing.T, seed uint64, buckets int, keys ...string) (*Store, Prototype) {
	t.Helper()
	st := mustStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 256})
	proto, err := NewTopKProto(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("top", proto); err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(seed)
	zipf := workload.NewZipf(rng, 100, 1.1)
	var batch []Observation
	for b := 0; b < buckets; b++ {
		batch = batch[:0]
		for _, key := range keys {
			for i := 0; i < 60; i++ {
				batch = append(batch, Observation{Metric: "top", Key: key, Item: fmt.Sprintf("i%02d", zipf.Draw()), Time: int64(b*10 + i%10)})
			}
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return st, proto
}

// A top-k range answer is one k-way merge of its buckets: byte for byte
// the frequency.Merger result and CombineSnapshots of the buckets, under
// every shuffle of them, with the open bucket among them. So is an
// aggregate of the per-key answers. The pairwise fold of the same
// buckets changes with their order, so the test tells it apart.
func TestTopKRangeMergesOnceInAnyOrder(t *testing.T) {
	const buckets = 40
	ctx := context.Background()
	foldDiffered := false
	for seed := uint64(1); seed <= 3; seed++ {
		st, proto := topkStore(t, seed, buckets, "all", "b", "c")
		res, err := st.Query(ctx, QueryRequest{Metric: "top", Key: "all", From: 0, To: buckets * 10})
		if err != nil {
			t.Fatal(err)
		}
		want := marshal(t, res.Raw())
		if res.Raw().compacted() != nil {
			t.Fatalf("seed %d: the range answer is not flat", seed)
		}

		// The parts: one single-bucket answer per bucket, each the bucket
		// itself (a merge of one part truncates nothing).
		parts := make([]Synopsis, buckets)
		for b := range parts {
			one, err := st.Query(ctx, QueryRequest{Metric: "top", Key: "all", From: int64(b * 10), To: int64(b*10 + 10)})
			if err != nil {
				t.Fatal(err)
			}
			parts[b] = one.Raw()
			if top := one.TopK(8); len(top) != 8 {
				t.Fatalf("seed %d: bucket %d holds %d counters, not a full summary's 8", seed, b, len(top))
			}
		}
		foldWant := marshal(t, foldParts(t, proto, parts))
		rng := workload.NewRNG(seed)
		shuffled := make([]Synopsis, buckets)
		for trial := 0; trial < 30; trial++ {
			for i, j := range rng.Perm(buckets) {
				shuffled[i] = parts[j]
			}
			comb, err := CombineSnapshots(proto, shuffled...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, comb), want) {
				t.Fatalf("seed %d shuffle %d: CombineSnapshots of the buckets differs from the range answer", seed, trial)
			}
			var m frequency.Merger
			for _, p := range shuffled {
				if err := m.Add(p.(*TopK).ss); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := m.Result().MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d shuffle %d: the k-way merge of the buckets differs from the range answer", seed, trial)
			}
			foldDiffered = foldDiffered || !bytes.Equal(marshal(t, foldParts(t, proto, shuffled)), foldWant)
		}

		// An aggregate is the k-way merge of the per-key answers, in any
		// key order.
		agg, err := st.Query(ctx, QueryRequest{Metric: "top", Keys: []string{"all", "b", "c"}, From: 0, To: buckets * 10, Aggregate: true})
		if err != nil {
			t.Fatal(err)
		}
		perKey, err := st.Query(ctx, QueryRequest{Metric: "top", Keys: []string{"all", "b", "c"}, From: 0, To: buckets * 10})
		if err != nil {
			t.Fatal(err)
		}
		syns := perKey.RawSynopses()
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
			comb, err := CombineSnapshots(proto, syns[order[0]], syns[order[1]], syns[order[2]])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, comb), marshal(t, agg.Raw())) {
				t.Fatalf("seed %d: key order %v combines differently from the aggregate", seed, order)
			}
		}
	}
	if !foldDiffered {
		t.Fatal("the pairwise fold gave one answer under every shuffle: these buckets do not tell an order-dependent merge apart")
	}
}

// foldParts merges parts pairwise, in order, into a fresh accumulator.
func foldParts(t *testing.T, proto Prototype, parts []Synopsis) Synopsis {
	t.Helper()
	acc := proto.New()
	for _, p := range parts {
		if err := acc.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// A top-k answer covers what its range held: the overestimate and
// heavy-hitter guarantees of frequency.Merger against the exact counts of
// the range, with the open bucket in it.
func TestTopKRangeKeepsGuarantees(t *testing.T) {
	const buckets = 64
	st, _ := topkStore(t, 7, buckets, "all")
	res, err := st.Query(context.Background(), QueryRequest{Metric: "top", Key: "all", From: 0, To: buckets * 10})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the writes for the exact counts.
	rng := workload.NewRNG(7)
	zipf := workload.NewZipf(rng, 100, 1.1)
	exact := map[string]uint64{}
	for i := 0; i < buckets*60; i++ {
		exact[fmt.Sprintf("i%02d", zipf.Draw())]++
	}
	n := uint64(buckets * 60)
	if res.Items() != n {
		t.Fatalf("the answer absorbed %d observations, want %d", res.Items(), n)
	}
	held := map[string]bool{}
	for _, c := range res.TopK(8) {
		held[c.Item] = true
		if x := exact[c.Item]; c.Count < x || c.Count-c.Err > x || c.Err*8 > n {
			t.Fatalf("%s counted %d (err %d), exact %d, N/k = %d/8", c.Item, c.Count, c.Err, x, n)
		}
	}
	for item, x := range exact {
		if x*8 > n && !held[item] {
			t.Fatalf("lost %s, exact %d > N/k = %d/8", item, x, n)
		}
	}
}
