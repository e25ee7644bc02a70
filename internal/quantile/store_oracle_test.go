package quantile_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/quantile"
	"repro/internal/store"
	"repro/internal/workload"
)

// Store answers against the map oracle. A store seals each q-digest bucket
// into its packed copy, merges a range into an accumulator its gather
// lends and answers with the accumulator's packed copy, leaving the
// accumulator for the next query. The answers must marshal
// to the bytes the map-based digest gives for the same buckets merged in
// the store's order — the open bucket first, under the shard lock, then
// the sealed ones in ascending bucket order — and answer every phi alike.
func TestStoreQuantileAnswersMatchMapOracle(t *testing.T) {
	checkStoreQuantileOracle(t, 0, 40, 64)
}

// The same oracle over buckets 40–80 with a 64-bucket window: the range
// straddles bucket 64, where a ring of 64 places wraps, and the sealed
// buckets still merge in ascending bucket order, not by ring position.
func TestStoreQuantileAcrossRingWrapMatchesMapOracle(t *testing.T) {
	checkStoreQuantileOracle(t, 40, 80, 64)
}

// checkStoreQuantileOracle writes buckets first..last of one series (last
// stays open) into stores of window ring and holds random range answers
// to the map oracle.
func checkStoreQuantileOracle(t *testing.T, first, last, ring int) {
	t.Helper()
	const width = 10
	phis := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1}
	rng := workload.NewRNG(41)
	for _, logU := range []uint8{1, 8, 20, 32} {
		for _, k := range []uint64{1, 2, 7, 64, 512} {
			st, err := store.New(store.Config{Shards: 2, BucketWidth: width, RingBuckets: ring})
			if err != nil {
				t.Fatal(err)
			}
			proto, err := store.NewQuantileProto(logU, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.RegisterMetric("lat", proto); err != nil {
				t.Fatal(err)
			}
			refs := make([]*quantile.MapDigest, last+1)
			for b := first; b <= last; b++ {
				refs[b] = quantile.NewMapDigest(logU, k)
				n := rng.Intn(40)
				if b%5 == 0 {
					n = 200 + rng.Intn(1500) // heavy enough to compress
				}
				for i := 0; i < n; i++ {
					v := rng.Uint64() % (uint64(3) << logU >> 1) // a third above the universe
					if err := st.ObserveBatch([]store.Observation{{Metric: "lat", Key: "k", Value: v, Time: int64(b*width + i%width)}}); err != nil {
						t.Fatal(err)
					}
					refs[b].Update(v, 1)
				}
			}
			for query := 0; query < 20; query++ {
				from := first + rng.Intn(last+1-first)
				to := from + 1 + rng.Intn(last+1-from)
				what := fmt.Sprintf("logU %d k %d buckets [%d, %d)", logU, k, from, to)
				res, err := st.Query(context.Background(), store.QueryRequest{Metric: "lat", Key: "k", From: int64(from * width), To: int64(to * width)})
				if err != nil {
					t.Fatal(err)
				}
				want := quantile.NewMapDigest(logU, k)
				order := make([]int, 0, to-from)
				if to == last+1 {
					order = append(order, last)
				}
				for b := from; b < min(to, last); b++ {
					order = append(order, b)
				}
				for _, b := range order {
					if refs[b].Count() > 0 { // an empty bucket was never opened
						want.Merge(refs[b])
					}
				}
				got, _ := res.Raw().AppendBinary(nil)
				wantBytes, _ := want.MarshalBinary()
				if !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s: answer differs from the map oracle", what)
				}
				all := make([]uint64, len(phis))
				res.Answers()[0].QuantilesInto(phis, all)
				for i, phi := range phis {
					if w := want.Query(phi); res.Quantile(phi) != w || all[i] != w {
						t.Fatalf("%s: phi %v answers %d (QuantilesInto %d), oracle %d", what, phi, res.Quantile(phi), all[i], w)
					}
				}
			}
		}
	}
}
