// The cached-answer footprint gate lives in the external test package:
// it puts a read cache (internal/rcache, which imports this package) in
// front of the store.
package store_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rcache"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestCachedAnswerFootprint is the deterministic gate on what the read
// cache holds: 4 096 distinct range_scan-shaped answers (per ten
// queries: seven single-key `uniques` over 48–80 buckets on a Zipf-drawn
// page, two 8-key `page-hits` aggregates over 24–40, one `latency-us` on
// page-01 over 48–80) cached in front of the sealed footprint store must
// hold at most ceiling synopsis bytes, as rcache's Stats.Bytes counts
// them. Merged into dense accumulators and cached as such, the same
// answers held 42.5 MB (the logged dense total); compact, they held
// 7.9 MB when the gate landed — most of it q-digests and hot-page HLLs
// too full to compact. The ceiling leaves room above that, not for a
// return of dense answers.
func TestCachedAnswerFootprint(t *testing.T) {
	const (
		width, buckets = 100, 160
		answers        = 4096
		ceiling        = 10 << 20
	)
	st := store.SealedFootprintStore(t)
	c, err := rcache.New(rcache.Config{BucketWidth: width, MaxEntries: 2 * answers})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"uniques", "page-hits", "latency-us"} {
		c.NoteObserve(m, buckets*width) // bucket 160 is open: everything below is sealed
	}
	// What a dense merge accumulator of each compacting family costs: the
	// store's demo schema, as SealedFootprintStore registers it.
	uniq, _ := store.NewDistinctProto(12, 42)
	hits, _ := store.NewFreqProto(1024, 4, 42)
	denseSize := map[string]int{"uniques": uniq().Bytes(), "page-hits": hits().Bytes()}
	rng := workload.NewRNG(1)
	zipf := workload.NewZipf(rng, 64, 1.1)
	span := func(lo, hi int) (from, to int64) {
		n := lo + rng.Intn(hi-lo+1)
		first := rng.Intn(buckets - n + 1)
		return int64(first) * width, int64(first+n) * width
	}
	dense := 0
	for i := 0; c.Len() < answers; i++ {
		var req store.QueryRequest
		switch i % 10 {
		case 3, 7:
			first := rng.Intn(64 - 8 + 1)
			keys := make([]string, 8)
			for j := range keys {
				keys[j] = fmt.Sprintf("page-%02d", first+j)
			}
			req = store.QueryRequest{Metric: "page-hits", Keys: keys, Aggregate: true}
			req.From, req.To = span(24, 40)
		case 9:
			req = store.QueryRequest{Metric: "latency-us", Key: "page-01"}
			req.From, req.To = span(48, 80)
		default:
			req = store.QueryRequest{Metric: "uniques", Key: fmt.Sprintf("page-%02d", zipf.Draw())}
			req.From, req.To = span(48, 80)
		}
		if _, hit, _ := c.Lookup(req); hit {
			continue // a repeat: range_scan never repeats a query
		}
		// Asked a second time, the answer passes the cache's doorkeeper.
		_, _, tok := c.Lookup(req)
		res, err := st.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		c.Fill(tok, res)
		for _, a := range res.Answers() {
			if n, ok := denseSize[a.Metric]; ok {
				dense += n
			} else {
				dense += a.Raw().Bytes()
			}
		}
	}
	stats := c.Stats()
	t.Logf("%d cached answers hold %d synopsis bytes; dense accumulators would hold %d", stats.Entries, stats.Bytes, dense)
	if stats.Entries != answers || stats.Evictions != 0 {
		t.Fatalf("cache holds %d answers after %d evictions, want %d and none", stats.Entries, stats.Evictions, answers)
	}
	if stats.Bytes > ceiling {
		t.Fatalf("cached answers hold %d bytes, ceiling %d", stats.Bytes, ceiling)
	}
}
