package store

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// A bucket opens in one allocation: the synopsis, its sketch built in
// place. A HyperLogLog or Count-Min bucket is born sparse and allocates
// nothing more until its first write; nor does a q-digest. It was two
// while the sketch was copied out of a constructor returning a pointer.
func TestBucketOpensInOneAllocation(t *testing.T) {
	uniq, _ := NewDistinctProto(12, 42)
	hits, _ := NewFreqProto(1024, 4, 42)
	lat, _ := NewQuantileProto(20, 512)
	var sink Synopsis
	for _, p := range []Prototype{uniq, hits, lat} {
		if allocs := testing.AllocsPerRun(100, func() { sink = p.bucket() }); allocs != 1 {
			t.Errorf("opening a %v bucket costs %v allocations, want 1", p.Family, allocs)
		}
	}
	runtime.KeepAlive(sink)
}

// The heap after a query mix over the benchmark's preload reads the same
// after one collection as after four more: what queries keep between
// them is on free lists, which collection never empties, so nothing of
// theirs waits for a later collection to drop it. While the
// accumulators and sealed-bucket lists were in sync.Pools, the two
// readings differed by 169–203 KB. The heap is settled before the mix,
// so that other packages' pools (the test runner's -run regexp keeps
// ≈ 37 KB in one) are out of the reading.
func TestHeapSettlesInOneGC(t *testing.T) {
	const width = 100
	st := SealedFootprintStore(t)
	var keys []string
	for p := range 8 {
		keys = append(keys, fmt.Sprintf("page-%02d", p))
	}
	mix := []QueryRequest{
		{Metric: "uniques", Key: "page-01", From: 40 * width, To: 104 * width},
		{Metric: "page-hits", Keys: keys, From: 40 * width, To: 104 * width, Aggregate: true},
		{Metric: "latency-us", Key: "page-01", From: 40 * width, To: 104 * width},
	}
	for range 4 {
		runtime.GC()
	}
	for range 20 {
		for _, req := range mix {
			if _, err := st.Query(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	once := int64(ms.HeapAlloc)
	for range 3 {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(st)
	t.Logf("heap after one GC %d bytes, after four %d", once, ms.HeapAlloc)
	if d := once - int64(ms.HeapAlloc); d < -4<<10 || d > 4<<10 {
		t.Fatalf("heap after one GC %d bytes, after four %d: %d apart, gate 4 KiB", once, ms.HeapAlloc, d)
	}
}

// What waits on a Prototype's free list of gathers is bounded, however
// many keys the merges answered: after an AllKeys `page-hits` query over
// 64 keys, per key (8 shard gathers at once) and aggregate, the list
// holds at most maxIdleGathers gathers, each holding no sealed bucket,
// no history payload and at most one accumulator, empty.
func TestIdleGathersBounded(t *testing.T) {
	const width = 100
	st := SealedFootprintStore(t)
	hits, err := st.metrics.Lookup("page-hits")
	if err != nil {
		t.Fatal(err)
	}
	l := hits.gathers()
	for _, aggregate := range []bool{false, true} {
		res, err := st.Query(context.Background(), QueryRequest{Metric: "page-hits", AllKeys: true, From: 40 * width, To: 104 * width, Aggregate: aggregate})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 64, true: 1}[aggregate]; res.Len() != want {
			t.Fatalf("aggregate %v: %d answers, want %d", aggregate, res.Len(), want)
		}
		// Drain the list: every Get that makes no new gather returns an
		// idle one.
		newGather, made := l.New, false
		l.New = func() *gather { made = true; return newGather() }
		var idle []*gather
		for g := l.Get(); !made; g = l.Get() {
			idle = append(idle, g)
		}
		l.New = newGather
		if len(idle) == 0 || len(idle) > maxIdleGathers || l.Max != maxIdleGathers {
			t.Fatalf("aggregate %v: %d idle gathers, list Max %d, want 1 to %d", aggregate, len(idle), l.Max, maxIdleGathers)
		}
		for _, g := range idle {
			if slices.ContainsFunc(g.sealed[:cap(g.sealed)], func(s Synopsis) bool { return s != nil }) {
				t.Fatalf("aggregate %v: an idle gather holds a sealed bucket", aggregate)
			}
			if slices.ContainsFunc(g.payloads[:cap(g.payloads)], func(p []byte) bool { return p != nil }) {
				t.Fatalf("aggregate %v: an idle gather holds a history payload", aggregate)
			}
			if g.spare != nil && g.spare.Items() != 0 {
				t.Fatalf("aggregate %v: an idle gather's accumulator holds %d items", aggregate, g.spare.Items())
			}
			l.Put(g)
		}
	}
}
