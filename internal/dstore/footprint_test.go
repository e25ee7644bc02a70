package dstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/store"
)

// newDemoCluster builds a 4-partition cluster with the daemon's demo
// schema registered and no nodes started: what the router appends stays
// in the ingest log, and nothing else holds memory.
func newDemoCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Partitions: 4, Store: store.Config{Shards: 4, BucketWidth: 1000, RingBuckets: 64}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mk := map[string]func() (store.Prototype, error){
		"uniques":    func() (store.Prototype, error) { return store.NewDistinctProto(12, 42) },
		"page-hits":  func() (store.Prototype, error) { return store.NewFreqProto(1024, 4, 42) },
		"top-pages":  func() (store.Prototype, error) { return store.NewTopKProto(32) },
		"latency-us": func() (store.Prototype, error) { return store.NewQuantileProto(20, 512) },
	}
	for name, f := range mk {
		proto, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// demoEvents appends the daemon's four observations per page view for
// events [from, from+n) to batch.
func demoEvents(batch []store.Observation, from, n int) []store.Observation {
	for i := from; i < from+n; i++ {
		page := fmt.Sprintf("page-%02d", (i*7919)%64)
		t := int64(100_000 + i)
		batch = append(batch,
			store.Observation{Metric: "uniques", Key: page, Item: fmt.Sprintf("user-%d", (i*2654435761)%20000), Time: t},
			store.Observation{Metric: "page-hits", Key: page, Item: page, Time: t},
			store.Observation{Metric: "top-pages", Key: "all", Item: page, Time: t},
			store.Observation{Metric: "latency-us", Key: page, Value: uint64(100 + (i*37)%9000), Time: t},
		)
	}
	return batch
}

// TestLogFootprint holds what a retained demo record costs the ingest
// log: 400 000 records of the daemon's four-metric event, appended
// through Router.ObserveBatch, must hold at most 14 bytes each of
// HeapAlloc after a GC and 10 bytes each of Topic.RetainedBytes. Raw
// chunks cost ≈ 44 B of both, and a Message struct plus a separately
// allocated value ≈ 145 B of heap; the heap budget also covers the
// process's one deflate writer (≈ 1.2 MB).
func TestLogFootprint(t *testing.T) {
	c := newDemoCluster(t)
	r := c.Router()
	const records = 400_000
	batch := make([]store.Observation, 0, 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for ev := 0; ev < records/4; ev += 64 {
		batch = demoEvents(batch[:0], ev, min(64, records/4-ev))
		if err := r.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	batch = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	var end uint64
	for _, e := range c.Topic().EndOffsets() {
		end += e
	}
	if end != records {
		t.Fatalf("log holds %d records, want %d", end, records)
	}
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / records
	retained := float64(c.Topic().RetainedBytes()) / records
	t.Logf("%d demo records: %.1f B/record of heap, %.1f B/record retained by the log", records, perRecord, retained)
	if perRecord > 14 {
		t.Errorf("a retained demo record costs %.1f B of heap, budget 14", perRecord)
	}
	if retained > 10 {
		t.Errorf("a retained demo record costs %.1f B of RetainedBytes, budget 10", retained)
	}
	runtime.KeepAlive(c)
}

// TestRouterObserveBatchAllocGate: a 256-observation Router.ObserveBatch
// encodes into the partitions' reused buffers, appends into the log's
// chunks and groups by partition in a buffer from a free list, so it
// allocates less than once per batch, amortized (1 with a grouping
// buffer per batch; one encoded value per observation made it 257).
func TestRouterObserveBatchAllocGate(t *testing.T) {
	r := newDemoCluster(t).Router()
	batch := demoEvents(nil, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Router.ObserveBatch of %d observations: %.0f allocations", len(batch), allocs)
	if allocs > 0 {
		t.Fatalf("Router.ObserveBatch of %d observations: %.0f allocations, budget 0", len(batch), allocs)
	}
}
