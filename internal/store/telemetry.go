// telemetry.go wires the store into a telemetry.Registry. All counters
// and gauges are scrape-time reads of atomics and shard state the store
// already maintains — instrumentation adds zero hot-path work for them.
// The only hot-path additions are the two latency histograms (shard
// lock-wait on the write path, gather on the query path), and those are
// gated on a nil check so an unwired store is unaffected.
package store

import "repro/internal/telemetry"

// SetTelemetry registers the store's metrics with reg under the given
// label pairs (default layer="store"), and wires its observe and gather
// paths to the tracer reg carries; pass distinguishing labels (e.g.
// layer="dstore", node="n1") when several stores share one registry.
// Safe to call again — re-registration re-binds the scrape callbacks to
// this store, which is exactly what a rebuilt cluster node store needs.
// Like the histograms, the tracer is a plain pointer: wire before the
// store starts serving. A nil registry is a no-op.
func (s *Store) SetTelemetry(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	if len(labels) == 0 {
		labels = []string{"layer", "store"}
	}
	reg.CounterFunc("analytics_store_observations_total",
		"Observations absorbed by the store.",
		func() uint64 { return s.observed.Load() }, labels...)
	reg.CounterFunc("analytics_store_dropped_late_total",
		"Observations rejected for falling behind the retention window.",
		func() uint64 { return s.droppedLate.Load() }, labels...)
	reg.CounterFunc("analytics_store_queries_total",
		"Per-key range queries served.",
		func() uint64 { return s.queries.Load() }, labels...)
	reg.CounterFunc("analytics_store_evicted_size_total",
		"Entries evicted by the per-shard byte budget.",
		func() uint64 { return s.evictedSize.Load() }, labels...)
	reg.CounterFunc("analytics_store_bucket_seals_total",
		"Ring buckets sealed: by stream time advancing, a checkpoint write, or a checkpoint restore.",
		func() uint64 { return s.sealCount() }, labels...)
	reg.CounterFunc("analytics_store_compacted_total",
		"Bucket seals that replaced a synopsis by its compact form (q-digest; HyperLogLog and Count-Min buckets are born sparse).",
		func() uint64 { return s.Stats().Compacted }, labels...)
	reg.GaugeFunc("analytics_store_entries",
		"Live (metric, key) entries.",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				sh.mu.RLock()
				n += len(sh.entries)
				sh.mu.RUnlock()
			}
			return float64(n)
		}, labels...)
	reg.GaugeFunc("analytics_store_bytes",
		"Synopsis bytes resident across all shards.",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				sh.mu.RLock()
				n += sh.bytes
				sh.mu.RUnlock()
			}
			return float64(n)
		}, labels...)
	reg.GaugeFunc("analytics_store_checkpoint_bytes",
		"Data bytes of the last checkpoint written from this store.",
		func() float64 { return float64(s.ckptBytes.Load()) }, labels...)
	reg.GaugeFunc("analytics_store_checkpoint_records",
		"Bucket records in the last checkpoint written from this store.",
		func() float64 { return float64(s.ckptRecords.Load()) }, labels...)
	reg.CounterFunc("analytics_store_restored_records_total",
		"Bucket records rehydrated into this store from a checkpoint.",
		func() uint64 { return s.restored.Load() }, labels...)

	s.telLockWait = reg.Histogram("analytics_store_lock_wait_seconds",
		"Time spent acquiring the home shard write lock.", labels...)
	s.telGather = reg.Histogram("analytics_store_gather_seconds",
		"Per-metric gather time of a range query (all requested keys).", labels...)
	s.trc = reg.Tracer()
}

// sealCount sums the per-shard sealed-bucket counters.
func (s *Store) sealCount() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.seals
		sh.mu.RUnlock()
	}
	return n
}
