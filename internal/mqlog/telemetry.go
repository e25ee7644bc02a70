// telemetry.go wires the broker substrate into a telemetry.Registry:
// produce/fetch throughput, retained log memory and per-partition end
// offsets per topic, and consumer-group lag and rebalance counts per
// group. Everything except the fetch-batch histogram is a scrape-time
// read of state the log already maintains. Wire before first use.
package mqlog

import (
	"strconv"

	"repro/internal/telemetry"
)

// SetTelemetry registers the topic's metrics with reg, labeled by topic
// name (and partition id for the end-offset gauges). Call it before
// first use — before the first produce or fetch: the fetch-batch
// histogram is a plain field fetches read unsynchronized. A nil
// registry is a no-op; calling again re-binds the callbacks to this
// topic.
func (t *Topic) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("analytics_mqlog_produced_records_total",
		"Records appended to the topic across all produce paths.",
		func() uint64 { return t.produced.Load() }, "topic", t.name)
	reg.CounterFunc("analytics_mqlog_fetched_records_total",
		"Records returned by fetches against the topic.",
		func() uint64 { return t.fetched.Load() }, "topic", t.name)
	for pid := range t.parts {
		p := t.parts[pid]
		reg.GaugeFunc("analytics_mqlog_end_offset",
			"Next offset to be written to the partition.",
			func() float64 { return float64(p.endOffset()) },
			"topic", t.name, "partition", strconv.Itoa(pid))
	}
	reg.GaugeFunc("analytics_mqlog_retained_bytes",
		"Memory held by the topic's in-memory log: compressed chunks, raw chunks (partly filled tails included) and their end tables, and each partition's inflated chunk.",
		func() float64 { return float64(t.RetainedBytes()) }, "topic", t.name)
	reg.CounterFunc("analytics_mqlog_inflated_chunks_total",
		"Compressed log chunks inflated by fetches (history reads, or consumers more than a chunk behind).",
		t.inflatedChunks, "topic", t.name)
	t.telFetchBatch = reg.Histogram("analytics_mqlog_fetch_batch_records",
		"Records per non-empty fetch (poll efficiency).", "topic", t.name)
	if t.dur != nil {
		reg.CounterFunc("analytics_mqlog_fsyncs_total",
			"Fsyncs issued against the topic's segment files.",
			func() uint64 { return t.fsyncs.Load() }, "topic", t.name)
		reg.CounterFunc("analytics_mqlog_segment_rolls_total",
			"Active-segment rolls across the topic's partitions.",
			func() uint64 { return t.segRolls.Load() }, "topic", t.name)
		reg.CounterFunc("analytics_mqlog_torn_truncations_total",
			"Torn tail records truncated during recovery scans.",
			func() uint64 { return t.tornTruncations.Load() }, "topic", t.name)
		reg.CounterFunc("analytics_mqlog_recovered_records_total",
			"Records replayed from segment files at topic open.",
			func() uint64 { return t.recoveredRecords.Load() }, "topic", t.name)
		reg.CounterFunc("analytics_mqlog_disk_errors_total",
			"Latched disk failures (durability degraded, serving continues).",
			func() uint64 { return t.diskErrors.Load() }, "topic", t.name)
		reg.GaugeFunc("analytics_mqlog_recovery_scan_seconds",
			"Wall time of the open-time segment recovery scan.",
			func() float64 { return float64(t.recoveryNanos.Load()) / 1e9 },
			"topic", t.name)
		reg.GaugeFunc("analytics_mqlog_disk_bytes",
			"On-disk footprint of the topic's segment files.",
			func() float64 { return float64(t.DurabilityStats().DiskBytes) },
			"topic", t.name)
		t.telFsync.Store(reg.Histogram("analytics_mqlog_fsync_seconds",
			"Latency of segment fsyncs (group commits and explicit Syncs).", "topic", t.name))
	}
}

// SetTelemetry registers the group's health metrics with reg: total
// unconsumed lag (end offset minus committed, summed over partitions)
// and the rebalance count (the group generation — bumped on every
// membership change or forced rebalance). A nil registry is a no-op.
func (g *ConsumerGroup) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("analytics_mqlog_group_lag",
		"Unconsumed records for the group across the topic's partitions.",
		func() float64 { return float64(g.broker.Lag(g.name, g.topic)) },
		"group", g.name, "topic", g.topic.name)
	reg.CounterFunc("analytics_mqlog_rebalances_total",
		"Group rebalances (the group generation).",
		func() uint64 { return uint64(g.Generation()) },
		"group", g.name, "topic", g.topic.name)
}
