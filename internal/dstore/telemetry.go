// telemetry.go wires the cluster into a telemetry.Registry: cluster
// counters and lag at scrape time, recovery-replay and scatter-gather
// latency histograms on the hot paths (nil-gated), the ingest topic's
// and consumer group's mqlog metrics, per-node store metrics
// (layer="dstore", node=<name>) re-bound on every recovery rebuild and
// dropped when the node stops, and the registry's tracer for the router,
// node and store spans. Wired once, before first use.
package dstore

import "repro/internal/telemetry"

// SetTelemetry registers the cluster's metrics with reg and wires its
// router, its node event loops, the ingest topic and consumer group to
// reg and the tracer it carries. Call it before first use — before the
// first StartNode, ObserveBatch or Query: the wiring is plain fields
// those paths read unsynchronized. Each node wires the store its
// recovery builds before that store serves. A nil registry is a no-op.
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	labels := []string{"layer", "dstore"}
	reg.GaugeFunc("analytics_dstore_nodes",
		"Live cluster nodes.",
		func() float64 { return float64(len(c.liveNodes())) }, labels...)
	reg.GaugeFunc("analytics_dstore_lag",
		"Unconsumed ingest-log messages across the group.",
		func() float64 { return float64(c.Lag()) }, labels...)
	reg.CounterFunc("analytics_dstore_recoveries_total",
		"Completed node recoveries (includes first starts).",
		func() uint64 { return c.recoveries.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_applied_total",
		"Observations applied by node event loops.",
		func() uint64 { return c.applied.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_replayed_total",
		"Observations applied by node recovery replays.",
		func() uint64 { return c.replayed.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_rejected_total",
		"Messages dropped by decode or store errors.",
		func() uint64 { return c.rejected.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_checkpoint_restores_total",
		"Node recoveries seeded from a checkpoint (suffix replay).",
		func() uint64 { return c.ckptRestores.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_fence_rejections_total",
		"Generation-fenced commits refused (stale owner or mid-rebalance).",
		func() uint64 { return c.fenceRejected.Load() }, labels...)
	reg.CounterFunc("analytics_dstore_unreachable_total",
		"Query fan-outs failed on unowned partitions or unreachable nodes.",
		func() uint64 { return c.unreachable.Load() }, labels...)

	c.reg = reg
	c.trc = reg.Tracer()
	c.recoveryHist = reg.Histogram("analytics_dstore_recovery_seconds",
		"Duration of completed node recoveries (store rebuild + replay).", labels...)
	c.scatterHist = reg.Histogram("analytics_dstore_scatter_gather_seconds",
		"Scatter-gather fan-out duration of router queries.", labels...)
	c.topic.SetTelemetry(reg)
	c.group.SetTelemetry(reg)
}
