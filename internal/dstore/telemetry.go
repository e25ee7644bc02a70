// telemetry.go wires the cluster into a telemetry.Registry: cluster
// counters and lag at scrape time, recovery-replay and scatter-gather
// latency histograms on the hot paths (nil-gated), the ingest topic's
// and consumer group's mqlog metrics, per-node store metrics
// (layer="dstore", node=<name>) re-bound on every recovery rebuild and
// dropped when the node stops, and the registry's tracer for the router,
// node and store spans.
package dstore

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// clusterTel is the cluster's published observability wiring; nodes and
// the router read it through one atomic pointer so SetTelemetry can be
// called while the cluster is live.
type clusterTel struct {
	reg      *telemetry.Registry
	trc      *trace.Tracer // reg's tracer; nil when untraced
	recovery *telemetry.Histogram
	scatter  *telemetry.Histogram
}

// SetTelemetry registers the cluster's metrics with reg and wires its
// ingest and query paths to the tracer reg carries. Safe to call on a
// live cluster: the router and node event loops pick the wiring up
// atomically, and each node's store is (re-)wired when it is next
// rebuilt — stores already serving are wired immediately. A nil
// registry is a no-op.
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

	tel := &clusterTel{
		reg: reg,
		trc: reg.Tracer(),
		recovery: reg.Histogram("analytics_dstore_recovery_seconds",
			"Duration of completed node recoveries (store rebuild + replay).", labels...),
		scatter: reg.Histogram("analytics_dstore_scatter_gather_seconds",
			"Scatter-gather fan-out duration of router queries.", labels...),
	}
	c.tel.Store(tel)

	c.topic.SetTelemetry(reg)
	c.group.SetTelemetry(reg)
	// Instrument stores already serving; recovering nodes wire their
	// fresh store themselves when the rebuild completes.
	for _, n := range c.liveNodes() {
		if st := n.currentStore(); st != nil {
			st.SetTelemetry(reg, "layer", "dstore", "node", n.name)
		}
	}
}

// observeRecovery records a completed recovery's duration.
func (c *Cluster) observeRecovery(start time.Time) {
	if t := c.tel.Load(); t != nil {
		t.recovery.ObserveSince(start)
	}
}
