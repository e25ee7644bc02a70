// telemetry.go wires the Lambda Architecture into a telemetry.Registry:
// batch-handoff, frozen-view-build and speed-truncation latency
// histograms on the RunBatch path, batch/speed merge counts on the
// query path, staleness and batch-version gauges at scrape time — plus
// the master topic's mqlog metrics and the speed store's own wiring
// (labeled layer="lambda_speed"). The registry's tracer times a traced
// Query's three stages — lambda.speed (realtime gather), lambda.batch
// (sealed-view read), lambda.merge (cell-wise CombineSnapshots) —
// parented on the request's trace context, with the store hanging its
// own child spans off lambda.speed. Wired once, before first use.
package lambda

import "repro/internal/telemetry"

// SetTelemetry registers the architecture's metrics with reg, wires its
// batch and query paths to reg and the tracer it carries, and wires the
// layers underneath it (master topic and speed store) with the same
// registry. Call it before first use — before the first ObserveBatch,
// Query, Keys or RunBatch: the wiring is plain fields those paths read
// unsynchronized. Each fresh speed store is wired before it serves. A
// nil registry is a no-op.
func (a *Architecture) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	labels := []string{"layer", "lambda"}
	reg.CounterFunc("analytics_lambda_appended_total",
		"Observations dispatched through ObserveBatch to both layers.",
		func() uint64 { return a.appended.Load() }, labels...)
	reg.GaugeFunc("analytics_lambda_batch_version",
		"Batch views installed in the serving layer.",
		func() float64 { return float64(a.version.Load()) }, labels...)
	reg.GaugeFunc("analytics_lambda_staleness_records",
		"Appended observations not yet covered by the batch view.",
		func() float64 { return float64(a.Staleness()) }, labels...)
	reg.GaugeFunc("analytics_lambda_batch_restored_records",
		"Checkpoint records the current batch view was seeded from (0 = full recompute).",
		func() float64 {
			if v := a.batch.Load(); v != nil {
				return float64(v.Restored())
			}
			return 0
		}, labels...)

	a.reg = reg
	a.trc = reg.Tracer()
	a.handoffHist = reg.Histogram("analytics_lambda_batch_handoff_seconds",
		"Total RunBatch duration: freeze, install, truncate.", labels...)
	a.freezeHist = reg.Histogram("analytics_lambda_freeze_seconds",
		"Frozen batch view build time (replay of the master dataset).", labels...)
	a.truncateHist = reg.Histogram("analytics_lambda_truncate_seconds",
		"Speed-layer truncation: suffix replay and swap.", labels...)
	a.merges = reg.Counter("analytics_lambda_merges_total",
		"Per-cell batch+speed snapshot merges performed by queries.",
		labels...)
	a.topic.SetTelemetry(reg)
	a.speed.SetTelemetry(reg, "layer", "lambda_speed")
}
