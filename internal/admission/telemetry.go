package admission

import "repro/internal/telemetry"

// SetTelemetry registers the controller's accounting with reg as
// analytics_admission_* series. Shed totals are labeled by the scope
// that rejected (global | metric | tenant | backpressure) so the
// serving smoke can attribute every 429; the scope counters sum to
// every rejection the controller ever issued. All instruments except
// the wait histogram are scrape-time reads of the controller's atomics.
// Call it before first use — before the first Admit or AdmitTenant: the
// wait histogram is a plain field sheds read unsynchronized. A nil
// registry (or nil controller) is a no-op.
func (c *Controller) SetTelemetry(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("analytics_admission_admitted_total",
		"Observations admitted past every limiter.",
		func() uint64 { return c.admitted.Load() })
	reg.CounterFunc("analytics_admission_shed_total",
		"Observations rejected by the global bucket.",
		func() uint64 { return c.shedGlobal.Load() }, "scope", "global")
	reg.CounterFunc("analytics_admission_shed_total",
		"Observations rejected by a per-metric bucket.",
		func() uint64 { return c.shedMetric.Load() }, "scope", "metric")
	reg.CounterFunc("analytics_admission_shed_total",
		"Observations rejected by a per-tenant bucket.",
		func() uint64 { return c.shedTenant.Load() }, "scope", "tenant")
	reg.CounterFunc("analytics_admission_shed_total",
		"Observations rejected by the backpressure ladder.",
		func() uint64 { return c.shedPressure.Load() }, "scope", "backpressure")
	reg.GaugeFunc("analytics_admission_throttle_level",
		"Current backpressure ladder level (0 = full rate).",
		func() float64 { return float64(c.Level()) })
	reg.CounterFunc("analytics_admission_throttle_changes_total",
		"Backpressure ladder level transitions.",
		func() uint64 { return c.levelChanges.Load() })
	reg.GaugeFunc("analytics_admission_tokens",
		"Global token-bucket level (refilled to now).",
		func() float64 { return c.Tokens() })
	c.waits.hist = reg.Histogram("analytics_admission_wait_seconds",
		"Suggested Retry-After handed out on shed requests.")
}
