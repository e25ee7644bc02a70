// instrument.go is the generic telemetry decorator over the Backend
// contract: wrap any serving backend and every ObserveBatch and Query is
// counted per metric and timed, without the backend knowing. It lives
// in this package (not internal/telemetry) because the decorator speaks
// the Backend contract and telemetry must stay a leaf package the store
// itself can import; the facade re-exports it as Instrument.
package analytics

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Instrument wraps be so every ObserveBatch and Query is recorded in reg:
// per-backend/per-metric operation counters
// (analytics_backend_observe_total, analytics_backend_query_total,
// labeled backend=<name>, metric=<metric>), per-backend latency
// histograms (analytics_backend_observe_seconds,
// analytics_backend_query_seconds) and per-operation error counters
// (analytics_backend_errors_total, labeled op=observe|query). The
// wrapper delegates verbatim — answers are byte-identical to the bare
// backend's, which the conformance suite pins.
//
// When reg carries a tracer the wrapper is also the tracing root of the
// serving stack: every ObserveBatch that carries no trace context opens
// a head-sampled ingest root (analytics.observe) whose context rides the
// batch into the backend — through the store's shard spans or, in
// cluster mode, across the log via record headers — and every Query
// opens an always-started root (analytics.query) carrying the request
// summary as attributes, kept at Finish when sampled or over the
// tracer's slow threshold (the latter also lands in the slow-query log).
//
// A nil registry returns be unchanged, so call sites can wire
// instrumentation unconditionally.
func Instrument(be Backend, reg *telemetry.Registry, backend string) Backend {
	if reg == nil {
		return be
	}
	return &instrumented{
		Backend: be,
		reg:     reg,
		backend: backend,
		trc:     reg.Tracer(),
		obsLat: reg.Histogram("analytics_backend_observe_seconds",
			"Observe latency through the Backend contract.",
			0, 1e-3, 64, "backend", backend),
		qryLat: reg.Histogram("analytics_backend_query_seconds",
			"Query latency through the Backend contract.",
			0, 50e-3, 64, "backend", backend),
		obsErrs: reg.Counter("analytics_backend_errors_total",
			"Backend operations that returned an error.",
			"backend", backend, "op", "observe"),
		qryErrs: reg.Counter("analytics_backend_errors_total",
			"Backend operations that returned an error.",
			"backend", backend, "op", "query"),
		obsCount: make(map[string]*telemetry.Counter),
		qryCount: make(map[string]*telemetry.Counter),
	}
}

// instrumented embeds the wrapped Backend and overrides the methods it
// measures — the write method and both query methods, so none bypasses
// the counters and the trace root; Keys and Stats are the backend's own.
type instrumented struct {
	Backend
	reg     *telemetry.Registry
	backend string
	trc     *trace.Tracer // nil when tracing is off

	obsLat  *telemetry.Histogram
	qryLat  *telemetry.Histogram
	obsErrs *telemetry.Counter
	qryErrs *telemetry.Counter

	// Per-metric operation counters, pre-created on RegisterMetric (the
	// contract requires registration before first use) and created
	// lazily for anything that slips past — e.g. a backend wrapped
	// after its metrics were registered.
	mu       sync.RWMutex
	obsCount map[string]*telemetry.Counter
	qryCount map[string]*telemetry.Counter
}

// queryAttrs summarizes a request for the query root span — and so for
// the slow-query log, which snapshots the root's attributes.
func (in *instrumented) queryAttrs(req store.QueryRequest) []trace.Attr {
	metrics := req.Metrics
	if len(metrics) == 0 && req.Metric != "" {
		metrics = []string{req.Metric}
	}
	return []trace.Attr{
		trace.Str("backend", in.backend),
		trace.Str("metrics", strings.Join(metrics, ",")),
		trace.Int("keys", int64(len(req.Keys))),
		trace.Int("from", req.From),
		trace.Int("to", req.To),
		trace.Bool("aggregate", req.Aggregate),
		trace.Bool("all_keys", req.AllKeys),
	}
}

// counterFor returns the per-metric counter from m, registering the
// series on first sight. family is the metric family name.
func (in *instrumented) counterFor(m map[string]*telemetry.Counter, family, metric string) *telemetry.Counter {
	in.mu.RLock()
	c, ok := m[metric]
	in.mu.RUnlock()
	if ok {
		return c
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if c, ok = m[metric]; ok {
		return c
	}
	c = in.reg.Counter(family, "Backend operations by metric.",
		"backend", in.backend, "metric", metric)
	m[metric] = c
	return c
}

func (in *instrumented) RegisterMetric(name string, proto store.Prototype) error {
	if err := in.Backend.RegisterMetric(name, proto); err != nil {
		return err
	}
	// Pre-create the metric's series so the hot paths take the RLock.
	in.counterFor(in.obsCount, "analytics_backend_observe_total", name)
	in.counterFor(in.qryCount, "analytics_backend_query_total", name)
	return nil
}

// ObserveBatch counts and times the batch as one operation per
// observation: the latency histogram records the whole call (batched
// ingest is priced by the batch), the per-metric counters advance by
// each metric's share, and errors count once. A batch that carries no
// trace context yet is head-sampled for an analytics.observe root; a
// sampled batch is copied so the root's context can ride every
// observation into the backend without writing to the caller's slice,
// and an unsampled one goes through untouched, allocating nothing.
func (in *instrumented) ObserveBatch(obs []store.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	if in.trc != nil && !slices.ContainsFunc(obs, hasTrace) {
		if sp := in.trc.StartSampled("analytics.observe"); sp != nil {
			defer sp.Finish()
			sp.SetAttrs(trace.Str("backend", in.backend), trace.Int("batch", int64(len(obs))))
			traced := make([]store.Observation, len(obs))
			copy(traced, obs)
			tctx := sp.Context()
			for i := range traced {
				traced[i].Trace = tctx
			}
			obs = traced
		}
	}
	t0 := time.Now()
	err := in.Backend.ObserveBatch(obs)
	in.obsLat.ObserveSince(t0)
	if err != nil {
		in.obsErrs.Inc()
		return err
	}
	return eachMetric(obs, func(metric string, n int) error {
		in.counterFor(in.obsCount, "analytics_backend_observe_total", metric).Add(uint64(n))
		return nil
	})
}

// hasTrace reports whether an observation already rides a trace.
func hasTrace(o store.Observation) bool { return o.Trace.Valid() }

func (in *instrumented) Query(req store.QueryRequest) (store.QueryResult, error) {
	return in.QueryContext(context.Background(), req)
}

// QueryContext instruments exactly like Query while threading ctx into
// the backend; the wrapper itself adds no cancellation points, so
// answers stay byte-identical to the bare backend's.
func (in *instrumented) QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	if sp := in.trc.StartRoot("analytics.query"); sp != nil {
		// Query roots always start; the tail decision at Finish keeps the
		// trace when head-sampled or over the slow threshold, and a slow
		// root lands in the slow-query log with these summary attributes
		// plus the per-stage child durations.
		req.Trace = sp.Context()
		sp.SetAttrs(in.queryAttrs(req)...)
		defer sp.Finish()
	}
	t0 := time.Now()
	res, err := in.Backend.QueryContext(ctx, req)
	in.qryLat.ObserveSince(t0)
	if err != nil {
		in.qryErrs.Inc()
		return res, err
	}
	if len(req.Metrics) == 0 {
		in.counterFor(in.qryCount, "analytics_backend_query_total", req.Metric).Inc()
	} else {
		for _, m := range req.Metrics {
			in.counterFor(in.qryCount, "analytics_backend_query_total", m).Inc()
		}
	}
	return res, nil
}
