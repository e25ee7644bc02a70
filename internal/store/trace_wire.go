// trace_wire.go wires the store into a trace.Tracer, mirroring the
// SetTelemetry discipline: nil tracer = no-op everywhere, wire before
// serving. The store never starts root spans — sampling decisions
// belong to the request edge (analytics.Instrument) or the ingest edge
// (the cluster router) — it only attaches child spans to contexts the
// caller already carries on Observation.Trace / QueryRequest.Trace.
package store

import "repro/internal/trace"

// SetTracer wires the store's observe and gather paths to tr; nil
// detaches. Like the telemetry histograms, the field is a plain
// pointer: set it before the store starts serving.
func (s *Store) SetTracer(tr *trace.Tracer) { s.trc = tr }

// traceGather opens one per-shard gather child span on the query path;
// nil when untraced.
func (s *Store) traceGather(tctx trace.Context) *trace.Span {
	tr := s.trc
	if tr == nil || !tctx.Valid() {
		return nil
	}
	return tr.StartRemote(tctx, "store.gather")
}
