// trace_wire.go holds the store's query-side span. The tracer comes with
// the registry SetTelemetry wires (nil = no-op everywhere). The store
// never starts root spans — sampling decisions belong to the request
// edge (analytics.Instrument) or the ingest edge (the cluster router) —
// it only attaches child spans to contexts the caller already carries on
// Observation.Trace / QueryRequest.Trace.
package store

import "repro/internal/trace"

// traceGather opens one per-shard gather child span on the query path;
// nil when untraced.
func (s *Store) traceGather(tctx trace.Context) *trace.Span {
	tr := s.trc
	if tr == nil || !tctx.Valid() {
		return nil
	}
	return tr.StartRemote(tctx, "store.gather")
}
