// trace_wire.go is where trace context crosses the cluster's log: the
// tracer comes with the registry SetTelemetry wires, the router's
// store.LogWriter encodes a sampled observation's context into a mqlog
// record header (trace.HeaderKey), and the node event loop decodes it on
// the far side, stitching the append, fetch and apply spans into one
// trace.
package dstore

import (
	"repro/internal/mqlog"
	"repro/internal/trace"
)

// headerContext extracts the trace context the router's writer attached
// to a record's headers; zero when the record is untraced.
func headerContext(hdrs []mqlog.Header) trace.Context {
	for _, h := range hdrs {
		if h.Key == trace.HeaderKey {
			return trace.DecodeContext(h.Value)
		}
	}
	return trace.Context{}
}
