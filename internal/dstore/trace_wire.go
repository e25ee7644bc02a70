// trace_wire.go is where trace context crosses the cluster's log: the
// tracer comes with the registry SetTelemetry wires, Router.ObserveBatch
// encodes a sampled observation's context into a mqlog record header
// (trace.HeaderKey), and the node event loop decodes it on the far side,
// stitching the append, fetch and apply spans into one trace.
package dstore

import (
	"repro/internal/mqlog"
	"repro/internal/trace"
)

// tracer returns the wired registry's tracer, nil when tracing is off.
func (c *Cluster) tracer() *trace.Tracer {
	if t := c.tel.Load(); t != nil {
		return t.trc
	}
	return nil
}

// headerContext extracts the trace context a router attached to a
// record's headers; zero when the record is untraced.
func headerContext(hdrs []mqlog.Header) trace.Context {
	for _, h := range hdrs {
		if h.Key == trace.HeaderKey {
			return trace.DecodeContext(h.Value)
		}
	}
	return trace.Context{}
}

// firstTracedContext scans a producer batch for the first record
// carrying a trace header — the batch's representative for the
// append-side span (one span per flush, not per record).
func firstTracedContext(recs []mqlog.Record) trace.Context {
	for i := range recs {
		if ctx := headerContext(recs[i].Headers); ctx.Valid() {
			return ctx
		}
	}
	return trace.Context{}
}
