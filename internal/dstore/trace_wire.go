// trace_wire.go wires the cluster into a trace.Tracer, following the
// SetTelemetry discipline (atomic wiring, nil = no-op, node stores
// re-wired on every recovery rebuild). The cluster is also where trace
// context crosses the log: Router.ObserveBatch encodes a sampled
// observation's context into a mqlog record header (trace.HeaderKey),
// and the node event loop decodes it on the far side, stitching the
// append, fetch and apply spans into one trace.
package dstore

import (
	"repro/internal/mqlog"
	"repro/internal/trace"
)

// SetTracer wires the cluster's ingest and query paths to tr. Safe to
// call on a live cluster: the router and node event loops pick the
// tracer up atomically, stores already serving are wired immediately,
// and each node re-wires its fresh store when it is next rebuilt. A
// nil tracer is a no-op.
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	c.trc.Store(tr)
	for _, n := range c.liveNodes() {
		if st := n.currentStore(); st != nil {
			st.SetTracer(tr)
		}
	}
}

// tracer returns the wired tracer, nil when tracing is off.
func (c *Cluster) tracer() *trace.Tracer { return c.trc.Load() }

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
