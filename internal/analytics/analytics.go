// Package analytics defines the unified serving contract of this
// repository: one Backend interface that the tutorial's whole platform
// design space answers queries through — the sharded speed store
// (store.Store), the partitioned store cluster (dstore.Router) and the
// Lambda Architecture's batch+speed merge (lambda.Architecture) all
// satisfy it, as does the client of a remote daemon (serve.Client), so
// a dashboard, a topology sink (engine.SinkBolt) or an
// experiment can swap serving layers without touching a call site. This
// is the Section 3 argument made literal: the platforms differ in how
// they partition, recover and trade staleness for cost, not in what a
// query means.
//
// # Contract
//
// Every Backend implementation agrees on the following semantics, pinned
// by the cross-backend conformance suite in this package's tests:
//
//   - RegisterMetric binds a metric name to the store.Prototype its bucket
//     synopses are built from. Registration happens before the first
//     write; re-registering a name is an error.
//   - ObserveBatch is the one write path: it absorbs a batch, and a
//     caller with one observation passes a one-element slice. The batch
//     is the unit the admission layer prices, the serving edge decodes
//     and the backends amortize (one shard lock per shard group in the
//     store, one batched log append per partition in the Router, one
//     speed RLock in Lambda). The whole batch is validated
//     before anything mutates: an observation naming an unregistered
//     metric fails the call with an error wrapping
//     store.ErrUnknownMetric, a negative time or an empty Key fails it
//     too, and the backend absorbs NONE of the batch. The rule lives in
//     one place, store.MetricTable.Check, which every backend's
//     registry runs. This is what makes admission
//     shedding provable — a rejected batch leaves no trace. An accepted
//     batch is byte-identical to one observation per call, in order:
//     per-(metric,key) arrival order is preserved, so every synopsis
//     and counter matches exactly however the stream is chunked. An
//     empty batch is a no-op, never an error. A returned ObserveBatch is
//     an ack, and an ack means the write has landed where the backend
//     keeps its record: the store has applied it, so the next Query
//     sees it; the cluster has appended it to its ingest log, where
//     Cluster.Lag counts it and after Drain every query sees it;
//     Lambda has appended it to the master log and applied it to the
//     speed layer; the serving client has had the daemon's ack. No
//     backend holds acknowledged writes back, so there is nothing to
//     flush. What an ack survives on a durable log is the log's fsync
//     policy (DESIGN.md). The slice is lent for the call only: a
//     backend must not retain obs (or a sub-slice of it) after
//     ObserveBatch returns — it copies the observations it keeps, as
//     all four do — so a caller may reuse the slice at once, as the
//     serving edge does with its pooled batch. The strings inside are
//     ordinary immutable Go strings and may be kept.
//   - Query answers a typed store.QueryRequest. A request naming an
//     unregistered metric fails with an error wrapping
//     store.ErrUnknownMetric. A registered metric with no data for a
//     requested key or range answers an EMPTY synopsis cell, never an
//     error — absence of writes is a valid answer. Multi-key and
//     multi-metric requests fan out inside the backend (per-shard gather
//     in the store, scatter-gather in the cluster, batch+speed merge in
//     Lambda), and aggregate answers merge per-key synopses in sorted key
//     order, so Aggregate equals per-key query + store.CombineSnapshots
//     byte for byte. An inclusive-range single-series question is
//     store.PointRequest away; there is no second query API.
//   - QueryContext is Query honoring a deadline: ctx threads through the
//     store's per-shard fan-out, the cluster's scatter-gather and the
//     serving client's HTTP request, so a cancelled or expired context
//     aborts the gather. With a live context it answers exactly what
//     Query would (Query is QueryContext on context.Background()); a
//     cancelled context yields an error wrapping ctx.Err(), never a
//     partial answer.
//   - Keys returns the metric's resident keys (deduplicated; order is
//     backend-defined). An unknown metric answers an empty slice, not an
//     error — Keys is a discovery call, not a validation call.
//   - Stats snapshots the backend's store counters: the store's own, the
//     aggregate across cluster nodes, or the Lambda speed layer's (its
//     sealed batch view reports separately via BatchView().Stats()).
package analytics

import (
	"context"

	"repro/internal/store"
)

// Backend is the unified serving API: six methods, with ObserveBatch
// the only way writes enter. store.Store, dstore.Router,
// lambda.Architecture and serve.Client satisfy it; engine.SinkBolt sinks
// topology streams into any of them through it, and the Instrument and
// Admit decorators wrap any of them. See the package comment for the
// exact semantics every implementation must honor.
type Backend interface {
	// RegisterMetric binds a metric name to the prototype its bucket
	// synopses are built from.
	RegisterMetric(name string, proto store.Prototype) error
	// ObserveBatch absorbs all of obs or none of it, and must not
	// retain obs after it returns: the caller may reuse the slice. It is
	// the only write method; one observation is a one-element batch.
	ObserveBatch(obs []store.Observation) error
	// Query answers one typed request; see store.QueryRequest and
	// store.QueryResult.
	Query(req store.QueryRequest) (store.QueryResult, error)
	// QueryContext is Query aborted when ctx is cancelled or expires.
	QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error)
	// Keys returns the metric's resident keys.
	Keys(metric string) []string
	// Stats snapshots the backend's store counters.
	Stats() store.Stats
}

// QueryContext and ObserveBatch are one-line forwards to the methods of
// the same name. They predate those methods being part of Backend and
// stay only because the benchmark module (bench/ladder.go), which this
// module may not edit, compiles against them; in-repo code calls the
// methods.

// QueryContext answers req through be honoring ctx.
func QueryContext(ctx context.Context, be Backend, req store.QueryRequest) (store.QueryResult, error) {
	return be.QueryContext(ctx, req)
}

// ObserveBatch absorbs obs through be, all or nothing.
func ObserveBatch(be Backend, obs []store.Observation) error {
	return be.ObserveBatch(obs)
}
