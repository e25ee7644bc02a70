// Package repro is a production-quality Go toolkit for real-time
// streaming analytics, reproducing the full landscape of the VLDB'15
// tutorial "Real Time Analytics: Algorithms and Systems" (Kejariwal,
// Kulkarni, Ramasamy — Twitter Inc.): every algorithm family of the
// tutorial's Table 1, the synopsis structures of its Section 2, a
// Storm/Heron-style topology engine and Kafka-like partitioned log
// covering the platform design space of its Table 2/Section 3, and the
// Lambda Architecture of its Figure 1.
//
// The implementations live in the internal packages; this root package
// exports only the names a program outside them calls: the examples
// under examples/, the commands under cmd/ and the runnable Example
// functions of this package (a test, TestRootExportsHaveCallers, holds
// every export to that rule). That is the sketches the examples build,
// the topology engine and log, the serving contract (Backend) over its
// three backends — sketch store, store cluster and Lambda — and the
// embedder's wiring: telemetry and tracing, the HTTP edge and its
// client, and admission control. Everything else is reached through
// the internal packages: see their docs for algorithmic detail and
// paper citations, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced experiments.
//
// # Quick start
//
//	hll, _ := repro.NewHyperLogLog(14, 42)
//	topk, _ := repro.NewSpaceSaving(100)
//	for _, tag := range tags {
//	    hll.UpdateString(tag)
//	    topk.Update(tag)
//	}
//	fmt.Println(hll.Estimate(), topk.TopK(10))
package repro

import (
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/anomaly"
	"repro/internal/cardinality"
	"repro/internal/dstore"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/frequency"
	"repro/internal/lambda"
	"repro/internal/mqlog"
	"repro/internal/predict"
	"repro/internal/quantile"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ---- Synopses (Table 1, Section 2) ----

// HyperLogLog estimates distinct counts in ~1.04/sqrt(2^p) relative error.
type HyperLogLog = cardinality.HyperLogLog

// NewHyperLogLog returns an HLL with 2^precision registers.
func NewHyperLogLog(precision uint8, seed uint64) (*HyperLogLog, error) {
	return cardinality.NewHyperLogLog(precision, seed)
}

// KMV is bottom-k distinct counting with Jaccard support.
type KMV = cardinality.KMV

// NewKMV returns a bottom-k sketch of size k.
func NewKMV(k int, seed uint64) (*KMV, error) { return cardinality.NewKMV(k, seed) }

// NewBloom sizes a Bloom filter for expectedItems at fpRate.
func NewBloom(expectedItems int, fpRate float64, seed uint64) (*filter.Bloom, error) {
	return filter.NewBloom(expectedItems, fpRate, seed)
}

// SpaceSaving is the Metwally et al. top-k summary.
type SpaceSaving = frequency.SpaceSaving

// Counted is an item with its estimated count.
type Counted = frequency.Counted

// NewSpaceSaving returns a Space-Saving summary with k counters.
func NewSpaceSaving(k int) (*SpaceSaving, error) { return frequency.NewSpaceSaving(k) }

// NewGK returns a Greenwald–Khanna summary with rank error eps.
func NewGK(eps float64) (*quantile.GK, error) { return quantile.NewGK(eps) }

// CKMS is the targeted/biased-quantile summary.
type CKMS = quantile.CKMS

// QuantileTarget declares a (phi, eps) objective for CKMS.
type QuantileTarget = quantile.Target

// NewCKMS returns a targeted-quantile summary.
func NewCKMS(targets []QuantileTarget) (*CKMS, error) { return quantile.NewCKMS(targets) }

// NewReservoir returns Algorithm R reservoir sampling of size k.
func NewReservoir[T any](k int, seed uint64) (*sampling.Reservoir[T], error) {
	return sampling.NewReservoir[T](k, seed)
}

// NewEWMADetector returns an EWMA control-chart detector.
func NewEWMADetector(alpha float64) (*anomaly.EWMA, error) { return anomaly.NewEWMA(alpha) }

// NewMADDetector returns a median/MAD detector over a window.
func NewMADDetector(windowSize int) (*anomaly.MAD, error) { return anomaly.NewMAD(windowSize) }

// NewChangeDetector returns a KS distribution-shift detector.
func NewChangeDetector(windowSize int, threshold float64) (*anomaly.ChangeDetector, error) {
	return anomaly.NewChangeDetector(windowSize, threshold)
}

// NewKalman returns a scalar Kalman filter predictor.
func NewKalman(q, r float64) (*predict.Kalman, error) { return predict.NewKalman(q, r) }

// NewHolt returns a Holt double-exponential forecaster.
func NewHolt(alpha, beta float64) (*predict.Holt, error) { return predict.NewHolt(alpha, beta) }

// ---- Platforms (Table 2 / Section 3): topology engine and log ----

// TopologyConfig tunes a run (semantics, queues, retries).
type TopologyConfig = engine.Config

// TupleMessage is one tuple.
type TupleMessage = engine.Message

// Bolt processes tuples.
type Bolt = engine.Bolt

// BoltFunc adapts a function to Bolt.
type BoltFunc = engine.BoltFunc

// SpoutFunc adapts a function to a spout.
type SpoutFunc = engine.SpoutFunc

// Delivery semantics.
const (
	AtMostOnce  = engine.AtMostOnce
	AtLeastOnce = engine.AtLeastOnce
)

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *engine.Builder { return engine.NewBuilder() }

// ShuffleFrom / FieldsFrom subscribe bolts to upstream streams with the
// named grouping.
var (
	ShuffleFrom = engine.ShuffleFrom
	FieldsFrom  = engine.FieldsFrom
)

// NewBroker returns an empty Kafka-like partitioned log broker.
func NewBroker() *mqlog.Broker { return mqlog.NewBroker() }

// NewConsumerGroup returns a consumer group over a topic.
func NewConsumerGroup(b *mqlog.Broker, t *mqlog.Topic, name string) (*mqlog.ConsumerGroup, error) {
	return mqlog.NewConsumerGroup(b, t, name)
}

// ---- Serving: one contract over the store, the cluster and Lambda ----

// Backend is the unified serving contract: the sketch store, the store
// cluster's router, Lambda and the analyticsd client all satisfy it, so
// one call site can query the speed store, the partitioned cluster, the
// Lambda batch+speed merge or a remote daemon interchangeably. Five
// methods, no optional ones: RegisterMetric, ObserveBatch (the one write
// path, all-or-nothing; one observation is a one-element batch; a
// returned call means the write is applied, or on the cluster's ingest
// log, so there is nothing to flush), Query (under a ctx that carries
// the deadline), Keys and Stats. See internal/analytics for the exact
// cross-backend semantics (unknown metrics error with ErrUnknownMetric;
// registered metrics with no data answer empty cells).
type Backend = analytics.Backend

// QueryRequest is one typed serving query: metric(s), one/many/all keys,
// a half-open [From, To) stream-time range, and an aggregate-vs-per-key
// flag. The result's typed accessors (Distinct, Count, TopK, Quantile)
// replace caller-side synopsis type assertions; Raw is the escape hatch.
type QueryRequest = store.QueryRequest

// StoreObservation is one data point bound for a Backend.
type StoreObservation = store.Observation

// StoreSynopsis is the mergeable bucket contract of the sketch store.
type StoreSynopsis = store.Synopsis

// FreqSynopsis is the Count-Min bucket synopsis a frequency answer holds.
type FreqSynopsis = store.Freq

// ErrUnknownMetric is the sentinel every Backend wraps when a request or
// observation names a metric that was never registered.
var ErrUnknownMetric = store.ErrUnknownMetric

// SketchStoreConfig tunes a sketch store (shards, bucket geometry,
// retention budgets).
type SketchStoreConfig = store.Config

// NewSketchStore returns an empty sharded store of keyed, time-bucketed
// synopses — the speed-layer serving subsystem (see internal/store).
func NewSketchStore(cfg SketchStoreConfig) (*store.Store, error) { return store.New(cfg) }

// NewDistinctProto returns a HyperLogLog bucket prototype (2^p registers).
func NewDistinctProto(precision uint8, seed uint64) (store.Prototype, error) {
	return store.NewDistinctProto(precision, seed)
}

// NewFreqProto returns a Count-Min bucket prototype.
func NewFreqProto(width, depth int, seed uint64) (store.Prototype, error) {
	return store.NewFreqProto(width, depth, seed)
}

// StoreClusterConfig tunes a store cluster (partitions, per-node store
// config, optional durable log and checkpoint directory).
type StoreClusterConfig = dstore.Config

// NewStoreCluster returns a partitioned store cluster with no nodes: N
// single-threaded store nodes behind one mqlog ingest topic, with
// consumer-group ownership, scatter-gather queries and log-based
// recovery (see internal/dstore). Register metrics, then StartNode; its
// Router is the Backend.
func NewStoreCluster(cfg StoreClusterConfig) (*dstore.Cluster, error) { return dstore.New(cfg) }

// LambdaConfig tunes a Lambda architecture (master topic partitions,
// the store geometry both layers share, optional durable log and
// checkpoint directory).
type LambdaConfig = lambda.Config

// NewLambda returns the Figure 1 architecture on the real subsystems:
// the master dataset is an mqlog topic, batch views are sealed stores
// recomputed up to frozen end-offset snapshots, the speed layer is a
// sketch store, and queries merge the two (see
// internal/lambda). Register metrics, then ObserveBatch/Query; RunBatch
// on the batch cadence.
func NewLambda(cfg LambdaConfig) (*lambda.Architecture, error) { return lambda.New(cfg) }

// ---- Telemetry and tracing ----

// TraceConfig tunes a tracer: SampleRate (0..1 head sampling),
// SlowThreshold (tail-keep + slow-log), ring capacities and the sampler
// seed (seeded runs sample deterministically).
type TraceConfig = trace.Config

// NewTracer returns a tracer for cfg: bounded in-memory rings of
// finished spans plus a slow-query log. Hand it to NewTelemetry: every
// subsystem wired with that registry traces into it.
func NewTracer(cfg TraceConfig) *trace.Tracer { return trace.NewTracer(cfg) }

// NewTelemetry returns an empty metrics registry carrying tr (nil =
// untraced) — the one observability handle every subsystem reports
// into. Wire it into a subsystem with its SetTelemetry method, wrap any
// Backend with Instrument, and serve it with MetricsHandler. A nil
// registry everywhere means "telemetry off".
func NewTelemetry(tr *trace.Tracer) *telemetry.Registry { return telemetry.NewTraced(tr) }

// MetricsHandler returns an http.Handler serving reg: /metrics
// (Prometheus text exposition) and /debug/analytics (a JSON snapshot
// including histogram quantiles); /debug/traces (Chrome trace-event
// JSON) and /debug/slow (the slow-query log) when reg carries a tracer;
// and the standard pprof endpoints under /debug/pprof/ when pprof is
// set. Mount it on an http.Server of your own.
func MetricsHandler(reg *telemetry.Registry, pprof bool) http.Handler {
	return telemetry.Handler(reg, pprof)
}

// Instrument wraps a Backend so every ObserveBatch and Query is counted
// per metric and timed into reg, labeled backend=name. When reg carries
// a tracer it also opens a root span per operation. Answers are
// byte-identical to the bare backend's; a nil registry returns be
// unchanged.
func Instrument(be Backend, reg *telemetry.Registry, name string) Backend {
	return analytics.Instrument(be, reg, name)
}

// ---- HTTP serving edge and its client ----

// AnalyticsServerConfig wires the HTTP serving edge: the Backend it
// fronts (required), an optional read cache, telemetry registry and
// admission controller, and the default/maximum per-query deadlines.
type AnalyticsServerConfig = serve.Config

// NewAnalyticsServer returns the serving edge over cfg.Backend: the
// Backend contract under /v1/ as JSON, plus /metrics and the debug
// surfaces on the same mux. Mount Handler() on your own http.Server;
// cmd/analyticsd is the packaged daemon.
func NewAnalyticsServer(cfg AnalyticsServerConfig) (*serve.Server, error) {
	return serve.NewServer(cfg)
}

// NewAnalyticsClient returns a Backend whose backend is the analyticsd
// (or NewAnalyticsServer edge) at baseURL; nil hc uses
// http.DefaultClient. Declare metrics with Register(name, spec), or Sync
// to pull the server's schema, so the client can decode answers.
func NewAnalyticsClient(baseURL string, hc *http.Client) *serve.Client {
	return serve.NewClient(baseURL, hc)
}

// DistinctMetricSpec declares a HyperLogLog-backed distinct-count metric
// in the wire form both ends of the edge materialize identically.
func DistinctMetricSpec(precision uint8, seed uint64) serve.ProtoSpec {
	return serve.DistinctSpec(precision, seed)
}

// ---- Admission control ----

// AdmissionConfig tunes an admission controller: Rate/Burst for the
// global bucket, MetricRate/TenantRate for the keyed buckets, and a
// Backpressure block wiring lag and disk signals.
type AdmissionConfig = admission.Config

// NewAdmissionController builds a controller that prices writes against
// token buckets and sheds what the budget cannot cover with a typed,
// retryable error.
func NewAdmissionController(cfg AdmissionConfig) (*admission.Controller, error) {
	return admission.New(cfg)
}

// AdmitBackend wraps be so every ObserveBatch first clears ctrl: a shed
// write returns an error matching ErrOverloaded (carrying a Retry-After
// via OverloadWait) and provably never reaches the backend. A nil
// controller returns be unchanged.
func AdmitBackend(be Backend, ctrl *admission.Controller) Backend {
	return analytics.Admit(be, ctrl)
}

// ErrOverloaded is the sentinel every shed write matches with
// errors.Is — locally from an admission controller, or rehydrated by
// the analyticsd client from an HTTP 429 + Retry-After exchange.
var ErrOverloaded = admission.ErrOverloaded

// OverloadWait extracts the quoted Retry-After from a shed error; ok
// reports whether err carries one at all.
func OverloadWait(err error) (wait time.Duration, ok bool) {
	return admission.Wait(err)
}
