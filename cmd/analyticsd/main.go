// Command analyticsd serves the analytics.Backend contract over HTTP:
// the repo's serving tier as a standalone daemon. One port carries the
// data plane (register / observe / query / keys / stats under /v1/) and
// the observability plane (/metrics, /debug/analytics, /debug/traces,
// /debug/slow, optional /debug/pprof) — see internal/serve for the wire
// format and headers.
//
// The backend is selectable: the sharded store (default), the
// partitioned cluster behind its ingest log, or the full Lambda
// Architecture. Sealed-range query answers are cached at the edge
// (internal/rcache) and invalidated as writes arrive; responses carry
// "cached": true when served from the cache.
//
// With -rate > 0 the daemon runs admission control (internal/admission):
// token buckets bound total ingest, each metric and each tenant (billed
// to the -tenant-header request header), the cluster backend feeds its
// consumer-group lag into the backpressure ladder, and shed writes
// answer 429 with a Retry-After header instead of degrading everyone.
//
// Usage:
//
//	go run ./cmd/analyticsd [-addr :8080] [-backend store|cluster|lambda]
//	    [-events 50000] [-cache 4096] [-trace 0.05] [-pprof]
//	    [-rate 0] [-burst 0] [-tenant-header X-Analytics-Tenant]
//
// With -events > 0 the daemon preloads a deterministic demo dataset
// (one metric per synopsis family: uniques, top-pages, page-hits,
// latency-us) so curl has something to answer immediately:
//
//	curl -s localhost:8080/v1/query -d '{"metrics":["top-pages"],"aggregate":true,"all_keys":true,"from":0,"to":4000}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/rcache"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	bucketWidth = 100
	ringBuckets = 256

	// shutdownGrace bounds how long SIGINT/SIGTERM waits for in-flight
	// requests before closing their connections.
	shutdownGrace = 5 * time.Second
)

func storeGeom(shards int) store.Config {
	return store.Config{Shards: shards, BucketWidth: bucketWidth, RingBuckets: ringBuckets}
}

// buildBackend assembles the selected serving layer. start runs any
// deferred bring-up that must wait until after metric registration (the
// cluster starts its nodes then — dstore requires every RegisterMetric
// before StartNode); drain reaches read-your-writes after preload;
// cleanup tears the layer down; lag, when non-nil, samples the
// backend's consumer-group lag for the admission controller's
// backpressure ladder.
func buildBackend(kind string, shards int, reg *telemetry.Registry) (be analytics.Backend, start, drain func() error, cleanup func(), lag func() uint64, err error) {
	none := func() error { return nil }
	switch kind {
	case "store":
		st, err := store.New(storeGeom(shards))
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		st.SetTelemetry(reg)
		return st, none, none, func() {}, nil, nil
	case "cluster":
		cl, err := dstore.New(dstore.Config{Partitions: 4, Store: storeGeom(shards)})
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		cl.SetTelemetry(reg)
		start = func() error {
			for i := 0; i < 2; i++ {
				if _, err := cl.StartNode(); err != nil {
					return err
				}
			}
			return nil
		}
		return cl.Router(), start, cl.Drain, func() { cl.Close() }, cl.Lag, nil
	case "lambda":
		ar, err := lambda.New(lambda.Config{Batch: storeGeom(shards), Speed: storeGeom(shards)})
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		ar.SetTelemetry(reg)
		return ar, none, ar.Drain, func() { ar.Close() }, nil, nil
	default:
		return nil, nil, nil, nil, nil, fmt.Errorf("unknown -backend %q (store, cluster or lambda)", kind)
	}
}

// registerDemo declares the demo schema (one metric per synopsis
// family) through the serving edge's own registration path. It must run
// before start() — the cluster backend refuses registrations once its
// nodes are up.
func registerDemo(srv *serve.Server) error {
	for name, spec := range map[string]serve.ProtoSpec{
		"uniques":    serve.DistinctSpec(12, 42),
		"page-hits":  serve.FreqSpec(1024, 4, 42),
		"top-pages":  serve.TopKSpec(32),
		"latency-us": serve.QuantileSpec(20, 512),
	} {
		if err := srv.Register(name, spec); err != nil {
			return err
		}
	}
	return nil
}

// preload streams a deterministic Zipf-keyed demo dataset through the
// backend and the cache-invalidation path, so a fresh daemon answers
// queries (and exercises the cache) immediately. Observations flow
// through the batched ingest path in chunks — against the cluster
// backend that is Router.ObserveBatch grouping records per partition —
// and the raw backend, not the admission-wrapped one: a daemon must
// not shed its own demo dataset.
func preload(be analytics.Backend, cache *rcache.Cache, events int) error {
	const chunk = 512
	zipf := workload.NewZipf(workload.NewRNG(7), 64, 1.2)
	batch := make([]store.Observation, 0, chunk)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := be.ObserveBatch(batch); err != nil {
			return err
		}
		if cache != nil {
			for i := range batch {
				cache.NoteObserve(batch[i].Metric, batch[i].Time)
			}
		}
		batch = batch[:0]
		return nil
	}
	for i := 0; i < events; i++ {
		t := int64(i)
		page := fmt.Sprintf("page-%02d", zipf.Draw())
		user := fmt.Sprintf("user-%d", (i*2654435761)%20000)
		lat := uint64(100 + (i*37)%9000)
		batch = append(batch,
			store.Observation{Metric: "uniques", Key: page, Item: user, Time: t},
			store.Observation{Metric: "page-hits", Key: page, Item: page, Time: t},
			store.Observation{Metric: "top-pages", Key: "all", Item: page, Time: t},
			store.Observation{Metric: "latency-us", Key: page, Value: lat, Time: t},
		)
		if len(batch) >= chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	be.Flush()
	return nil
}

// newHTTPServer is the repo's one http.Server construction. It carries
// defensive timeouts — ReadHeaderTimeout above all, since a zero value
// leaves the listener open to slowloris header dribbling — sized so the
// slowest legitimate responses (30s pprof CPU profiles, 60s execution
// traces) still fit inside WriteTimeout.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backend := flag.String("backend", "store", "serving layer: store, cluster or lambda")
	shards := flag.Int("shards", 8, "store shard count per node")
	events := flag.Int("events", 50000, "demo observations to preload (0 = start empty)")
	cacheEntries := flag.Int("cache", 4096, "read-cache entry budget (0 disables the cache)")
	traceRate := flag.Float64("trace", 0.05, "trace sample rate in [0,1]; 0 disables tracing")
	slowThresh := flag.Duration("slow", 2*time.Millisecond, "queries at or over this duration are slow-logged (needs -trace)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-query deadline (X-Analytics-Timeout overrides, clamped to -maxtimeout)")
	maxTimeout := flag.Duration("maxtimeout", time.Minute, "upper bound for client-requested deadlines")
	rate := flag.Float64("rate", 0, "admission rate in observations/sec shared by the global, per-metric and per-tenant buckets (0 = no admission control)")
	burst := flag.Float64("burst", 0, "admission burst size in observations (0 = 2x -rate)")
	tenantHeader := flag.String("tenant-header", serve.DefaultTenantHeader, "request header naming the tenant a write batch is billed to")
	negCache := flag.Int("negcache", 256, "negative-result cache entries for unknown-metric probes (0 disables)")
	flag.Parse()

	var trc *trace.Tracer
	if *traceRate > 0 {
		trc = trace.NewTracer(trace.Config{SampleRate: *traceRate, SlowThreshold: *slowThresh})
	}
	reg := telemetry.NewTraced(trc)

	be, start, drain, cleanup, lag, err := buildBackend(*backend, *shards, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyticsd:", err)
		os.Exit(1)
	}
	defer cleanup()

	// Admission: one -rate bounds total ingest, each metric and each
	// tenant individually (fairness at every scope without a flag per
	// scope). The cluster backend additionally feeds its consumer-group
	// lag into the backpressure ladder, so a daemon whose nodes fall
	// behind throttles producers instead of growing the log unboundedly.
	var ctrl *admission.Controller
	if *rate > 0 {
		if *burst <= 0 {
			*burst = 2 * *rate
		}
		cfg := admission.Config{
			Rate: *rate, Burst: *burst,
			MetricRate: *rate, MetricBurst: *burst,
			TenantRate: *rate, TenantBurst: *burst,
		}
		if lag != nil {
			cfg.Backpressure = admission.BackpressureConfig{
				Lag:     lag,
				LagHigh: uint64(*burst) * 16,
			}
		}
		if ctrl, err = admission.New(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "analyticsd:", err)
			os.Exit(1)
		}
		ctrl.SetTelemetry(reg)
	}

	var cache *rcache.Cache
	if *cacheEntries > 0 {
		cache, err = rcache.New(rcache.Config{BucketWidth: bucketWidth, MaxEntries: *cacheEntries})
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyticsd:", err)
			os.Exit(1)
		}
	}

	// Admission wraps OUTSIDE instrumentation: a shed write never reaches
	// the instrumented backend, so observe counters and latency
	// histograms only see admitted traffic (the shed side is accounted by
	// analytics_admission_*).
	srv, err := serve.NewServer(serve.Config{
		Backend:        analytics.Admit(analytics.Instrument(be, reg, *backend), ctrl),
		Cache:          cache,
		Registry:       reg,
		Pprof:          *pprofOn,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Admission:      ctrl,
		TenantHeader:   *tenantHeader,
		NegCache:       *negCache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyticsd:", err)
		os.Exit(1)
	}

	if *events > 0 {
		if err := registerDemo(srv); err != nil {
			fmt.Fprintln(os.Stderr, "analyticsd: register:", err)
			os.Exit(1)
		}
	}
	// Deferred backend bring-up (cluster node start) happens after the
	// demo schema lands: dstore pins registration before StartNode.
	if err := start(); err != nil {
		fmt.Fprintln(os.Stderr, "analyticsd:", err)
		os.Exit(1)
	}
	if *events > 0 {
		t0 := time.Now()
		if err := preload(be, cache, *events); err != nil {
			fmt.Fprintln(os.Stderr, "analyticsd: preload:", err)
			os.Exit(1)
		}
		if err := drain(); err != nil {
			fmt.Fprintln(os.Stderr, "analyticsd: drain:", err)
			os.Exit(1)
		}
		fmt.Printf("preloaded %d events x 4 metrics in %v (backend %s)\n",
			*events, time.Since(t0).Round(time.Millisecond), *backend)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyticsd:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(srv.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	// The "listening" line is the readiness signal scripts wait for —
	// printed only after the listener is bound.
	fmt.Printf("analyticsd listening on %s (backend %s, cache %d entries)\n",
		ln.Addr(), *backend, *cacheEntries)
	fmt.Printf("  data plane: POST /v1/query /v1/observe /v1/register, GET /v1/keys /v1/stats /v1/metrics\n")
	fmt.Printf("  telemetry:  GET /metrics /debug/analytics")
	if reg.Tracer() != nil {
		fmt.Printf(" /debug/traces /debug/slow")
	}
	if *pprofOn {
		fmt.Printf(" /debug/pprof/")
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("analyticsd: shutting down")
	// Stop accepting, let in-flight requests finish within the grace
	// (cutting whatever is still running after it), then settle what they
	// wrote — producer-side buffers, then the backend's own log — before
	// the deferred cleanup tears the layer down.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		_ = httpSrv.Close()
	}
	be.Flush()
	if err := drain(); err != nil {
		fmt.Fprintln(os.Stderr, "analyticsd: drain:", err)
	}
}
