package repro_test

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro"
)

// Example demonstrates the unified serving API: a sketch store is one
// repro.Backend (the cluster router and the Lambda architecture are the
// others), typed QueryRequests replace point queries plus type
// assertions, and one multi-key aggregate request answers a union.
func Example() {
	st, err := repro.NewSketchStore(repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60})
	if err != nil {
		panic(err)
	}
	var be repro.Backend = st // or a StoreCluster's Router(), or a Lambda

	hits, err := repro.NewFreqProto(1024, 4, 42)
	if err != nil {
		panic(err)
	}
	if err := be.RegisterMetric("hits", hits); err != nil {
		panic(err)
	}
	for i := 0; i < 90; i++ {
		page := "/home"
		if i%3 == 0 {
			page = "/docs"
		}
		if err := be.ObserveBatch([]repro.StoreObservation{{
			Metric: "hits", Key: page, Item: "get", Value: 1, Time: int64(i),
		}}); err != nil {
			panic(err)
		}
	}

	// One typed request per question — no synopsis type assertions.
	one, err := be.Query(repro.QueryRequest{Metric: "hits", Key: "/home", From: 0, To: 90})
	if err != nil {
		panic(err)
	}
	fmt.Println("/home gets:", one.Count("get"))

	// A multi-key aggregate request unions both pages in one round-trip.
	site, err := be.Query(repro.QueryRequest{
		Metric: "hits", Keys: []string{"/home", "/docs"}, From: 0, To: 90, Aggregate: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("site gets:", site.Count("get"))

	// Unknown metrics fail with a sentinel every backend shares.
	_, err = be.Query(repro.QueryRequest{Metric: "nope", Key: "/home", From: 0, To: 90})
	fmt.Println("unknown metric:", errors.Is(err, repro.ErrUnknownMetric))

	// Output:
	// /home gets: 60
	// site gets: 90
	// unknown metric: true
}

// ExampleNewStoreCluster serves the same contract from a partitioned
// cluster: writes go through the router onto the ingest log, nodes
// consume their partitions, and queries route to the owner or
// scatter-gather across nodes.
func ExampleNewStoreCluster() {
	storeCfg := repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60}
	c, err := repro.NewStoreCluster(repro.StoreClusterConfig{Partitions: 8, Store: storeCfg})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	proto, err := repro.NewDistinctProto(12, 42)
	if err != nil {
		panic(err)
	}
	if err := c.RegisterMetric("uniques", proto); err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.StartNode(); err != nil {
			panic(err)
		}
	}

	r := c.Router()
	var batch []repro.StoreObservation
	for i := 0; i < 300; i++ {
		batch = append(batch, repro.StoreObservation{
			Metric: "uniques", Key: fmt.Sprintf("page:/%d", i%3), Item: fmt.Sprintf("user%d", i%150), Time: int64(i),
		})
	}
	if err := r.ObserveBatch(batch); err != nil {
		panic(err)
	}
	if err := c.Drain(); err != nil { // read-your-writes: wait for the nodes
		panic(err)
	}

	// Owner-routed single key; scatter-gathered aggregate union.
	one, err := r.Query(repro.QueryRequest{Metric: "uniques", Key: "page:/0", From: 0, To: 300})
	if err != nil {
		panic(err)
	}
	all, err := r.Query(repro.QueryRequest{Metric: "uniques", AllKeys: true, From: 0, To: 300, Aggregate: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(one.Distinct(), all.Distinct()) // HyperLogLog estimates of 50 and 150

	// Output:
	// 50 151
}

// ExampleNewLambda runs Figure 1: every write lands in the master log
// and the speed layer, RunBatch recomputes the sealed batch view and
// truncates the speed layer, and queries merge the two.
func ExampleNewLambda() {
	geom := repro.SketchStoreConfig{Shards: 8, BucketWidth: 60, RingBuckets: 60}
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 4, Store: geom})
	if err != nil {
		panic(err)
	}
	defer arch.Close()
	proto, err := repro.NewFreqProto(2048, 4, 42)
	if err != nil {
		panic(err)
	}
	if err := arch.RegisterMetric("hits", proto); err != nil {
		panic(err)
	}

	view := func(now int64) {
		obs := []repro.StoreObservation{{Metric: "hits", Key: "page:/home", Item: "view", Value: 1, Time: now}}
		if err := arch.ObserveBatch(obs); err != nil {
			panic(err)
		}
	}
	for now := int64(0); now < 100; now++ {
		view(now)
	}
	// Freeze the log, recompute the batch view, truncate the speed layer.
	if _, err := arch.RunBatch(); err != nil {
		panic(err)
	}
	for now := int64(100); now < 120; now++ {
		view(now)
	}

	// batch ⊎ speed, per requested cell
	res, err := arch.Query(repro.QueryRequest{Metric: "hits", Key: "page:/home", From: 0, To: 120})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Count("view"), arch.Staleness())

	// Output:
	// 120 20
}

// ExampleInstrument wires metrics and tracing into an embedding
// program: one registry carries both, the layer and the serving
// decorator report into it, and MetricsHandler serves the scrape and
// debug surfaces on a mux of your own.
func ExampleInstrument() {
	st, err := repro.NewSketchStore(repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60})
	if err != nil {
		panic(err)
	}

	trc := repro.NewTracer(repro.TraceConfig{SampleRate: 0.01, SlowThreshold: 5 * time.Millisecond})
	reg := repro.NewTelemetry(trc)           // nil trc: metrics only
	st.SetTelemetry(reg)                     // the store, cluster or Lambda: metrics and spans
	be := repro.Instrument(st, reg, "store") // per-metric counters; roots every request's trace
	mux := http.NewServeMux()
	mux.Handle("/", repro.MetricsHandler(reg, false)) // /metrics, /debug/{analytics,traces,slow}

	proto, err := repro.NewDistinctProto(12, 42)
	if err != nil {
		panic(err)
	}
	if err := be.RegisterMetric("uniques", proto); err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		obs := []repro.StoreObservation{{Metric: "uniques", Key: "page:/home", Item: fmt.Sprint(i), Time: int64(i)}}
		if err := be.ObserveBatch(obs); err != nil {
			panic(err)
		}
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "analytics_backend_observe_total{") {
			fmt.Println(sc.Text())
		}
	}

	// Output:
	// analytics_backend_observe_total{backend="store",metric="uniques"} 3
}

// ExampleAdmitBackend sheds writes the budget cannot cover: a batch is
// admitted whole or not at all, and the shed error quotes the wait
// before a resend fits.
func ExampleAdmitBackend() {
	st, err := repro.NewSketchStore(repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60})
	if err != nil {
		panic(err)
	}
	ctrl, err := repro.NewAdmissionController(repro.AdmissionConfig{
		Rate: 100,                             // observations per second, burst 100
		Now:  func() int64 { return 1 << 40 }, // a frozen clock keeps the output stable
	})
	if err != nil {
		panic(err)
	}
	be := repro.AdmitBackend(st, ctrl)
	proto, err := repro.NewFreqProto(256, 4, 42)
	if err != nil {
		panic(err)
	}
	if err := be.RegisterMetric("hits", proto); err != nil {
		panic(err)
	}

	batch := make([]repro.StoreObservation, 80)
	for i := range batch {
		batch[i] = repro.StoreObservation{Metric: "hits", Key: "page:/home", Item: "view", Value: 1, Time: int64(i)}
	}
	fmt.Println("first batch:", be.ObserveBatch(batch))
	err = be.ObserveBatch(batch) // 20 tokens left for 80 observations
	wait, _ := repro.OverloadWait(err)
	fmt.Println("second batch overloaded:", errors.Is(err, repro.ErrOverloaded), "retry after", wait)
	fmt.Println("observed:", st.Stats().Observed)

	// Output:
	// first batch: <nil>
	// second batch overloaded: true retry after 600ms
	// observed: 80
}

// ExampleNewAnalyticsClient mounts the HTTP serving edge in-process and
// talks to it through the client, itself a Backend: code written
// against the contract points at a remote analyticsd unchanged.
func ExampleNewAnalyticsClient() {
	st, err := repro.NewSketchStore(repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60})
	if err != nil {
		panic(err)
	}
	edge, err := repro.NewAnalyticsServer(repro.AnalyticsServerConfig{Backend: st})
	if err != nil {
		panic(err)
	}
	srv := httptest.NewServer(edge.Handler())
	defer srv.Close()

	client := repro.NewAnalyticsClient(srv.URL, nil)
	// A prototype does not cross the wire; a metric spec does.
	if err := client.Register("uniques", repro.DistinctMetricSpec(12, 42)); err != nil {
		panic(err)
	}
	var be repro.Backend = client
	obs := []repro.StoreObservation{
		{Metric: "uniques", Key: "page:/home", Item: "ann", Time: 1},
		{Metric: "uniques", Key: "page:/home", Item: "bob", Time: 2},
		{Metric: "uniques", Key: "page:/home", Item: "ann", Time: 3},
	}
	if err := be.ObserveBatch(obs); err != nil {
		panic(err)
	}
	res, err := be.Query(repro.QueryRequest{Metric: "uniques", Key: "page:/home", From: 0, To: 60})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Distinct(), be.Keys("uniques"))

	// Output:
	// 2 [page:/home]
}
