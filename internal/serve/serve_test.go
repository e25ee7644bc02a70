// The serving-tier suite: wire-codec round-trip property, cross-backend
// conformance over HTTP (client answers byte-identical to in-process
// Backend.Query, with and without the read cache), cache hit/invalidate
// flows at the edge, deadline propagation into the cluster's
// scatter-gather, and remote trace adoption.
package serve

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/rcache"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The client must satisfy the full serving contract.
var _ analytics.Backend = (*Client)(nil)

const testBucket = 10

func testGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: testBucket, RingBuckets: 64}
}

// testSpecs is one metric per synopsis family, mirroring the analytics
// conformance dataset.
func testSpecs() map[string]ProtoSpec {
	return map[string]ProtoSpec{
		"uniq": DistinctSpec(12, 7),
		"hits": FreqSpec(512, 4, 7),
		"top":  TopKSpec(32),
		"lat":  QuantileSpec(16, 64),
	}
}

// feed streams the deterministic dataset through be: keys k0..k3, times
// [0, span), one observation per family per tick.
func feed(t *testing.T, be analytics.Backend, span int64) {
	t.Helper()
	for i := int64(0); i < span; i++ {
		key := fmt.Sprintf("k%d", i%4)
		item := fmt.Sprintf("u%d", i%13)
		for _, obs := range []store.Observation{
			{Metric: "uniq", Key: key, Item: item, Time: i},
			{Metric: "hits", Key: key, Item: item, Value: 2, Time: i},
			{Metric: "top", Key: key, Item: item, Time: i},
			{Metric: "lat", Key: key, Value: uint64(i), Time: i},
		} {
			if err := be.ObserveBatch([]store.Observation{obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func marshalSyn(t *testing.T, syn store.Synopsis) []byte {
	t.Helper()
	m, ok := syn.(encoding.BinaryMarshaler)
	if !ok {
		t.Fatalf("synopsis %T not marshalable", syn)
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSameResult pins byte-identical answers between two results.
func requireSameResult(t *testing.T, label string, want, got store.QueryResult) {
	t.Helper()
	wa, ga := want.Answers(), got.Answers()
	if len(wa) != len(ga) {
		t.Fatalf("%s: answer count %d != %d", label, len(ga), len(wa))
	}
	for i := range wa {
		w, g := wa[i], ga[i]
		if w.Metric != g.Metric || w.Key != g.Key || w.Aggregate != g.Aggregate {
			t.Fatalf("%s[%d]: cell (%s,%s,%v) != (%s,%s,%v)",
				label, i, g.Metric, g.Key, g.Aggregate, w.Metric, w.Key, w.Aggregate)
		}
		if w.Family() != g.Family() || w.Items() != g.Items() {
			t.Fatalf("%s[%d]: family/items mismatch", label, i)
		}
		if !bytes.Equal(marshalSyn(t, w.Raw()), marshalSyn(t, g.Raw())) {
			t.Fatalf("%s[%d] %s/%s: synopsis bytes differ", label, i, w.Metric, w.Key)
		}
	}
}

// TestServeWireRoundTrip is the codec property: for every synopsis
// family, QueryResult -> wire JSON -> QueryResult reproduces the
// synopsis bytes exactly, and re-encoding reproduces the wire JSON
// exactly.
func TestServeWireRoundTrip(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	for name, spec := range specs {
		proto, err := spec.Prototype()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, st, 200)

	for metric := range specs {
		for _, req := range []store.QueryRequest{
			{Metric: metric, Keys: []string{"k0", "k2"}, From: 0, To: 200},
			{Metric: metric, AllKeys: true, Aggregate: true, From: 50, To: 150},
			{Metric: metric, Key: "never-written", From: 0, To: 200},
		} {
			res, err := st.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			var back QueryResponse
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeResult(back, func(m string) (ProtoSpec, bool) {
				s, ok := specs[m]
				return s, ok
			})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, metric, res, decoded)

			// Re-encoding the decoded result reproduces the wire bytes.
			wire2, err := EncodeResult(decoded)
			if err != nil {
				t.Fatal(err)
			}
			raw2, err := json.Marshal(wire2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, raw2) {
				t.Fatalf("%s: wire JSON not stable across decode/re-encode", metric)
			}
		}
	}
}

// serveHarness is one backend behind an httptest server.
type serveHarness struct {
	name   string
	be     analytics.Backend
	drain  func() error
	cache  *rcache.Cache
	server *Server
	client *Client
}

// newHarness builds backend kind behind a serve.Server (+cache when
// withCache), registers the family metrics and returns a synced client.
func newHarness(t *testing.T, kind string, withCache bool) *serveHarness {
	t.Helper()
	h := &serveHarness{name: kind, drain: func() error { return nil }}
	start := func() {}
	switch kind {
	case "store":
		st, err := store.New(testGeom())
		if err != nil {
			t.Fatal(err)
		}
		h.be = st
	case "cluster":
		cl, err := dstore.New(dstore.Config{Partitions: 4, Store: testGeom()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		// Nodes start after metric registration (the cluster's ordering
		// contract), so the start is deferred below the register loop.
		start = func() {
			for i := 0; i < 2; i++ {
				if _, err := cl.StartNode(); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.be, h.drain = cl.Router(), cl.Drain
	case "lambda":
		ar, err := lambda.New(lambda.Config{Partitions: 2, Store: testGeom()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ar.Close() })
		h.be = ar
	default:
		t.Fatalf("unknown backend kind %q", kind)
	}
	if withCache {
		var err error
		h.cache, err = rcache.New(rcache.Config{BucketWidth: testBucket})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(Config{Backend: h.be, Cache: h.cache})
	if err != nil {
		t.Fatal(err)
	}
	h.server = srv
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	h.client = NewClient(ts.URL, ts.Client())
	for name, spec := range testSpecs() {
		if err := h.client.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	start()
	return h
}

// feedWire streams the dataset through the serving edge (batched), so
// the cache watermarks see every write, then drains the backend.
func (h *serveHarness) feedWire(t *testing.T, span int64) {
	t.Helper()
	var batch []store.Observation
	for i := int64(0); i < span; i++ {
		key := fmt.Sprintf("k%d", i%4)
		item := fmt.Sprintf("u%d", i%13)
		batch = append(batch,
			store.Observation{Metric: "uniq", Key: key, Item: item, Time: i},
			store.Observation{Metric: "hits", Key: key, Item: item, Value: 2, Time: i},
			store.Observation{Metric: "top", Key: key, Item: item, Time: i},
			store.Observation{Metric: "lat", Key: key, Value: uint64(i), Time: i},
		)
		if len(batch) >= 256 {
			if err := h.client.ObserveBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := h.client.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := h.drain(); err != nil {
		t.Fatal(err)
	}
}

// conformanceRequests is the query shape matrix every backend must
// answer identically over the wire and in process.
func conformanceRequests() []store.QueryRequest {
	return []store.QueryRequest{
		{Metric: "uniq", Key: "k1", From: 0, To: 100},
		{Metric: "hits", Keys: []string{"k0", "k3"}, From: 20, To: 90},
		{Metric: "top", AllKeys: true, From: 0, To: 100},
		{Metric: "lat", AllKeys: true, Aggregate: true, From: 0, To: 100},
		{Metrics: []string{"uniq", "top"}, Keys: []string{"k0", "k1"}, From: 10, To: 60},
		{Metric: "uniq", Key: "never-written", From: 0, To: 100},
	}
}

// TestServeConformance pins the over-the-wire contract: for every
// backend, with and without the read cache, the HTTP client's answers
// are byte-identical to in-process Backend.Query — and under the cache,
// asking twice stays identical (the second answer comes from the
// cache).
func TestServeConformance(t *testing.T) {
	for _, kind := range []string{"store", "cluster", "lambda"} {
		for _, withCache := range []bool{false, true} {
			name := kind
			if withCache {
				name += "-cached"
			}
			t.Run(name, func(t *testing.T) {
				h := newHarness(t, kind, withCache)
				h.feedWire(t, 100)
				for i, req := range conformanceRequests() {
					want, err := h.be.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := h.client.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("req%d", i), want, got)
					// Ask again: under the cache the repeat may be served
					// from it and must still match exactly.
					again, err := h.client.Query(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("req%d-repeat", i), want, again)
				}
				// Unknown metrics keep the sentinel across the wire.
				_, err := h.client.Query(context.Background(), store.QueryRequest{Metric: "nope", Key: "k", From: 0, To: 10})
				if !errors.Is(err, store.ErrUnknownMetric) {
					t.Fatalf("unknown metric error = %v, want ErrUnknownMetric", err)
				}
				// Keys crosses the wire as the same set.
				want := append([]string(nil), h.be.Keys("uniq")...)
				got := h.client.Keys("uniq")
				if len(want) != len(got) {
					t.Fatalf("Keys: %v != %v", got, want)
				}
				// Stats answers the backend's counters.
				if h.client.Stats().Observed != h.be.Stats().Observed {
					t.Fatal("Stats.Observed differs across the wire")
				}
			})
		}
	}
}

// TestServeCacheFlow drives the edge-cache lifecycle over HTTP: a
// sealed-range query is cold, its repeat is a cache hit, and a write
// that advances the metric's open bucket invalidates — the next query
// recomputes.
func TestServeCacheFlow(t *testing.T) {
	h := newHarness(t, "store", true)
	h.feedWire(t, 100) // open bucket is 9; [0, 90) fully sealed

	req := store.QueryRequest{Metric: "top", Key: "k1", From: 0, To: 90}
	askedBefore(t, h.cache, req)
	cold, err := h.client.QueryWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first sealed-range query must not be cached")
	}
	warm, err := h.client.QueryWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat sealed-range query must be a cache hit")
	}
	if a, b := mustJSON(t, cold.Answers), mustJSON(t, warm.Answers); !bytes.Equal(a, b) {
		t.Fatal("cached answer differs from cold answer")
	}

	// An unsealed range is never cached.
	open, err := h.client.QueryWire(context.Background(), store.QueryRequest{Metric: "top", Key: "k1", From: 0, To: 100})
	if err != nil {
		t.Fatal(err)
	}
	if open.Cached {
		t.Fatal("range touching the open bucket must not be cached")
	}

	// A write advancing the open bucket invalidates the cached entry.
	if err := h.client.ObserveBatch([]store.Observation{{Metric: "top", Key: "k1", Item: "late", Time: 120}}); err != nil {
		t.Fatal(err)
	}
	after, err := h.client.QueryWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-advance query must recompute, not hit the cache")
	}
	if st := h.cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit", st)
	}
}

// askedBefore looks req up once on cache, as an earlier ask would have:
// the cache's doorkeeper then admits the answer of the next miss, so a
// test can see an answer cached on its first query over the edge.
func askedBefore(t *testing.T, cache *rcache.Cache, req store.QueryRequest) {
	t.Helper()
	if _, hit, tok := cache.Lookup(req); hit || !tok.Cacheable() {
		t.Fatalf("priming lookup: hit=%v cacheable=%v, want a cacheable miss", hit, tok.Cacheable())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeDeadline proves the deadline path end to end: a request
// whose header budget has already lapsed aborts the cluster's
// scatter-gather with 504 / context.DeadlineExceeded — and the nodes
// are not poisoned: the same query with a sane budget answers
// correctly afterwards.
func TestServeDeadline(t *testing.T) {
	h := newHarness(t, "cluster", false)
	h.feedWire(t, 100)

	req := store.QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: 100}
	body := mustJSON(t, WireRequest(mustNormalize(t, req)))

	hreq, err := http.NewRequest(http.MethodPost, h.client.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(TimeoutHeader, "1ns")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired budget answered %d, want 504", resp.StatusCode)
	}
	var eb ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "cancelled") {
		t.Fatalf("504 body %q does not mention cancellation", eb.Error)
	}

	// The client surfaces the sentinel for errors.Is.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline lapse
	if _, err := h.client.Query(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client deadline error = %v, want DeadlineExceeded", err)
	}

	// No poisoned node state: the identical query with a real budget
	// answers exactly what the in-process router answers.
	want, err := h.be.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.client.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-deadline", want, got)
}

func mustNormalize(t *testing.T, req store.QueryRequest) store.QueryRequest {
	t.Helper()
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServeCancelledScatterGather pins the in-process half of the
// deadline satellite: a cancelled context aborts dstore's fenced
// scatter-gather with the context sentinel, and the cluster keeps
// serving afterwards.
func TestServeCancelledScatterGather(t *testing.T) {
	cl, err := dstore.New(dstore.Config{Partitions: 4, Store: testGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	proto, err := testSpecs()["uniq"].Prototype()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterMetric("uniq", proto); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	r := cl.Router()
	for i := int64(0); i < 100; i++ {
		if err := r.ObserveBatch([]store.Observation{{Metric: "uniq", Key: fmt.Sprintf("k%d", i%4), Item: fmt.Sprint(i), Time: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}

	req := store.QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: 100}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scatter-gather error = %v, want context.Canceled", err)
	}
	// Node state intact: the same query answers normally afterwards.
	want, err := r.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-cancel", want, got)
}

// TestServeTraceAdoption pins cross-process stitching: a client-side
// trace context rides the header, the server adopts the remote trace
// id, and the retained server-side trace carries the edge span plus the
// backend's stage spans under the CLIENT's id.
func TestServeTraceAdoption(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewTraced(trace.NewTracer(trace.Config{SampleRate: 1}))
	serverTrc := reg.Tracer()
	st.SetTelemetry(reg)
	srv, err := NewServer(Config{Backend: st, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	for name, spec := range testSpecs() {
		if err := client.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.ObserveBatch([]store.Observation{{Metric: "uniq", Key: "k0", Item: "u1", Time: 5}}); err != nil {
		t.Fatal(err)
	}

	clientTrc := trace.NewTracer(trace.Config{SampleRate: 1})
	sp := clientTrc.StartRoot("client.query")
	req := store.QueryRequest{Metric: "uniq", Key: "k0", From: 0, To: 10, Trace: sp.Context()}
	wantID := sp.Context().Trace
	if _, err := client.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	sp.Finish()

	var adopted *trace.TraceSnapshot
	for _, snap := range serverTrc.Traces() {
		if snap.ID == wantID {
			adopted = &snap
			break
		}
	}
	if adopted == nil {
		t.Fatalf("server retained no trace with the client's id %x", uint64(wantID))
	}
	var names []string
	for _, s := range adopted.Spans {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "serve.query") {
		t.Fatalf("adopted trace %v lacks the edge span", names)
	}
	if !strings.Contains(joined, "store.query") && len(adopted.Spans) < 2 {
		t.Fatalf("adopted trace %v lacks backend stage spans", names)
	}
	if st := serverTrc.Stats(); st.Started == 0 {
		t.Fatal("adoption did not start a server-side root")
	}
}

// TestServeObserveTraceReachesStore: a traced /v1/observe on the store
// backend stitches the edge span and the store's write span into one
// trace under the client's id, serve.observe -> store.observe: the
// handler's ObserveBatch is the store's only write path, and it traces.
func TestServeObserveTraceReachesStore(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewTraced(trace.NewTracer(trace.Config{SampleRate: 1}))
	serverTrc := reg.Tracer()
	st.SetTelemetry(reg)
	srv, err := NewServer(Config{Backend: st, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	for name, spec := range testSpecs() {
		if err := client.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	sp := trace.NewTracer(trace.Config{SampleRate: 1}).StartRoot("client.observe")
	batch := []store.Observation{
		{Metric: "uniq", Key: "k0", Item: "u1", Time: 5, Trace: sp.Context()},
		{Metric: "uniq", Key: "k1", Item: "u2", Time: 5, Trace: sp.Context()},
	}
	if err := client.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	sp.Finish()

	// The edge span finishes as the handler returns, which can trail the
	// response the client already read.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var names []string
		for _, snap := range serverTrc.Traces() {
			if snap.ID != sp.Context().Trace {
				continue
			}
			var edge trace.SpanID
			for _, s := range snap.Spans {
				names = append(names, s.Name)
				if s.Name == "serve.observe" {
					edge = s.ID
				}
			}
			for _, s := range snap.Spans {
				if edge != 0 && s.Name == "store.observe" && s.Parent == edge {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serve.observe -> store.observe trace under the client's id; spans seen %v", names)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRegisterValidation covers the register edge: duplicate names
// conflict, unknown families fail, and the HTTP surface maps both.
func TestServeRegisterValidation(t *testing.T) {
	h := newHarness(t, "store", false)
	if err := h.client.Register("uniq", DistinctSpec(12, 7)); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if err := h.client.Register("bad", ProtoSpec{Family: "nope"}); err == nil {
		t.Fatal("unknown family must fail")
	}
	if err := h.client.RegisterMetric("x", func() store.Synopsis { return nil }); err == nil {
		t.Fatal("RegisterMetric over the wire must refuse (prototypes don't serialize)")
	}
	// A fresh read-only client learns the schema via Sync.
	ro := NewClient(h.client.base, nil)
	if err := ro.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.spec("uniq"); !ok {
		t.Fatal("Sync did not import the server schema")
	}
}

// TestServeRegisterDuplicateConflict pins /v1/register's 409 for a name
// the backend already holds, on every backend (the cluster before its
// nodes start, the only time it takes a registration). The status comes
// from the shared registry's "already registered" error, and the first
// registration keeps serving.
func TestServeRegisterDuplicateConflict(t *testing.T) {
	for _, kind := range []string{"store", "cluster", "lambda"} {
		t.Run(kind, func(t *testing.T) {
			var be analytics.Backend
			start, drain := func() {}, func() error { return nil }
			switch kind {
			case "store":
				st, err := store.New(testGeom())
				if err != nil {
					t.Fatal(err)
				}
				be = st
			case "cluster":
				cl, err := dstore.New(dstore.Config{Partitions: 2, Store: testGeom()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				be, drain = cl.Router(), cl.Drain
				start = func() {
					if _, err := cl.StartNode(); err != nil {
						t.Fatal(err)
					}
				}
			case "lambda":
				ar, err := lambda.New(lambda.Config{Partitions: 2, Store: testGeom()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ar.Close() })
				be = ar
			}
			srv, err := NewServer(Config{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			post := func(path string, v any) *http.Response {
				t.Helper()
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(mustJSON(t, v)))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			register := func(spec ProtoSpec) int {
				t.Helper()
				resp := post("/v1/register", RegisterRequest{Name: "uniq", Spec: spec})
				resp.Body.Close()
				return resp.StatusCode
			}
			if code := register(DistinctSpec(12, 7)); code != http.StatusOK {
				t.Fatalf("first register answered %d, want 200", code)
			}
			if code := register(FreqSpec(512, 4, 7)); code != http.StatusConflict {
				t.Fatalf("duplicate register answered %d, want 409", code)
			}
			start()
			if err := be.ObserveBatch([]store.Observation{{Metric: "uniq", Key: "k0", Item: "u1", Time: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := drain(); err != nil {
				t.Fatal(err)
			}
			resp := post("/v1/query", QueryRequest{Metrics: []string{"uniq"}, Keys: []string{"k0"}, From: 0, To: 10})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query after the refused duplicate answered %d, want 200", resp.StatusCode)
			}
			var qr QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			if len(qr.Answers) != 1 || qr.Answers[0].Family != FamilyDistinct || qr.Answers[0].Distinct != 1 {
				t.Fatalf("answers %+v, want one distinct cell counting 1 (the first registration's family)", qr.Answers)
			}
		})
	}
}

// An unknown metric is answered by the backend, every time: a 404 at
// the edge leaves nothing behind that could shadow the metric once it is
// registered on the backend directly, behind the edge's back.
func TestServeBackendRegisterNotShadowed(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st, NegCache: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := mustJSON(t, QueryRequest{Metrics: []string{"ghost"}, Keys: []string{"k0"}, From: 0, To: 10})
	query := func() (int, QueryResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, qr
	}

	if code, _ := query(); code != http.StatusNotFound {
		t.Fatalf("ghost query answered %d, want 404", code)
	}
	proto, err := DistinctSpec(12, 7).Prototype()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("ghost", proto); err != nil {
		t.Fatal(err)
	}
	code, qr := query()
	if code != http.StatusOK {
		t.Fatalf("ghost query after a backend register answered %d, want 200", code)
	}
	if len(qr.Answers) != 1 || qr.Answers[0].Items != 0 {
		t.Fatalf("ghost answer %+v, want 1 empty cell", qr.Answers)
	}
}

// TestServeBadRequests covers wire validation: malformed JSON, empty
// ranges and bad timeout headers answer 400 with an error body.
func TestServeBadRequests(t *testing.T) {
	h := newHarness(t, "store", false)
	post := func(path, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, h.client.base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/v1/query", "{not json", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON answered %d", resp.StatusCode)
	}
	if resp := post("/v1/query", `{"metrics":["uniq"],"from":5,"to":5}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty range answered %d", resp.StatusCode)
	}
	if resp := post("/v1/query", `{"metrics":["uniq"],"keys":["k"],"from":0,"to":10}`,
		map[string]string{TimeoutHeader: "soon"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout header answered %d", resp.StatusCode)
	}
	if resp := post("/v1/observe", `{"observations":[{"metric":"ghost","key":"k","time":1}]}`, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("observe of unknown metric answered %d", resp.StatusCode)
	}
}

// TestServeBodyCap pins the edge's request-size cap: a POST body one
// byte over maxBodyBytes answers 413 on every decoding route, counts
// against the route's error counter and reaches the backend not at all;
// a body of exactly the cap is still served.
func TestServeBodyCap(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("uniq", DistinctSpec(12, 7)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Leading whitespace is legal JSON, so each body is valid but for
	// its size.
	post := func(route, body string, size int) int {
		t.Helper()
		padded := strings.Repeat(" ", size-len(body)) + body
		resp, err := ts.Client().Post(ts.URL+"/v1/"+route, "application/json", strings.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct{ route, body string }{
		{"register", `{"name":"%s","spec":{"family":"distinct","precision":12,"seed":7}}`},
		{"observe", `{"observations":[{"metric":"uniq","key":"%s","item":"u","time":1}]}`},
		{"query", `{"metrics":["uniq"],"keys":["%s"],"from":0,"to":10}`},
	} {
		errsBefore, seenBefore := srv.errs[tc.route].Value(), st.Stats().Observed
		if code := post(tc.route, fmt.Sprintf(tc.body, "over"), maxBodyBytes+1); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: cap+1 bytes answered %d, want 413", tc.route, code)
		}
		if got := srv.errs[tc.route].Value(); got != errsBefore+1 {
			t.Fatalf("%s: errors_total moved %d → %d, want +1", tc.route, errsBefore, got)
		}
		if got := st.Stats().Observed; got != seenBefore {
			t.Fatalf("%s: refused body reached the backend: observed %d → %d", tc.route, seenBefore, got)
		}
		if code := post(tc.route, fmt.Sprintf(tc.body, "at"), maxBodyBytes); code != http.StatusOK {
			t.Fatalf("%s: body of exactly the cap answered %d, want 200", tc.route, code)
		}
	}
	if got := st.Stats().Observed; got != 1 {
		t.Fatalf("observed %d after the one at-cap write, want 1", got)
	}
}
