package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/rcache"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const testEvents = 2000

// bringUp runs the daemon's own bring-up sequence for one backend kind,
// in main's order, with one registry carrying a sample-everything
// tracer, and returns the serving edge, the layer's drain and its
// cleanup.
func bringUp(t *testing.T, kind string) (*serve.Server, func() error, func()) {
	t.Helper()
	reg := telemetry.NewTraced(trace.NewTracer(trace.Config{SampleRate: 1}))
	be, start, drain, cleanup, _, err := buildBackend(kind, 8, reg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := rcache.New(rcache.Config{BucketWidth: bucketWidth, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Backend:  analytics.Instrument(be, reg, kind),
		Cache:    cache,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := registerDemo(srv); err != nil {
		t.Fatal(err)
	}
	if err := start(); err != nil {
		t.Fatal(err)
	}
	if err := preload(be, cache, testEvents); err != nil {
		t.Fatal(err)
	}
	if err := drain(); err != nil {
		t.Fatal(err)
	}
	return srv, drain, cleanup
}

// post sends body to path on h and fails unless it answers 200.
func post(t *testing.T, h http.Handler, path, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
	}
}

// spanChains reads /debug/traces from h and returns every span's
// ancestry, span names joined root first: "analytics.query > store.gather".
func spanChains(t *testing.T, h http.Handler) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces answered %d", rec.Code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type span struct{ name, parent string }
	spans := map[[2]string]span{} // (trace id, span id)
	for _, ev := range doc.TraceEvents {
		spans[[2]string{ev.Args["trace_id"], ev.Args["span_id"]}] = span{ev.Name, ev.Args["parent_id"]}
	}
	chains := map[string]bool{}
	for id, sp := range spans {
		chain := sp.name
		for p := sp.parent; p != ""; {
			up, ok := spans[[2]string{id[0], p}]
			if !ok {
				chain = "(unretained) > " + chain
				break
			}
			chain = up.name + " > " + chain
			p = up.parent
		}
		chains[chain] = true
	}
	return chains
}

// TestBringUpTracesEveryLayer: the one traced registry the daemon builds
// reaches every layer below the edge. One observe and one query through
// the handler leave DESIGN.md's span topology on /debug/traces, on each
// backend.
func TestBringUpTracesEveryLayer(t *testing.T) {
	want := map[string][]string{
		"store": {
			"analytics.observe > store.observe",
			"analytics.query > store.gather",
		},
		"cluster": {
			"analytics.observe > mqlog.append",
			"analytics.observe > mqlog.fetch > dstore.apply > store.observe",
			"analytics.query > dstore.scatter > dstore.node > store.gather",
		},
		"lambda": {
			"analytics.observe > store.observe",
			"analytics.query > lambda.speed > store.gather",
			"analytics.query > lambda.batch",
			"analytics.query > lambda.merge",
		},
	}
	for _, kind := range []string{"store", "cluster", "lambda"} {
		t.Run(kind, func(t *testing.T) {
			srv, drain, cleanup := bringUp(t, kind)
			defer cleanup()
			h := srv.Handler()
			post(t, h, "/v1/observe", `{"observations":[{"metric":"uniques","key":"page-01","item":"user-new","time":1999}]}`)
			if err := drain(); err != nil {
				t.Fatal(err)
			}
			post(t, h, "/v1/query", `{"metrics":["uniques"],"keys":["page-01"],"from":0,"to":1999}`)
			chains := spanChains(t, h)
			for _, w := range want[kind] {
				if !chains[w] {
					t.Errorf("no %q span chain; /debug/traces holds %v", w, chains)
				}
			}
		})
	}
}

// sealedSynopses asks the edge for every key of all four demo metrics
// over a range of sealed buckets and returns each cell's synopsis bytes.
func sealedSynopses(t *testing.T, h http.Handler) map[string][]byte {
	t.Helper()
	body := `{"metrics":["uniques","page-hits","top-pages","latency-us"],"all_keys":true,"from":0,"to":1900}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query answered %d: %s", rec.Code, rec.Body)
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(resp.Answers))
	for _, a := range resp.Answers {
		out[a.Metric+"/"+a.Key] = a.Synopsis
	}
	return out
}

// internalGoroutines counts goroutines other than the caller that are
// running this module's library code.
func internalGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	n := 0
	for _, g := range stacks[1:] {
		if strings.Contains(g, "repro/internal/") {
			n++
		}
	}
	return n
}

// TestBringUpBackendsAgree is the "layers agree" / "equal the oracle"
// check on the one bring-up that ships: the same preload through each
// backend answers a sealed-range query for every demo metric with
// byte-identical synopses, and tearing a backend down stops every
// goroutine it started.
func TestBringUpBackendsAgree(t *testing.T) {
	var want map[string][]byte
	for _, kind := range []string{"store", "cluster", "lambda"} {
		srv, _, cleanup := bringUp(t, kind)
		got := sealedSynopses(t, srv.Handler())
		cleanup()

		if want == nil {
			want = got
			metrics := map[string]bool{}
			for cell := range got {
				metric, _, _ := strings.Cut(cell, "/")
				metrics[metric] = true
			}
			if len(metrics) != 4 {
				t.Fatalf("store answered for metrics %v, want all four demo metrics", metrics)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d answer cells, store has %d", kind, len(got), len(want))
		}
		for cell, syn := range want {
			if !bytes.Equal(got[cell], syn) {
				t.Fatalf("%s: synopsis for %s differs from the store's", kind, cell)
			}
		}

		deadline := time.Now().Add(5 * time.Second)
		for internalGoroutines() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d backend goroutines still running after cleanup", kind, internalGoroutines())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestUnknownBackendErrors(t *testing.T) {
	if _, _, _, _, _, err := buildBackend("kafka", 8, nil); err == nil {
		t.Fatal("unknown -backend must error")
	}
}

// TestHTTPServerHardened pins the slowloris fix on the one server the
// repo constructs: nonzero header/read/idle timeouts, and a write
// timeout that a 30s pprof CPU profile fits inside.
func TestHTTPServerHardened(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout < 31*time.Second {
		t.Fatalf("WriteTimeout %v too small for a 30s pprof profile", srv.WriteTimeout)
	}
}
