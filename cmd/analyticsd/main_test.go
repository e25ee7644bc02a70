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
// in main's order, and returns the serving edge and the layer's cleanup.
func bringUp(t *testing.T, kind string) (*serve.Server, func()) {
	t.Helper()
	reg := telemetry.New()
	trc := trace.NewTracer(trace.Config{SampleRate: 1})
	be, start, drain, cleanup, _, err := buildBackend(kind, 8, reg, trc)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := rcache.New(rcache.Config{BucketWidth: bucketWidth, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Backend:  analytics.Instrument(be, reg, kind, analytics.WithTracer(trc)),
		Cache:    cache,
		Registry: reg,
		Tracer:   trc,
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
	return srv, cleanup
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
		srv, cleanup := bringUp(t, kind)
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
	if _, _, _, _, _, err := buildBackend("kafka", 8, nil, nil); err == nil {
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
