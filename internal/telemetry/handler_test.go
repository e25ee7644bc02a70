package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestDebugTraceSurfaces(t *testing.T) {
	tr := trace.NewTracer(trace.Config{SampleRate: 1, SlowThreshold: time.Nanosecond})
	root := tr.StartRoot("query")
	root.SetAttrs(trace.Str("backend", "store"))
	root.Child("store.gather").Finish()
	root.Finish()

	srv := httptest.NewServer(HandlerWith(nil, DebugOptions{Tracer: tr, Pprof: true}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("/debug/traces has %d events, want 2", len(doc.TraceEvents))
	}

	sresp, err := srv.Client().Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var slow struct {
		Slow []trace.SlowEntry `json:"slow"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&slow); err != nil {
		t.Fatalf("/debug/slow not JSON: %v", err)
	}
	if len(slow.Slow) != 1 || slow.Slow[0].Name != "query" || len(slow.Slow[0].Stages) != 1 {
		t.Fatalf("/debug/slow = %+v", slow.Slow)
	}

	presp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", presp.StatusCode)
	}
}

func TestDebugSurfacesAbsentByDefault(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/debug/traces", "/debug/slow", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404 when not opted in", path, resp.StatusCode)
		}
	}
}
