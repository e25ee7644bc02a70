package telemetry

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden")

// goldenRegistry builds a registry with one instrument of every kind,
// multiple label sets, and label values needing escaping, all with
// deterministic values.
func goldenRegistry() *Registry {
	r := New()
	c := r.Counter("analytics_golden_ops_total", "Operations, by layer.", "layer", "store")
	c.Add(42)
	r.Counter("analytics_golden_ops_total", "Operations, by layer.", "layer", "lambda").Add(7)
	r.CounterFunc("analytics_golden_lag", "Fixed scrape-time counter.", func() uint64 { return 13 }, "group", "g0")

	g := r.Gauge("analytics_golden_depth", "Queue depth.", "topic", "events")
	g.Set(2.5)
	r.Gauge("analytics_golden_escaped", "Label escaping: backslash, quote, newline.",
		"path", "a\\b\"c\nd")

	h := r.Histogram("analytics_golden_seconds", "Latency in seconds.", "layer", "store")
	h.Observe(0.1)
	h.Observe(0.25) // a bound: counts in its own le bucket
	h.Observe(0.3)
	h.Observe(2048) // above 2^10: the +Inf bucket
	return r
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-exposition to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two encodes of an idle registry must be byte-identical")
	}
}

func TestHandlerSurfaces(t *testing.T) {
	srv := httptest.NewServer(Handler(goldenRegistry(), false))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "analytics_golden_ops_total") {
		t.Fatalf("metrics body missing counter:\n%s", buf[:n])
	}

	dresp, err := srv.Client().Get(srv.URL + "/debug/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var payload struct {
		Families []SnapshotFamily `json:"families"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&payload); err != nil {
		t.Fatalf("debug payload not JSON: %v", err)
	}
	byName := map[string]SnapshotFamily{}
	for _, f := range payload.Families {
		byName[f.Name] = f
	}
	hist, ok := byName["analytics_golden_seconds"]
	if !ok {
		t.Fatalf("debug payload missing histogram family: %v", payload.Families)
	}
	if len(hist.Series) != 1 || hist.Series[0].P95 == nil {
		t.Fatalf("histogram series missing quantiles: %+v", hist.Series)
	}
}

func TestNilHandlerServesEmpty(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, false))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Families []SnapshotFamily `json:"families"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Families) != 0 {
		t.Fatalf("nil registry families = %v", payload.Families)
	}
}
