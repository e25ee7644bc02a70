package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// demoSchema is the metric schema analyticsd registers at start-up.
func demoSchema() map[string]ProtoSpec {
	return map[string]ProtoSpec{
		"uniques":    DistinctSpec(12, 42),
		"page-hits":  FreqSpec(1024, 4, 42),
		"top-pages":  TopKSpec(32),
		"latency-us": QuantileSpec(20, 512),
	}
}

// demoMetricsBody is the /v1/metrics body for demoSchema, as the serving
// API has always written it.
const demoMetricsBody = `{
  "metrics": {
    "latency-us": {
      "family": "quantile",
      "log_u": 20,
      "compress_k": 512
    },
    "page-hits": {
      "family": "freq",
      "seed": 42,
      "width": 1024,
      "depth": 4
    },
    "top-pages": {
      "family": "topk",
      "k": 32
    },
    "uniques": {
      "family": "distinct",
      "precision": 12,
      "seed": 42
    }
  }
}
`

// TestRegisterRefusesOverCapGeometry: /v1/register answers 400 to a
// spec whose geometry passes its sketch's own checks but exceeds the
// caps, one family at a time, and the refused spec reaches no backend.
// Each over-cap body is the smallest one past its cap; the same body at
// the cap registers.
func TestRegisterRefusesOverCapGeometry(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	be := &callCounter{Backend: st}
	srv, err := NewServer(Config{Backend: be, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, tc := range []struct{ over, at string }{
		{`{"family":"distinct","precision":19,"seed":1}`, `{"family":"distinct","precision":18,"seed":1}`},
		{`{"family":"freq","width":1048577,"depth":1,"seed":1}`, `{"family":"freq","width":1048576,"depth":1,"seed":1}`},
		{`{"family":"freq","width":524289,"depth":2,"seed":1}`, `{"family":"freq","width":524288,"depth":2,"seed":1}`},
		{`{"family":"topk","k":65537}`, `{"family":"topk","k":65536}`},
		{`{"family":"quantile","log_u":33,"compress_k":8}`, `{"family":"quantile","log_u":32,"compress_k":8}`},
		{`{"family":"quantile","log_u":20,"compress_k":65537}`, `{"family":"quantile","log_u":20,"compress_k":65536}`},
	} {
		calls := be.calls.Load()
		if code := post(fmt.Sprintf(`{"name":"m%d","spec":%s}`, i, tc.over)); code != http.StatusBadRequest {
			t.Fatalf("over-cap spec %s answered %d, want 400", tc.over, code)
		}
		if be.calls.Load() != calls {
			t.Fatalf("over-cap spec %s reached the backend", tc.over)
		}
		if code := post(fmt.Sprintf(`{"name":"m%d","spec":%s}`, i, tc.at)); code != http.StatusOK {
			t.Fatalf("spec at the cap %s answered %d, want 200", tc.at, code)
		}
	}
}

// TestClientRegisterMetricOverTheWire: a metric registered through the
// Backend contract's RegisterMetric, with the Prototype a constructor
// returns, answers cell for cell what the same geometry registered
// through Register answers, for every family. A spec Validate refuses
// is refused before any request leaves the client, and a schema holding
// one is refused by Sync.
func TestClientRegisterMetricOverTheWire(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st})
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	distinct, _ := store.NewDistinctProto(12, 7)
	freq, _ := store.NewFreqProto(512, 4, 7)
	topk, _ := store.NewTopKProto(32)
	quant, _ := store.NewQuantileProto(16, 64)
	protos := map[string]store.Prototype{"uniq": distinct, "hits": freq, "top": topk, "lat": quant}
	for name, spec := range testSpecs() {
		if err := client.RegisterMetric("proto-"+name, protos[name]); err != nil {
			t.Fatal(err)
		}
		if err := client.Register("spec-"+name, spec); err != nil {
			t.Fatal(err)
		}
	}
	var batch []store.Observation
	for i := int64(0); i < 400; i++ {
		key, item := fmt.Sprintf("k%d", i%3), fmt.Sprintf("u%d", i*i%37)
		for _, via := range []string{"proto-", "spec-"} {
			batch = append(batch,
				store.Observation{Metric: via + "uniq", Key: key, Item: item, Time: i},
				store.Observation{Metric: via + "hits", Key: key, Item: item, Value: 2, Time: i},
				store.Observation{Metric: via + "top", Key: key, Item: item, Time: i},
				store.Observation{Metric: via + "lat", Key: key, Value: uint64(i * 7), Time: i})
		}
	}
	if err := client.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	for name := range testSpecs() {
		for _, agg := range []bool{false, true} {
			ask := func(metric string) store.QueryResult {
				res, err := client.Query(context.Background(), store.QueryRequest{
					Metrics: []string{metric}, Keys: []string{"k0", "k1", "k2"}, From: 0, To: 400, Aggregate: agg})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			viaSpec, viaProto := ask("spec-"+name).Answers(), ask("proto-"+name).Answers()
			if len(viaSpec) != len(viaProto) || len(viaSpec) == 0 {
				t.Fatalf("%s: %d answers via RegisterMetric, %d via Register", name, len(viaProto), len(viaSpec))
			}
			for i := range viaSpec {
				s, p := viaSpec[i], viaProto[i]
				if s.Key != p.Key || s.Family() != p.Family() || s.Items() != p.Items() || s.Items() == 0 ||
					!bytes.Equal(marshalSyn(t, s.Raw()), marshalSyn(t, p.Raw())) {
					t.Fatalf("%s aggregate=%v cell %d: RegisterMetric's answer differs from Register's", name, agg, i)
				}
			}
		}
	}

	sent := requests.Load()
	for _, bad := range []store.Prototype{{}, {Family: store.FamilyTopK, K: 1<<16 + 1}, {Family: store.FamilyFreq, Width: 64}} {
		if err := client.RegisterMetric("bad", bad); err == nil {
			t.Fatalf("RegisterMetric accepted %+v", bad)
		}
		if err := client.Register("bad", bad); err == nil {
			t.Fatalf("Register accepted %+v", bad)
		}
	}
	if got := requests.Load(); got != sent {
		t.Fatalf("refused specs sent %d requests", got-sent)
	}

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"metrics":{"ok":{"family":"topk","k":8},"evil":{"family":"freq","width":1048577,"depth":1,"seed":1}}}`)
	}))
	defer evil.Close()
	ro := NewClient(evil.URL, evil.Client())
	if err := ro.Sync(); err == nil {
		t.Fatal("Sync accepted an over-cap spec")
	}
	if _, ok := ro.spec("ok"); ok {
		t.Fatal("a refused Sync recorded part of the schema")
	}
	if _, err := DecodeAnswer(WireAnswer{Metric: "evil"}, FreqSpec(1<<20+1, 1, 1)); err == nil {
		t.Fatal("DecodeAnswer built a receiver from an over-cap spec")
	}
}

// TestProtoSpecWireAndValuePinned pins a metric spec's wire form and its
// value semantics: the /v1/metrics body of the demo schema, byte for
// byte; a spec decoded from its JSON equal (==) to the constructor's
// Prototype; and dense answers built through two separately constructed
// equal Prototypes equal value for value (a synopsis carries nothing of
// where its accumulator came from).
func TestProtoSpecWireAndValuePinned(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range demoSchema() {
		if err := srv.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if got := rec.Body.String(); got != demoMetricsBody {
		t.Fatalf("/v1/metrics body moved:\n%s\nwant:\n%s", got, demoMetricsBody)
	}

	distinct, _ := store.NewDistinctProto(12, 42)
	freq, _ := store.NewFreqProto(1024, 4, 42)
	topk, _ := store.NewTopKProto(32)
	quant, _ := store.NewQuantileProto(20, 512)
	built := map[string]store.Prototype{"uniques": distinct, "page-hits": freq, "top-pages": topk, "latency-us": quant}
	var schema MetricsResponse
	if err := json.Unmarshal([]byte(demoMetricsBody), &schema); err != nil {
		t.Fatal(err)
	}
	for name, spec := range schema.Metrics {
		if spec != built[name] {
			t.Fatalf("%s: decoded %+v != constructed %+v", name, spec, built[name])
		}
	}

	answer := func() store.Synopsis {
		p, err := store.NewFreqProto(1024, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.New(testGeom())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterMetric("page-hits", p); err != nil {
			t.Fatal(err)
		}
		batch := make([]store.Observation, 4000)
		for i := range batch {
			batch[i] = store.Observation{Metric: "page-hits", Key: "all", Item: fmt.Sprintf("page-%d", i), Value: 1, Time: int64(i % 200)}
		}
		if err := s.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(context.Background(), store.PointRequest("page-hits", "all", 0, 199))
		if err != nil {
			t.Fatal(err)
		}
		return res.Raw()
	}
	a, b := answer(), answer()
	if dense := freq.New().Bytes(); a.Bytes() < dense {
		t.Fatalf("page-hits answer holds %d bytes, below the dense %d: not a dense answer", a.Bytes(), dense)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dense page-hits answers built through equal Prototypes differ")
	}
}

// FuzzProtoSpecDecode: a spec off the wire, decoded strictly and
// validated, is either refused or accepted inside the caps; an accepted
// one builds a query accumulator and a store bucket that each take an
// observation, whose bytes decode back into a New instance, and it
// re-marshals to JSON that decodes to an equal spec.
func FuzzProtoSpecDecode(f *testing.F) {
	for _, spec := range demoSchema() {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, s := range []string{
		`{}`,
		`{"family":"nope"}`,
		`{"family":"distinct","precision":3,"seed":1}`,
		`{"family":"distinct","precision":19,"seed":1}`,
		`{"family":"freq","width":0,"depth":4,"seed":1}`,
		`{"family":"topk","k":0}`,
		`{"family":"quantile","log_u":0,"compress_k":8}`,
		`{"family":"quantile","log_u":33,"compress_k":8}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var spec ProtoSpec
		if decodeJSON([]byte(body), &spec, true) != nil || spec.Validate() != nil {
			return
		}
		switch {
		case spec.Family == store.FamilyDistinct && (spec.Precision < 4 || spec.Precision > 18),
			spec.Family == store.FamilyFreq && (spec.Width < 1 || spec.Depth < 1 || spec.Width > (1<<20)/spec.Depth),
			spec.Family == store.FamilyTopK && (spec.K < 1 || spec.K > 1<<16),
			spec.Family == store.FamilyQuantile && (spec.LogU < 1 || spec.LogU > 32 || spec.CompressK < 1 || spec.CompressK > 1<<16):
			t.Fatalf("accepted %+v outside the caps", spec)
		}

		acc := spec.New()
		acc.Observe("item", 7)
		st, err := store.New(store.Config{Shards: 1, BucketWidth: 10, RingBuckets: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("m", spec); err != nil {
			t.Fatalf("store refused accepted %+v: %v", spec, err)
		}
		if err := st.ObserveBatch([]store.Observation{{Metric: "m", Key: "k", Item: "item", Value: 7}}); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query(context.Background(), store.PointRequest("m", "k", 0, 9))
		if err != nil {
			t.Fatal(err)
		}
		for _, syn := range []store.Synopsis{acc, res.Raw()} {
			if syn.Items() == 0 {
				t.Fatalf("%+v: no items after an observation", spec)
			}
			b, err := syn.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			back := spec.New()
			if err := back.UnmarshalBinary(b); err != nil {
				t.Fatalf("%+v: own bytes refused: %v", spec, err)
			}
			if again, err := back.AppendBinary(nil); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("%+v: decoded bytes re-encode differently (%v)", spec, err)
			}
		}

		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again ProtoSpec
		if err := decodeJSON(js, &again, true); err != nil || again != spec {
			t.Fatalf("%+v re-marshals to %s, which decodes to %+v (%v)", spec, js, again, err)
		}
	})
}
