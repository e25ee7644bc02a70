// The /v1/query response path: renderQuery against its specification,
// EncodeResult marshaled by writeJSON — over every family and form and
// a table of awkward strings, then as a differential fuzz — through the
// handler with and without a cache hit, its allocation budget and its
// price.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/rcache"
	"repro/internal/store"
)

// specBody is the /v1/query body by its specification: EncodeResult
// marshaled by writeJSON.
func specBody(tb testing.TB, res store.QueryResult, cached bool) []byte {
	tb.Helper()
	body, err := EncodeResult(res)
	if err != nil {
		tb.Fatal(err)
	}
	body.Cached = cached
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, body)
	return rec.Body.Bytes()
}

// requireSpecBody renders res through sc and fails unless the bytes are
// specBody's, quoting both around the first byte that differs.
func requireSpecBody(tb testing.TB, sc *scratch, label string, res store.QueryResult, cached bool) {
	tb.Helper()
	got, err := sc.renderQuery(res, cached)
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	want := specBody(tb, res, cached)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		tb.Fatalf("%s: body differs from encoding/json's at byte %d:\n got %q\nwant %q",
			label, i, around(got, i), around(want, i))
	}
}

func around(b []byte, i int) []byte {
	return b[max(0, i-40):min(len(b), i+40)]
}

// awkward holds strings every escape rule of encoding/json applies to:
// HTML characters, quotes, named and numbered control characters, DEL,
// multi-byte UTF-8, the two JavaScript line separators, invalid and
// truncated UTF-8 and an encoded surrogate.
var awkward = []string{
	"plain",
	"<b>&amp;</b>",
	`quote"back\slash/`,
	"tab\tnl\ncr\r",
	"\b\f\x00\x01\x1f\x7f",
	"caf\xc3\xa9",
	"line\xe2\x80\xa8para\xe2\x80\xa9",
	"bad\xff\xfeutf8",
	"\xed\xa0\x80surrogate",
	"emoji\xf0\x9f\x98\x80",
	"cut\xf0\x9f",
}

// encodeStore is a store over the four test families whose keys and
// items are the awkward strings.
func encodeStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.New(testGeom())
	if err != nil {
		tb.Fatal(err)
	}
	for name, spec := range testSpecs() {
		proto, err := spec.Prototype()
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.RegisterMetric(name, proto); err != nil {
			tb.Fatal(err)
		}
	}
	var batch []store.Observation
	for i := int64(0); i < 300; i++ {
		key := awkward[i%int64(len(awkward))]
		item := fmt.Sprintf("%s-%d", awkward[(i*7)%int64(len(awkward))], i%13)
		batch = append(batch,
			store.Observation{Metric: "uniq", Key: key, Item: item, Time: i},
			store.Observation{Metric: "hits", Key: key, Item: item, Value: 3, Time: i},
			store.Observation{Metric: "top", Key: key, Item: item, Time: i},
			store.Observation{Metric: "lat", Key: key, Value: uint64(i * i), Time: i},
		)
	}
	if err := st.ObserveBatch(batch); err != nil {
		tb.Fatal(err)
	}
	return st
}

// encodeResults are the results the table test renders: per key and
// aggregated, whole and sealed ranges (the sealed ones come back in the
// compact forms), a never-written key, several metrics at once, and no
// answers at all.
func encodeResults(tb testing.TB, st *store.Store) []store.QueryResult {
	tb.Helper()
	metrics := make([]string, 0, 4)
	for name := range testSpecs() {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	var reqs []store.QueryRequest
	for _, m := range metrics {
		reqs = append(reqs,
			store.QueryRequest{Metric: m, AllKeys: true, From: 0, To: 300},
			store.QueryRequest{Metric: m, AllKeys: true, From: 40, To: 60},
			store.QueryRequest{Metric: m, AllKeys: true, Aggregate: true, From: 0, To: 300},
			store.QueryRequest{Metric: m, Key: "never-written", From: 0, To: 300},
		)
	}
	reqs = append(reqs, store.QueryRequest{Metrics: metrics, Keys: awkward[:3], From: 10, To: 200})
	out := []store.QueryResult{store.NewQueryResult(nil)}
	for _, req := range reqs {
		res, err := st.Query(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// noCodec is a custom synopsis with no binary encoding.
type noCodec struct{ b []byte }

func (s noCodec) Observe(string, uint64)     {}
func (s noCodec) Merge(store.Synopsis) error { return nil }
func (s noCodec) Items() uint64              { return uint64(len(s.b)) }
func (s noCodec) Bytes() int                 { return len(s.b) }

// marshalOnly is a custom synopsis with MarshalBinary and no
// AppendBinary: its bytes are whatever it holds.
type marshalOnly struct{ noCodec }

func (s marshalOnly) MarshalBinary() ([]byte, error) { return s.b, nil }

// TestQueryResponseMatchesEncodingJSON is the byte-identity rule: for
// every result in the table, cached or not, renderQuery writes exactly
// what EncodeResult marshaled by writeJSON writes. One scratch renders
// every case, so a byte left over from a longer earlier body would show.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	st := encodeStore(t)
	results := encodeResults(t, st)
	top, err := TopKSpec(4).Prototype()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range awkward {
		syn := top()
		syn.Observe(s, 0)
		syn.Observe(s+s, 0)
		results = append(results,
			store.NewQueryResult([]store.Answer{store.NewAnswer(s, s, syn)}),
			store.NewQueryResult([]store.Answer{store.NewAggregateAnswer(s, syn)}))
	}
	for _, b := range [][]byte{nil, {}, {0, 1, 2, 0xff}} {
		results = append(results, store.NewQueryResult([]store.Answer{store.NewAnswer("custom", "k", marshalOnly{noCodec{b}})}))
	}

	sc := newScratch()
	for i, res := range results {
		for _, cached := range []bool{false, true} {
			requireSpecBody(t, sc, fmt.Sprintf("result %d cached=%v", i, cached), res, cached)
		}
	}

	// A synopsis with no encoding fails both ways.
	bad := store.NewQueryResult([]store.Answer{store.NewAnswer("custom", "k", noCodec{})})
	if _, err := sc.renderQuery(bad, false); err == nil {
		t.Fatal("renderQuery encoded a synopsis with no binary encoding")
	}
	if _, err := EncodeResult(bad); err == nil {
		t.Fatal("EncodeResult encoded a synopsis with no binary encoding")
	}
}

// TestQuantileViewIsPerPhi pins the quantile view, read from one
// ordering of the digest, to single Quantile calls.
func TestQuantileViewIsPerPhi(t *testing.T) {
	st := encodeStore(t)
	for _, res := range encodeResults(t, st) {
		for _, a := range res.Answers() {
			if a.Family() != store.FamilyQuantile {
				continue
			}
			w, err := EncodeAnswer(a)
			if err != nil {
				t.Fatal(err)
			}
			for i, phi := range wirePhis {
				if got, want := w.Quantiles[wirePhiNames[i]], a.Quantile(phi); got != want {
					t.Fatalf("%s/%q %s = %d, Quantile(%v) = %d", a.Metric, a.Key, wirePhiNames[i], got, phi, want)
				}
			}
		}
	}
}

// FuzzQueryResponse is the differential oracle for the strings: a
// top-k answer and a distinct answer named by arbitrary bytes, holding
// arbitrary items, render as encoding/json renders them.
func FuzzQueryResponse(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, awkward[(i+1)%len(awkward)], awkward[(i+2)%len(awkward)], uint64(i), i%2 == 0, i%3 == 0)
	}
	top, err := TopKSpec(4).Prototype()
	if err != nil {
		f.Fatal(err)
	}
	uniq, err := DistinctSpec(4, 1).Prototype()
	if err != nil {
		f.Fatal(err)
	}
	sc := newScratch()
	f.Fuzz(func(t *testing.T, metric, key, item string, n uint64, aggregate, cached bool) {
		tk, dc := top(), uniq()
		for i := uint64(0); i <= n%4; i++ {
			tk.Observe(item, 0)
			dc.Observe(item+key, 0)
		}
		tk.Observe(key, 0)
		answers := []store.Answer{store.NewAnswer(metric, key, tk), store.NewAnswer(key, metric, dc)}
		if aggregate {
			answers = []store.Answer{store.NewAggregateAnswer(metric, tk), store.NewAggregateAnswer(item, dc)}
		}
		requireSpecBody(t, sc, "fuzz", store.NewQueryResult(answers), cached)
	})
}

// TestQueryHandlerWritesSpecBody drives the handler: a sealed-range
// query answers the specification's bytes for the backend's own result,
// cold and then from the cache.
func TestQueryHandlerWritesSpecBody(t *testing.T) {
	st := encodeStore(t)
	cache, err := rcache.New(rcache.Config{BucketWidth: testBucket})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	metrics := []string{"hits", "lat", "top", "uniq"}
	for _, m := range metrics {
		cache.NoteObserve(m, 299) // encodeStore's writes bypassed the edge
	}
	req := store.QueryRequest{Metrics: metrics, Keys: awkward[:4], From: 0, To: 200}
	askedBefore(t, cache, req)
	res, err := st.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	body := mustJSON(t, WireRequest(req))
	for _, cached := range []bool{false, true} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if want := specBody(t, res, cached); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("cached=%v: handler wrote\n%s\nspecification\n%s", cached, rec.Body.Bytes(), want)
		}
	}
}

// rangeScanResults are the three answer shapes analyticsd's range_scan
// workload asks for: one page's uniques, an eight-page page-hits
// aggregate and one page's latency quantiles, each over sealed buckets
// and with the daemon's geometry.
func rangeScanResults(tb testing.TB) map[string]store.QueryResult {
	tb.Helper()
	st, err := store.New(testGeom())
	if err != nil {
		tb.Fatal(err)
	}
	for name, spec := range map[string]ProtoSpec{
		"uniques":    DistinctSpec(12, 42),
		"page-hits":  FreqSpec(1024, 4, 42),
		"latency-us": QuantileSpec(20, 512),
	} {
		proto, err := spec.Prototype()
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.RegisterMetric(name, proto); err != nil {
			tb.Fatal(err)
		}
	}
	var batch []store.Observation
	for i := int64(0); i < 5000; i++ {
		page := fmt.Sprintf("page-%02d", i*i%16)
		batch = append(batch,
			store.Observation{Metric: "uniques", Key: page, Item: fmt.Sprintf("user-%05d", i*7919%3000), Time: i / 8},
			store.Observation{Metric: "page-hits", Key: page, Item: page, Value: 1, Time: i / 8},
			store.Observation{Metric: "latency-us", Key: page, Value: uint64(1000 + i*37%5000), Time: i / 8},
		)
	}
	if err := st.ObserveBatch(batch); err != nil {
		tb.Fatal(err)
	}
	pages := make([]string, 8)
	for i := range pages {
		pages[i] = fmt.Sprintf("page-%02d", i)
	}
	out := map[string]store.QueryResult{}
	for name, req := range map[string]store.QueryRequest{
		"uniques":    {Metric: "uniques", Key: "page-01", From: 100, To: 500},
		"page-hits":  {Metric: "page-hits", Keys: pages, Aggregate: true, From: 100, To: 400},
		"latency-us": {Metric: "latency-us", Key: "page-04", From: 100, To: 500},
	} {
		res, err := st.Query(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = res
	}
	return out
}

// renderQueryAllocs is renderQuery's budget for one range_scan-shaped
// answer of each shape, with the scratch warm: all of it lands in the
// scratch's two buffers. (A top-k answer costs two more, the sorted
// summary it encodes and the ten-item view.) The q-digest's scratch is
// a free list, not a sync.Pool, so the race detector keeps it warm and
// the budget holds with or without -race.
const renderQueryAllocs = 0

func TestRenderQueryAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent; skipped in -short")
	}
	sc := newScratch()
	for name, res := range rangeScanResults(t) {
		requireSpecBody(t, sc, name, res, false)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sc.renderQuery(res, false); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations, %d bytes", name, allocs, len(sc.out))
		if allocs > renderQueryAllocs {
			t.Fatalf("%s: renderQuery allocates %.0f, budget %d", name, allocs, renderQueryAllocs)
		}
	}
}

// BenchmarkQueryEncode prices the encode stage on the range_scan shapes:
// the specification's path, EncodeResult marshaled by writeJSON, against
// renderQuery into a warm scratch.
func BenchmarkQueryEncode(b *testing.B) {
	results := rangeScanResults(b)
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := results[name]
		b.Run(name+"/std", func(b *testing.B) {
			w := &discard{h: http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(len(specBody(b, res, false))))
			for i := 0; i < b.N; i++ {
				body, err := EncodeResult(res)
				if err != nil {
					b.Fatal(err)
				}
				writeJSON(w, http.StatusOK, body)
			}
		})
		b.Run(name+"/render", func(b *testing.B) {
			sc := newScratch()
			b.ReportAllocs()
			b.SetBytes(int64(len(specBody(b, res, false))))
			for i := 0; i < b.N; i++ {
				out, err := sc.renderQuery(res, false)
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Discard.Write(out)
			}
		})
	}
}
