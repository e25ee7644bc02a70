// The /v1/observe decode path: the scanner against encoding/json
// (differential fuzz), the trailing-bytes rule on all three POST
// routes, the unknown-field rule on the other two, the handler's
// allocation budget, and buffer reuse — decoded strings outlive the
// pooled buffer they were scanned from.
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analytics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// demoBody renders a write request in the shape analyticsd's clients
// send (bench/workload.go, the daemon's own preload): events page views,
// each one observation per family metric, marshaled by encoding/json.
// salt varies the strings, not the sizes.
func demoBody(tb testing.TB, events int, salt string, t int64) []byte {
	tb.Helper()
	var req ObserveRequest
	for e := 0; e < events; e++ {
		page := fmt.Sprintf("page-%s%02d", salt, (e*e)%64)
		req.Observations = append(req.Observations,
			WireObservation{Metric: "uniq", Key: page, Item: fmt.Sprintf("user-%s%05d", salt, e*7919%20000), Time: t},
			WireObservation{Metric: "hits", Key: page, Item: page, Time: t},
			WireObservation{Metric: "top", Key: "all" + salt, Item: page, Time: t},
			WireObservation{Metric: "lat", Key: page, Value: uint64(1000 + e*37), Time: t},
		)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// wireBatch is the batch the handler builds from a decoded request.
func wireBatch(req ObserveRequest) []store.Observation {
	batch := make([]store.Observation, 0, len(req.Observations))
	for _, wo := range req.Observations {
		batch = append(batch, store.Observation{
			Metric: wo.Metric, Key: wo.Key, Item: wo.Item, Value: wo.Value, Time: wo.Time,
		})
	}
	return batch
}

func sameBatch(a, b []store.Observation) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzObserveDecode holds the decode path to encoding/json. The oracle
// is json.Unmarshal, which — unlike the Decoder the edge used to stop
// at — also refuses bytes behind the value: the edge must accept a body
// iff Unmarshal does, with the same batch; and whenever the scanner
// alone accepts, its batch must be that batch and must survive the
// buffer being overwritten.
func FuzzObserveDecode(f *testing.F) {
	for _, seed := range []string{
		string(demoBody(f, 4, "", 100000)), // bench-shaped, short: the engine minimizes what it keeps
		`{"observations":[]}`,
		` { "observations" : [ { "metric" : "m" , "time" : 7 } , { } ] } ` + "\n",
		`{"observations":[{"metric":"a\"b","key":"tab\there","item":"\/","time":1}]}`,
		`{"observations":[{"metric":"m","key":"😀","item":"\ud800","time":1}]}`,
		"{\"observations\":[{\"metric\":\"caf\xc3\xa9\",\"key\":\"\xff\xfe\",\"item\":\"\xed\xa0\x80\",\"time\":1}]}",
		"{\"observations\":[{\"metric\":\"ctl\x01\",\"time\":1}]}",
		`{"observations":[{"metric":"m","extra":{"a":[1,2,{"b":null}]},"time":1}],"more":true}`,
		`{"observations":[{"metric":"a","metric":"b","time":1,"time":2}]}`,
		`{"observations":[{"metric":"a"}],"observations":[{"key":"k"}]}`,
		`{"observations":null}`,
		`{"observations":[null,{"metric":null,"key":"k","value":null,"time":null}]}`,
		`null`,
		`{}`,
		`{"Observations":[{"Metric":"m","KEY":"k","tIme":3}]}`,
		"{\"observations\":[{\"\u212aey\":\"kelvin\",\"time\":1}]}", // KELVIN SIGN folds to k
		`{"observations":[{"metric":"m","value":1e3,"time":1}]}`,
		`{"observations":[{"metric":"m","value":1.0,"time":1}]}`,
		`{"observations":[{"metric":"m","value":-1,"time":-5}]}`,
		`{"observations":[{"metric":"m","value":-0,"time":-0}]}`,
		`{"observations":[{"metric":"m","value":007,"time":1}]}`,
		`{"observations":[{"metric":"m","value":18446744073709551615,"time":9223372036854775807}]}`,
		`{"observations":[{"metric":"m","value":18446744073709551616,"time":1}]}`,
		`{"observations":[{"metric":"m","time":9223372036854775808}]}`,
		`{"observations":[{"metric":"m","value":"12","time":"1"}]}`,
		`{"observations":[{"metric":7,"time":1}]}`,
		`{"observations":[[{"metric":"m"}]]}`,
		`{"observations":{"metric":"m"}}`,
		`{"observations":[{"metric":"m","time":1},]}`,
		`{"observations":[{"metric":"m","time":1,}]}`,
		`{"observations":[{"metric":"m","time":1}`,
		`{"observations":[{"metric":"m","ti`,
		`{"observations":[{"metric":"m","time":1}]}}`,
		`{"observations":[{"metric":"m","time":1}]} {}`,
		`{"observations":[{"metric":"m","time":1}]}x`,
		"\ufeff" + `{"observations":[]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	sc := newScratch()
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref ObserveRequest
		refErr := json.Unmarshal(body, &ref)
		want := wireBatch(ref)

		got, err := sc.decodeObserve(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("edge error %v, encoding/json error %v", err, refErr)
		}
		if err == nil && !sameBatch(got, want) {
			t.Fatalf("edge decoded\n%+v\nencoding/json decoded\n%+v", got, want)
		}

		buf := bytes.Clone(body)
		scanned, ok := sc.scanObserve(buf)
		if !ok {
			return
		}
		if refErr != nil {
			t.Fatalf("scanner accepted a body encoding/json refuses: %v", refErr)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if !sameBatch(scanned, want) {
			t.Fatalf("scanner decoded (after the buffer was overwritten)\n%+v\nencoding/json decoded\n%+v", scanned, want)
		}
	})
}

// TestObserveScannerTakesMarshaledBodies pins the point of the scanner:
// what json.Marshal writes is decoded by it, not by the fallback.
func TestObserveScannerTakesMarshaledBodies(t *testing.T) {
	body := demoBody(t, 64, "é", 123456)
	var ref ObserveRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	got, ok := newScratch().scanObserve(body)
	if !ok {
		t.Fatal("the scanner declined a json.Marshal body")
	}
	if want := wireBatch(ref); !sameBatch(got, want) {
		t.Fatalf("scanner decoded %+v, want %+v", got[:4], want[:4])
	}
}

// TestServeTrailingBytes pins the one wire change of the scanner's PR:
// on every POST route a valid JSON value followed by anything but
// whitespace answers 400, counts as a route error and reaches nothing;
// followed by whitespace it is served.
func TestServeTrailingBytes(t *testing.T) {
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
	post := func(route, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/"+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, tc := range []struct{ route, body string }{
		{"register", `{"name":"%s","spec":{"family":"distinct","precision":12,"seed":7}}`},
		{"observe", `{"observations":[{"metric":"uniq","key":"%s","item":"u","time":1}]}`},
		// The escape sends this body through encoding/json: both decode
		// paths make the same decision.
		{"observe", `{"observations":[{"metric":"uniq","key":"%s","item":"u\n","time":1}]}`},
		{"query", `{"metrics":["uniq"],"keys":["%s"],"from":0,"to":10}`},
	} {
		for _, tail := range []string{"x", "{}", "]", " \n\t 0"} {
			errsBefore, seenBefore := srv.errs[tc.route].Value(), st.Stats().Observed
			if code := post(tc.route, fmt.Sprintf(tc.body, "bad")+tail); code != http.StatusBadRequest {
				t.Fatalf("%s: body + %q answered %d, want 400", tc.route, tail, code)
			}
			if got := srv.errs[tc.route].Value(); got != errsBefore+1 {
				t.Fatalf("%s: errors_total moved %d → %d, want +1", tc.route, errsBefore, got)
			}
			if got := st.Stats().Observed; got != seenBefore {
				t.Fatalf("%s: refused body reached the backend", tc.route)
			}
		}
		if code := post(tc.route, fmt.Sprintf(tc.body, fmt.Sprint("good", i))+" \r\n\t"); code != http.StatusOK {
			t.Fatalf("%s: body + whitespace answered %d, want 200", tc.route, code)
		}
	}
	keys := st.Keys("uniq")
	sort.Strings(keys)
	if want := []string{"good1", "good2"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys after the run %q, want %q", keys, want)
	}
}

// callCounter is a backend that counts the registrations and queries
// reaching it.
type callCounter struct {
	analytics.Backend
	calls atomic.Int64
}

func (c *callCounter) RegisterMetric(name string, proto store.Prototype) error {
	c.calls.Add(1)
	return c.Backend.RegisterMetric(name, proto)
}

func (c *callCounter) Query(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	c.calls.Add(1)
	return c.Backend.Query(ctx, req)
}

// TestServeUnknownFields: /v1/query and /v1/register refuse a body
// naming a field their request has no place for, at any depth, with a
// 400 that counts as a route error and reaches no backend; the same
// body spelt right is served.
func TestServeUnknownFields(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	be := &callCounter{Backend: st}
	srv, err := NewServer(Config{Backend: be, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("uniq", DistinctSpec(12, 7)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(route, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/"+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct{ route, bad, good string }{
		{"query", `{"metrics":["uniq"],"keys":["k"],"form":0,"to":10}`, `{"metrics":["uniq"],"keys":["k"],"from":0,"to":10}`},
		{"query", `{"metric":["uniq"],"keys":["k"],"from":0,"to":10}`, `{"metrics":["uniq"],"keys":["k"],"from":0,"to":10}`},
		{"register", `{"name":"u2","spec":{"family":"distinct","precision":12,"seed":7,"widht":64}}`, `{"name":"u2","spec":{"family":"distinct","precision":12,"seed":7}}`},
	} {
		errsBefore, callsBefore := srv.errs[tc.route].Value(), be.calls.Load()
		if code := post(tc.route, tc.bad); code != http.StatusBadRequest {
			t.Fatalf("%s %s answered %d, want 400", tc.route, tc.bad, code)
		}
		if got := srv.errs[tc.route].Value(); got != errsBefore+1 {
			t.Fatalf("%s %s: errors_total moved %d → %d, want +1", tc.route, tc.bad, errsBefore, got)
		}
		if be.calls.Load() != callsBefore {
			t.Fatalf("%s %s reached the backend", tc.route, tc.bad)
		}
		if code := post(tc.route, tc.good); code != http.StatusOK {
			t.Fatalf("%s %s answered %d, want 200", tc.route, tc.good, code)
		}
	}
}

// TestObserveAckBytes pins the pre-rendered acknowledgement to the bytes
// writeJSON produced for the same response.
func TestObserveAckBytes(t *testing.T) {
	sc := newScratch()
	for _, n := range []int{0, 1, 256, 1 << 20} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, ObserveResponse{Accepted: n})
		if got := sc.renderAck(n); !bytes.Equal(got, rec.Body.Bytes()) {
			t.Fatalf("ack for %d is %q, writeJSON wrote %q", n, got, rec.Body.Bytes())
		}
	}
}

// discard is a ResponseWriter that keeps nothing, so the handler
// measurements below see the handler's own allocations only.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// replay serves body through the server's handler as one POST
// /v1/observe, reusing req and w.
func replay(srv *Server, w *discard, req *http.Request, rd *bytes.Reader, body []byte) int {
	rd.Reset(body)
	w.code = 0
	srv.Handler().ServeHTTP(w, req)
	return w.code
}

func observeRequest(body []byte) (*http.Request, *bytes.Reader) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", nil)
	req.Body, req.ContentLength = io.NopCloser(rd), int64(len(body))
	return req, rd
}

func familyServer(tb testing.TB) (*Server, *store.Store) {
	tb.Helper()
	st, err := store.New(testGeom())
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st})
	if err != nil {
		tb.Fatal(err)
	}
	for name, spec := range testSpecs() {
		if err := srv.Register(name, spec); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, st
}

// observeHandlerAllocs is the budget for one steady-state
// 256-observation request through Handler().ServeHTTP over the store:
// 14 measured — the body reader, the store's per-batch prototype map and
// grouping index, and the Space-Saving counters this body's 64 pages
// keep displacing — plus headroom for the runs whose random intern seed
// puts three of the body's ≈ 80 strings in one two-entry set (about one
// run in four; they then take turns evicting each other, ≤ 3 a request).
// The reflective decode this replaced allocated ≈ 750 for the same
// request. The request scratch sits on a free list, not a sync.Pool, so
// the race detector does not drain it and the budget holds with or
// without -race.
const observeHandlerAllocs = 32

func TestObserveHandlerAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent; skipped in -short")
	}
	srv, st := familyServer(t)
	body := demoBody(t, 64, "", 100)
	req, rd := observeRequest(body)
	w := &discard{h: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		if code := replay(srv, w, req, rd, body); code != http.StatusOK {
			t.Fatalf("observe answered %d", code)
		}
	})
	if got := st.Stats().Observed; got != 101*256 {
		t.Fatalf("store observed %d, want %d", got, 101*256)
	}
	t.Logf("%.0f allocations per 256-observation request", allocs)
	if allocs > observeHandlerAllocs {
		t.Fatalf("a 256-observation request allocates %.0f, budget %d", allocs, observeHandlerAllocs)
	}
}

// TestObserveBufferReuse checks the ownership rule the pooled buffer
// rests on: strings decoded from body A are intact — in the batch and in
// everything the store retained (keys, Space-Saving items) — after body
// B of the same layout has been read over A's bytes. First through one
// scratch directly, then through concurrent handlers sharing the pool.
func TestObserveBufferReuse(t *testing.T) {
	sc := newScratch()
	a, b := demoBody(t, 64, "a", 100), demoBody(t, 64, "b", 100)
	if len(a) != len(b) {
		t.Fatalf("bodies must overlay each other: %d vs %d bytes", len(a), len(b))
	}
	var ref ObserveRequest
	if err := json.Unmarshal(a, &ref); err != nil {
		t.Fatal(err)
	}
	read := func(body []byte) []store.Observation {
		req, _ := observeRequest(body)
		raw, _, err := sc.readBody(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatal(err)
		}
		batch, ok := sc.scanObserve(raw)
		if !ok {
			t.Fatal("the scanner declined a json.Marshal body")
		}
		return batch
	}
	fromA := append([]store.Observation(nil), read(a)...)
	read(b)
	if !sameBatch(fromA, wireBatch(ref)) {
		t.Fatal("body B, read into the same buffer, changed strings decoded from body A")
	}

	srv, st := familyServer(t)
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &discard{h: http.Header{}}
			for round := 0; round < 20; round++ {
				body := demoBody(t, 64, string(rune('a'+(g+round)%writers)), 100)
				req, rd := observeRequest(body)
				if code := replay(srv, w, req, rd, body); code != http.StatusOK {
					t.Errorf("observe answered %d", code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var wantKeys []string
	for g := 0; g < writers; g++ {
		wantKeys = append(wantKeys, "all"+string(rune('a'+g)))
	}
	gotKeys := st.Keys("top")
	sort.Strings(gotKeys)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("store keys %q, want %q", gotKeys, wantKeys)
	}
	for _, key := range wantKeys {
		res, err := st.Query(context.Background(), store.QueryRequest{Metric: "top", Key: key, From: 0, To: 1000})
		if err != nil {
			t.Fatal(err)
		}
		salt := strings.TrimPrefix(key, "all")
		for _, c := range res.Answers()[0].TopK(32) {
			if !strings.HasPrefix(c.Item, "page-"+salt) || len(c.Item) != len("page-a00") {
				t.Fatalf("key %s retained item %q: not one of its writer's pages", key, c.Item)
			}
		}
	}
}

// BenchmarkObserveDecode prices the decode stage on the bench-shaped
// 256-observation body: encoding/json into ObserveRequest plus the copy
// into a batch (what the handler did) against the scanner into the
// pooled batch. The binary framing of ROADMAP 3(c) has the second number
// to beat.
func BenchmarkObserveDecode(b *testing.B) {
	body := demoBody(b, 64, "", 100000)
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req ObserveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			if batch := wireBatch(req); len(batch) != 256 {
				b.Fatal("short batch")
			}
		}
	})
	b.Run("scanner", func(b *testing.B) {
		sc := newScratch()
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if batch, ok := sc.scanObserve(body); !ok || len(batch) != 256 {
				b.Fatal("the scanner declined the body")
			}
		}
	})
}
