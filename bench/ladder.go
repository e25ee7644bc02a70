package main

// The layer ladder: the workload's own requests replayed in process
// through each layer's public functions, timed from this file. Nothing
// inside the program is instrumented — spans wrap the calls the serving
// handlers make, in the order they make them.
//
// Three passes over identical input, each on a fresh composition built
// the way cmd/analyticsd builds it (backend -> Instrument -> Admit ->
// serve.Server with rcache):
//
//	handler  one span around Handler().ServeHTTP per request
//	steps    the handler's calls one by one: decode, AdmitTenant,
//	         ObserveBatch / Lookup+QueryContext+Fill, NoteObserve, encode
//	backend  the bare backend alone (store.Store or dstore.Router)
//
// plus the steps pass once more with recording off, which prices the
// recording itself.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/cardinality"
	"repro/internal/dstore"
	"repro/internal/frequency"
	"repro/internal/mqlog"
	"repro/internal/quantile"
	"repro/internal/rcache"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ladderRequests is how many of the measured schedule's first requests
// the ladder replays (after the preload and the warm-up round).
const ladderRequests = 2000

// span is one timed call into a layer.
type span struct {
	name   string
	pass   int // 0 handler, 1 steps, 2 backend
	req    int // request id: position in the replay
	id     int
	parent int // span id, -1 for a root
	start  time.Duration
	dur    time.Duration
	tag    string // outcome, e.g. hit / miss
}

// recorder keeps spans in memory until the run ends. With on false it
// records nothing, so the same code path prices the recording.
type recorder struct {
	on    bool
	pass  int
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, req, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, pass: r.pass, req: req, id: len(r.spans), parent: parent,
		start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].dur = time.Since(r.epoch) - r.spans[id].start
	}
}

func (r *recorder) tag(id int, t string) {
	if id >= 0 {
		r.spans[id].tag = t
	}
}

// stack is one in-process composition of the serving tier.
type stack struct {
	bare      analytics.Backend
	decorated analytics.Backend
	srv       *serve.Server
	cache     *rcache.Cache
	ctrl      *admission.Controller
	settle    func() // waits until the preload is applied (cluster nodes lag the log)
	close     func()
}

// newStack mirrors cmd/analyticsd's bring-up for the backend, with an
// admission controller configured never to shed.
func newStack(backend string) (*stack, error) {
	geom := store.Config{Shards: 8, BucketWidth: bucketWidth, RingBuckets: ringBuckets}
	reg := telemetry.New()
	s := &stack{close: func() {}, settle: func() {}}
	var start func() error
	switch backend {
	case "store":
		st, err := store.New(geom)
		if err != nil {
			return nil, err
		}
		st.SetTelemetry(reg)
		s.bare = st
	case "cluster":
		cl, err := dstore.New(dstore.Config{Partitions: 4, Store: geom})
		if err != nil {
			return nil, err
		}
		cl.SetTelemetry(reg)
		s.bare, s.close, s.settle = cl.Router(), func() { cl.Close() }, func() { _ = cl.Drain() }
		start = func() error {
			for i := 0; i < 2; i++ {
				if _, err := cl.StartNode(); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("bench: ladder has no backend %q", backend)
	}
	var err error
	const never = 1e15 // tokens per second: admits everything, sheds nothing
	if s.ctrl, err = admission.New(admission.Config{Rate: never, Burst: never,
		MetricRate: never, MetricBurst: never, TenantRate: never, TenantBurst: never}); err != nil {
		return nil, err
	}
	if s.cache, err = rcache.New(rcache.Config{BucketWidth: bucketWidth, MaxEntries: 4096}); err != nil {
		return nil, err
	}
	s.decorated = analytics.Admit(analytics.Instrument(s.bare, reg, backend), s.ctrl)
	if s.srv, err = serve.NewServer(serve.Config{Backend: s.decorated, Cache: s.cache, Registry: reg,
		Admission: s.ctrl, NegCache: 256}); err != nil {
		return nil, err
	}
	for name, spec := range demoSpecs {
		if err := s.srv.Register(name, spec); err != nil {
			return nil, err
		}
	}
	if start != nil {
		if err := start(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replayed is one request of the replay with its JSON body materialized.
type replayed struct {
	req  *request
	body []byte
}

// replay lists what the ladder sends: the preload, which only builds
// state, and then what is timed — the warm-up round and the first
// ladderRequests of the measured rounds, in due order across both
// connections.
func (p *plan) replay() (preload, timed []replayed) {
	add := func(out *[]replayed, r *request) {
		var body []byte
		if r.route == routeObserve {
			b := p.bodies[r.body]
			b.setTime(r.time)
			body = append([]byte(nil), b.json()...)
		} else {
			body = r.wire[bytes.Index(r.wire, []byte("\r\n\r\n"))+4:]
		}
		*out = append(*out, replayed{req: r, body: body})
	}
	for i := range p.preload {
		add(&preload, &p.preload[i])
	}
	measured := 0
	for i, rd := range append([]round{p.warm}, p.rounds...) {
		type due struct {
			at time.Duration
			r  *request
		}
		var order []due
		for c := range rd.conns {
			cr := &rd.conns[c]
			for k := range cr.reqs {
				order = append(order, due{cr.offset + dueAt(k, cr.interval), &cr.reqs[k]})
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return order[a].at < order[b].at })
		for _, d := range order {
			if i > 0 {
				if measured == ladderRequests {
					return preload, timed
				}
				measured++
			}
			add(&timed, d.r)
		}
	}
	return preload, timed
}

// handlerPass times the whole handler per request.
func handlerPass(s *stack, rec *recorder, reqs []replayed, sizes *[]float64) error {
	h := s.srv.Handler()
	for i, r := range reqs {
		hr := httptest.NewRequest(http.MethodPost, "/v1/"+r.req.route.String(), bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		id := rec.begin("serve.handler_"+r.req.route.String(), i, -1)
		h.ServeHTTP(w, hr)
		rec.end(id)
		if w.Code != http.StatusOK {
			return fmt.Errorf("bench: ladder: %s answered %d: %s", r.req.route, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		if r.req.route == routeQuery {
			*sizes = append(*sizes, float64(w.Body.Len()))
		}
	}
	return nil
}

func encodeJSON(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ") // as the server's writeJSON does
	return enc.Encode(v)
}

// stepsPass makes the handler's calls one by one, each under its span.
func stepsPass(s *stack, rec *recorder, reqs []replayed) error {
	var out bytes.Buffer
	for i, r := range reqs {
		if r.req.route == routeObserve {
			root := rec.begin("serve.steps_observe", i, -1)
			sp := rec.begin("serve.decode_observe", i, root)
			var req serve.ObserveRequest
			err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&req)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin("admission.admit", i, root)
			err = s.ctrl.AdmitTenant("", len(req.Observations))
			rec.end(sp)
			if err != nil {
				return err
			}
			batch := make([]store.Observation, len(req.Observations))
			for j, wo := range req.Observations {
				batch[j] = store.Observation{Metric: wo.Metric, Key: wo.Key, Item: wo.Item, Value: wo.Value, Time: wo.Time}
			}
			sp = rec.begin("analytics.observe_batch", i, root)
			err = analytics.ObserveBatch(s.decorated, batch)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin("rcache.note_observe", i, root)
			for j := range batch {
				s.cache.NoteObserve(batch[j].Metric, batch[j].Time)
			}
			rec.end(sp)
			sp = rec.begin("serve.encode_ack", i, root)
			err = encodeJSON(&out, serve.ObserveResponse{Accepted: len(batch)})
			rec.end(sp)
			rec.end(root)
			if err != nil {
				return err
			}
		} else {
			root := rec.begin("serve.steps_query", i, -1)
			sp := rec.begin("serve.decode_query", i, root)
			var wq serve.QueryRequest
			err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&wq)
			var req store.QueryRequest
			if err == nil {
				req, err = wq.Request().Normalize()
			}
			rec.end(sp)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			sp = rec.begin("rcache.lookup", i, root)
			res, hit, tok := s.cache.Lookup(req)
			rec.end(sp)
			switch {
			case hit:
				rec.tag(sp, "hit")
			case tok.Cacheable():
				rec.tag(sp, "miss")
			default:
				rec.tag(sp, "uncacheable")
			}
			if !hit {
				sp = rec.begin("analytics.query", i, root)
				res, err = analytics.QueryContext(ctx, s.decorated, req)
				rec.end(sp)
				if err != nil {
					cancel()
					return err
				}
				sp = rec.begin("rcache.fill", i, root)
				s.cache.Fill(tok, res)
				rec.end(sp)
			}
			cancel()
			sp = rec.begin("serve.encode_result", i, root)
			body, err := serve.EncodeResult(res)
			if err == nil {
				body.Cached = hit
				err = encodeJSON(&out, body)
			}
			rec.end(sp)
			rec.end(root)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// backendPass drives the bare backend with the decoded requests and
// counts the allocations of each call.
func backendPass(s *stack, rec *recorder, reqs []replayed, layer string) (observeAllocs, queryAllocs []float64, err error) {
	var m0, m1 runtime.MemStats
	for i, r := range reqs {
		if r.req.route == routeObserve {
			var req serve.ObserveRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, nil, err
			}
			batch := make([]store.Observation, len(req.Observations))
			for j, wo := range req.Observations {
				batch[j] = store.Observation{Metric: wo.Metric, Key: wo.Key, Item: wo.Item, Value: wo.Value, Time: wo.Time}
			}
			runtime.ReadMemStats(&m0)
			id := rec.begin(layer+".observe_batch", i, -1)
			err := analytics.ObserveBatch(s.bare, batch)
			rec.end(id)
			if err != nil {
				return nil, nil, err
			}
			runtime.ReadMemStats(&m1)
			observeAllocs = append(observeAllocs, float64(m1.Mallocs-m0.Mallocs))
			continue
		}
		req, err := r.req.query.Request().Normalize()
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&m0)
		id := rec.begin(layer+".query", i, -1)
		_, err = analytics.QueryContext(context.Background(), s.bare, req)
		rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		if len(req.Keys) == 1 {
			runtime.ReadMemStats(&m1)
			queryAllocs = append(queryAllocs, float64(m1.Mallocs-m0.Mallocs))
		}
	}
	return observeAllocs, queryAllocs, nil
}

// durations collects, per request id, the duration of the named spans
// (optionally only those with the tag).
func durations(spans []span, pass int, name, tag string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.pass == pass && s.name == name && (tag == "" || s.tag == tag) {
			out[s.req] = float64(s.dur)
		}
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// pairedDiff is the median over requests present in both maps of a-b.
func pairedDiff(a, b map[int]float64) float64 {
	var d []float64
	for req, va := range a {
		if vb, ok := b[req]; ok {
			d = append(d, va-vb)
		}
	}
	return median(d)
}

// ladder runs the in-process replay for the plan's workload, fills the
// ladder's per-layer metrics into ly and writes the spans as Chrome
// trace-event JSON under out/.
func ladder(p *plan, ly map[string]float64) error {
	preload, reqs := p.replay()
	backendLayer := "store"
	if p.spec.backend == "cluster" {
		backendLayer = "dstore"
	}
	rec := &recorder{on: true, epoch: time.Now()}
	var (
		sizes                      []float64
		observeAllocs, queryAllocs []float64
		stepsOn, stepsOff          time.Duration
		probeRange, probeAgg       float64
	)
	// pass builds a fresh composition, replays the preload into it with
	// recording off, waits until it is applied, then runs the timed part
	// and returns how long that took.
	pass := func(n int, on bool, run func(s *stack, rec *recorder, reqs []replayed) error) (time.Duration, error) {
		s, err := newStack(p.spec.backend)
		if err != nil {
			return 0, err
		}
		defer s.close()
		if err := run(s, &recorder{}, preload); err != nil {
			return 0, err
		}
		s.settle()
		rec.pass, rec.on = n, on
		t0 := time.Now()
		err = run(s, rec, reqs)
		return time.Since(t0), err
	}
	if _, err := pass(0, true, func(s *stack, rec *recorder, reqs []replayed) error {
		return handlerPass(s, rec, reqs, &sizes)
	}); err != nil {
		return err
	}
	var err error
	if stepsOn, err = pass(1, true, stepsPass); err != nil {
		return err
	}
	if stepsOff, err = pass(1, false, stepsPass); err != nil {
		return err
	}
	if _, err := pass(2, true, func(s *stack, rec *recorder, reqs []replayed) (err error) {
		if observeAllocs, queryAllocs, err = backendPass(s, rec, reqs, backendLayer); err != nil {
			return err
		}
		if !rec.on {
			return nil // the preload leg
		}
		if st, ok := s.bare.(*store.Store); ok && p.spec.preloadBuckets >= 64 {
			probeRange, probeAgg, err = probeStore(st, p)
		}
		return err
	}); err != nil {
		return err
	}
	sp := rec.spans
	med := func(pass int, name, tag string) float64 { return median(values(durations(sp, pass, name, tag))) }

	ly["serve.handler_observe_us"] = med(0, "serve.handler_observe", "") / 1e3
	ly["serve.handler_query_us"] = med(0, "serve.handler_query", "") / 1e3
	ly["serve.decode_observe_us"] = med(1, "serve.decode_observe", "") / 1e3
	ly["serve.decode_query_us"] = med(1, "serve.decode_query", "") / 1e3
	ly["serve.encode_result_us"] = med(1, "serve.encode_result", "") / 1e3
	ly["serve.response_bytes"] = median(sizes)
	ly["admission.admit_ns"] = med(1, "admission.admit", "")
	ly["rcache.lookup_hit_ns"] = med(1, "rcache.lookup", "hit")
	ly["rcache.lookup_miss_ns"] = med(1, "rcache.lookup", "miss")
	ly["rcache.fill_ns"] = med(1, "rcache.fill", "")
	ly["rcache.note_observe_ns"] = med(1, "rcache.note_observe", "") / obsPerReq
	ly["analytics.decorator_observe_ns"] = pairedDiff(
		durations(sp, 1, "analytics.observe_batch", ""), durations(sp, 2, backendLayer+".observe_batch", ""))
	ly["analytics.decorator_query_ns"] = pairedDiff(
		durations(sp, 1, "analytics.query", ""), durations(sp, 2, backendLayer+".query", ""))

	// Handler time the steps do not account for, over every request.
	var whole, parts float64
	for _, s := range sp {
		switch {
		case s.pass == 0:
			whole += float64(s.dur)
		case s.pass == 1 && s.parent >= 0:
			parts += float64(s.dur)
		}
	}
	if whole > 0 {
		ly["serve.unattributed_share"] = 1 - parts/whole
	}
	if stepsOff > 0 {
		ly["loadgen.trace_overhead_share"] = float64(stepsOn-stepsOff) / float64(stepsOff)
	}

	observe := durations(sp, 2, backendLayer+".observe_batch", "")
	perObs := median(values(observe)) / obsPerReq
	if p.spec.backend == "store" {
		ly["store.observe_batch_ns_per_obs"] = perObs
		ly["store.allocs_per_observe_batch"] = median(observeAllocs)
		ly["store.allocs_per_range_query"] = median(queryAllocs)
		ly["store.query_range_us"] = probeRange
		ly["store.query_agg_us"] = probeAgg
		// The first batch after a roll opens a new bucket for every key.
		var rolls []float64
		last := int64(-1)
		for i, r := range reqs {
			if r.req.route != routeObserve {
				continue
			}
			if b := r.req.time / bucketWidth; b != last {
				if d, ok := observe[i]; ok {
					rolls = append(rolls, d)
				}
				last = b
			}
		}
		ly["store.bucket_roll_us"] = median(rolls) / 1e3
	} else {
		ly["dstore.router_observe_batch_ns_per_obs"] = perObs
		ly["dstore.scatter_query_us"] = med(2, "dstore.query", "") / 1e3
		mqlogLadder(p, ly)
	}
	synopsisLadder(p, ly)
	return writeTrace(p, sp)
}

// probeStore times two fixed query shapes against the preloaded store:
// one key over 64 sealed buckets, and an 8-key aggregate over 32.
func probeStore(st *store.Store, p *plan) (rangeUs, aggUs float64, err error) {
	hi := int64(baseBucket+p.spec.preloadBuckets) * bucketWidth
	timeIt := func(n int, req store.QueryRequest) (float64, error) {
		req, err := req.Normalize()
		if err != nil {
			return 0, err
		}
		var ds []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := st.QueryContext(context.Background(), req); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0))/1e3)
		}
		return median(ds), nil
	}
	if rangeUs, err = timeIt(100, store.QueryRequest{Metrics: []string{"uniques"}, Keys: []string{pageKey(0)},
		From: hi - 64*bucketWidth, To: hi}); err != nil {
		return 0, 0, err
	}
	aggUs, err = timeIt(30, store.QueryRequest{Metrics: []string{"page-hits"}, Keys: pageRun(0, 8), Aggregate: true,
		From: hi - 32*bucketWidth, To: hi})
	return rangeUs, aggUs, err
}

// perCall times fn (which performs n calls) and returns ns per call,
// the median of several repetitions.
func perCall(reps, n int, fn func()) float64 {
	var ds []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0))/float64(n))
	}
	return median(ds)
}

// synopsisLadder times add and merge of the four synopsis families on
// the daemon's demo parameters, fed with the workload's own events: one
// sketch per 512 events stands in for one bucket.
func synopsisLadder(p *plan, ly map[string]float64) {
	var users, pages []string
	var lats []uint64
	for _, b := range p.bodies {
		for _, o := range observations(b.events, 0) {
			switch o.Metric {
			case "uniques":
				users = append(users, o.Item)
				pages = append(pages, o.Key)
			case "latency-us":
				lats = append(lats, o.Value)
			}
		}
	}
	const per = 512
	n := len(users) / per

	hlls := make([]*cardinality.HyperLogLog, n)
	for i := range hlls {
		hlls[i], _ = cardinality.NewHyperLogLog(12, 42)
	}
	ly["cardinality.hll_add_ns"] = perCall(5, len(users), func() {
		for i := range hlls {
			hlls[i].Reset()
			for _, u := range users[i*per : (i+1)*per] {
				hlls[i].UpdateString(u)
			}
		}
	})
	ly["cardinality.hll_merge_ns"] = perCall(20, n, func() {
		into, _ := cardinality.NewHyperLogLog(12, 42)
		for _, h := range hlls {
			_ = into.Merge(h)
		}
	})

	cms := make([]*frequency.CountMin, n)
	for i := range cms {
		cms[i], _ = frequency.NewCountMin(1024, 4, 42)
	}
	ly["frequency.cm_add_ns"] = perCall(5, len(pages), func() {
		for i := range cms {
			cms[i].Reset()
			for _, pg := range pages[i*per : (i+1)*per] {
				cms[i].UpdateString(pg, 1)
			}
		}
	})
	ly["frequency.cm_merge_ns"] = perCall(20, n, func() {
		into, _ := frequency.NewCountMin(1024, 4, 42)
		for _, c := range cms {
			_ = into.Merge(c)
		}
	})

	sss := make([]*frequency.SpaceSaving, n)
	for i := range sss {
		sss[i], _ = frequency.NewSpaceSaving(32)
	}
	ly["frequency.ss_add_ns"] = perCall(5, len(pages), func() {
		for i := range sss {
			sss[i].Reset()
			for _, pg := range pages[i*per : (i+1)*per] {
				sss[i].Update(pg)
			}
		}
	})
	ly["frequency.ss_merge_ns"] = perCall(20, n, func() {
		into, _ := frequency.NewSpaceSaving(32)
		for _, s := range sss {
			_ = into.Merge(s)
		}
	})

	qds := make([]*quantile.QDigest, n)
	for i := range qds {
		qds[i], _ = quantile.NewQDigest(20, 512)
	}
	ly["quantile.qd_add_ns"] = perCall(5, len(lats), func() {
		for i := range qds {
			qds[i].Reset()
			for _, v := range lats[i*per : (i+1)*per] {
				qds[i].Update(v, 1)
			}
		}
	})
	ly["quantile.qd_merge_ns"] = perCall(20, n, func() {
		into, _ := quantile.NewQDigest(20, 512)
		for _, q := range qds {
			_ = into.Merge(q)
		}
	})
}

// mqlogLadder times the log alone: batched appends of 64 encoded
// observations (the router's flush size) and fetches of up to 512 (the
// node's poll size) on a 4-partition in-memory topic.
func mqlogLadder(p *plan, ly map[string]float64) {
	var recs []mqlog.Record
	for _, b := range p.bodies[:64] {
		for _, o := range observations(b.events, baseBucket*bucketWidth) {
			recs = append(recs, mqlog.Record{Key: o.Key, Value: store.EncodeObservation(store.Observation{
				Metric: o.Metric, Key: o.Key, Item: o.Item, Value: o.Value, Time: o.Time})})
		}
	}
	const batch, parts = 64, 4
	topic, err := mqlog.NewBroker().CreateTopic("bench-ladder", parts, 0)
	if err != nil {
		return
	}
	defer topic.Close()
	ly["mqlog.produce_batch_ns_per_rec"] = perCall(1, len(recs), func() {
		for i := 0; i+batch <= len(recs); i += batch {
			_, _ = topic.ProduceBatchTo((i/batch)%parts, recs[i:i+batch])
		}
	})
	ly["mqlog.fetch_ns_per_rec"] = perCall(5, len(recs), func() {
		for pid := 0; pid < parts; pid++ {
			for off := uint64(0); ; {
				msgs, next, _, err := topic.Fetch(pid, off, 512)
				if err != nil || len(msgs) == 0 {
					break
				}
				off = next
			}
		}
	})
}

// writeTrace writes the spans as Chrome trace-event JSON: one thread
// per pass, args carrying the request id and the causing span.
func writeTrace(p *plan, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"request": s.req, "span": s.id, "parent": s.parent}
		if s.tag != "" {
			args["outcome"] = s.tag
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: s.pass, Args: args})
	}
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", p.spec.name, p.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ladder: %d spans written to bench/%s\n", len(spans), path)
	return nil
}
