package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Shape of the data every workload shares (see README, "Data, shared by all workloads").
const (
	numPages     = 64
	numUsers     = 20000
	zipfS        = 1.1
	eventsPerReq = 64
	obsPerEvent  = 4 // one observation per demo metric
	obsPerReq    = eventsPerReq * obsPerEvent

	// The daemon's store geometry (cmd/analyticsd constants).
	bucketWidth = 100
	ringBuckets = 256

	// Stream time starts at bucket 1000 and stays below 10 000 buckets, so
	// every time value has six digits and a pre-encoded body can take its
	// time in place without changing Content-Length.
	baseBucket = 1000
	timeDigits = 6

	// bodyPool is how many distinct write bodies are pre-encoded; request
	// g sends pool body g%bodyPool. Even, so with writes alternating over
	// two connections no body is shared between goroutines.
	bodyPool = 512

	roundSeconds = 2 // schedule per measured round
	// windowLength cuts every round into slices that are timed on their
	// own; see quiet for why.
	windowLength = 500 * time.Millisecond
	warmSeconds  = 1 // schedule of the discarded warm-up round
	numConns     = 2
	decodeEvery  = 16 // every n-th response body is JSON-decoded

	// Closed-loop capacity probe (trace runs only, never gated).
	capacityRounds    = 5
	capacityPerRound  = 400
	resetDelay        = 10 * time.Millisecond // reader's lead-in behind the writer's roll
	maxResidentBucket = 200
)

var demoMetrics = [obsPerEvent]string{"uniques", "page-hits", "top-pages", "latency-us"}

// demoSpecs is the daemon's demo schema (cmd/analyticsd registerDemo).
var demoSpecs = map[string]serve.ProtoSpec{
	"uniques":    serve.DistinctSpec(12, 42),
	"page-hits":  serve.FreqSpec(1024, 4, 42),
	"top-pages":  serve.TopKSpec(32),
	"latency-us": serve.QuantileSpec(20, 512),
}

// spec is one workload: which backend, how much sealed history is
// preloaded, and the fixed request rates. Rates are constants of the
// benchmark — they do not change when the code gets faster.
type spec struct {
	name           string
	why            string
	backend        string
	preloadBuckets int // sealed buckets written during set-up
	preloadPerBkt  int // write requests per preloaded bucket
	writeRate      int // /v1/observe requests per second (256 observations each)
	queryRate      int // /v1/query requests per second
}

var specs = []spec{
	{
		name:    "ingest_zipf",
		why:     "writes only into open buckets: serve decode and store apply do the work, no merge runs, so a read-path change must not move it",
		backend: "store", writeRate: 600,
	},
	{
		name:    "range_scan",
		why:     "distinct sealed-range reads only: every query is an rcache miss, a per-bucket synopsis merge and a synopsis encode; write-path changes must not move it",
		backend: "store", preloadBuckets: 160, preloadPerBkt: 1, queryRate: 400,
	},
	{
		name:    "dashboard",
		why:     "repeated sliding panels beside a writer: rcache hits, roll-driven invalidation and read/write shard-lock contention, so a read gain that taxes writes shows",
		backend: "store", preloadBuckets: 160, preloadPerBkt: 1, writeRate: 200, queryRate: 1000,
	},
	{
		name:    "cluster_mixed",
		why:     "cluster backend: router, mqlog append, node apply and scatter-gather carry the request, and an acked write is not yet a visible one",
		backend: "cluster", preloadBuckets: 64, preloadPerBkt: 2, writeRate: 100, queryRate: 300,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// event is one page view; it becomes one observation per demo metric.
type event struct {
	page uint8
	user uint32
	lat  uint32
}

func pageKey(p int) string { return fmt.Sprintf("page-%02d", p) }

// observations renders the events of one write request at stream time t,
// in the daemon preload's own order.
func observations(evs []event, t int64) []serve.WireObservation {
	out := make([]serve.WireObservation, 0, len(evs)*obsPerEvent)
	for _, e := range evs {
		page := pageKey(int(e.page))
		out = append(out,
			serve.WireObservation{Metric: "uniques", Key: page, Item: "user-" + strconv.Itoa(int(e.user)), Time: t},
			serve.WireObservation{Metric: "page-hits", Key: page, Item: page, Time: t},
			serve.WireObservation{Metric: "top-pages", Key: "all", Item: page, Time: t},
			serve.WireObservation{Metric: "latency-us", Key: page, Value: uint64(e.lat), Time: t},
		)
	}
	return out
}

// writeBody is one pre-encoded /v1/observe request (HTTP head + JSON
// body) whose time fields are overwritten in place per send.
type writeBody struct {
	events  []event
	wire    []byte
	bodyOff int   // where the JSON body starts inside wire
	timeOff []int // offsets of each six-digit time value inside wire
}

func httpHead(path string, bodyLen int) []byte {
	return []byte("POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(bodyLen) + "\r\n\r\n")
}

func newWriteBody(evs []event) (*writeBody, error) {
	const placeholder = int64(baseBucket * bucketWidth)
	body, err := json.Marshal(serve.ObserveRequest{Observations: observations(evs, placeholder)})
	if err != nil {
		return nil, err
	}
	head := httpHead("/v1/observe", len(body))
	b := &writeBody{events: evs, wire: append(head, body...), bodyOff: len(head)}
	needle := []byte(`"time":` + strconv.FormatInt(placeholder, 10))
	for at := b.bodyOff; ; {
		i := bytes.Index(b.wire[at:], needle)
		if i < 0 {
			break
		}
		b.timeOff = append(b.timeOff, at+i+len(needle)-timeDigits)
		at += i + len(needle)
	}
	if len(b.timeOff) != len(evs)*obsPerEvent {
		return nil, fmt.Errorf("bench: found %d time fields in a body of %d observations", len(b.timeOff), len(evs)*obsPerEvent)
	}
	return b, nil
}

// setTime splices stream time t into every observation of the body.
func (b *writeBody) setTime(t int64) {
	var digits [timeDigits]byte
	if t < 100000 || t > 999999 {
		panic(fmt.Sprintf("bench: stream time %d does not have %d digits", t, timeDigits))
	}
	strconv.AppendInt(digits[:0], t, 10)
	for _, off := range b.timeOff {
		copy(b.wire[off:off+timeDigits], digits[:])
	}
}

func (b *writeBody) json() []byte { return b.wire[b.bodyOff:] }

type route uint8

const (
	routeObserve route = iota
	routeQuery
	numRoutes
)

func (r route) String() string {
	if r == routeObserve {
		return "observe"
	}
	return "query"
}

// queryKind tags what a query is for, so checks and probes can tell
// them apart without re-parsing the body.
type queryKind uint8

const (
	kindScan  queryKind = iota // distinct sealed range: must never be cached
	kindPanel                  // repeated sealed panel: cached after its first miss
	kindTail                   // open-bucket tail read: the visibility probe
)

// request is one scheduled socket request. Writes name a pool body and
// the stream time to splice; queries carry their own wire bytes.
type request struct {
	route route
	// write
	body int   // index into plan.bodies
	time int64 // stream time
	seq  int   // position in the run's write stream (0-based)
	// query
	wire  []byte
	query serve.QueryRequest
	kind  queryKind
	panel int // identity of a repeated panel within its round
	// decode forces the response body to be decoded (otherwise every
	// decodeEvery-th is): tail probes and each panel's first refresh.
	decode bool
}

// round is one phase of schedule: per connection, the requests in due
// order with a fixed spacing.
type round struct {
	conns [numConns]connRound
}

type connRound struct {
	reqs     []request
	interval time.Duration // spacing between due times
	offset   time.Duration // first due time after round start
}

func (r *round) requests() int {
	n := 0
	for i := range r.conns {
		n += len(r.conns[i].reqs)
	}
	return n
}

// plan is everything one run sends, computed from the seed before the
// daemon starts. The program under test sees only these requests.
type plan struct {
	spec     spec
	seed     uint64
	bodies   []*writeBody
	preload  []request // closed loop, one connection, in order
	warm     round
	rounds   []round
	capacity []round // closed loop, fixed count (trace runs)

	writes    int // write requests in preload+warm+rounds(+capacity)
	stream    []streamed
	firstTime int64 // stream-time range covered by the write stream
	lastTime  int64
	// bucketStart[b-baseBucket] is the write-stream position of bucket b's
	// first request (the visibility probe needs it).
	bucketStart []int
}

// streamed is one request of the write stream as the checks replay it.
type streamed struct {
	body int
	time int64
}

// gen carries the seeded generators while a plan is built.
type gen struct {
	p        *plan
	rng      *workload.RNG
	pageZipf *workload.Zipf
	bucket   int64 // bucket the write stream is currently in
	inBucket int   // requests already written to it
	scans    int   // range_scan queries emitted so far
	seen     map[string]struct{}
}

// buildPlan computes the whole run for a workload: bodies, preload,
// warm-up, measured rounds and (when capacity is set) the closed-loop
// probe rounds. Same spec, seed and round count give the same plan.
func buildPlan(s spec, seed uint64, rounds int, capacity bool) (*plan, error) {
	p := &plan{spec: s, seed: seed}
	// Independent generator streams, so that changing how many queries a
	// workload draws never shifts its event data.
	evRNG := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	evZipf := workload.NewZipf(evRNG, numPages, zipfS)
	userRNG := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 2)
	for i := 0; i < bodyPool; i++ {
		evs := make([]event, eventsPerReq)
		for j := range evs {
			evs[j] = event{
				page: uint8(evZipf.Draw()),
				user: uint32(userRNG.Intn(numUsers)),
				lat:  uint32(100 + userRNG.Intn(9000)),
			}
		}
		b, err := newWriteBody(evs)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
	}
	qRNG := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 3)
	g := &gen{p: p, rng: qRNG, pageZipf: workload.NewZipf(qRNG, numPages, zipfS),
		bucket: baseBucket - 1, seen: map[string]struct{}{}}

	// Preload: sealed history, then one opener request that seals the last
	// preloaded bucket.
	if s.preloadBuckets > 0 {
		for b := 0; b < s.preloadBuckets; b++ {
			g.roll()
			for i := 0; i < s.preloadPerBkt; i++ {
				p.preload = append(p.preload, g.write())
			}
		}
		g.roll()
		p.preload = append(p.preload, g.write())
	}
	var err error
	if p.warm, err = g.round(warmSeconds); err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		rd, err := g.round(roundSeconds)
		if err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, rd)
	}
	if capacity {
		for r := 0; r < capacityRounds; r++ {
			rd, err := g.capacityRound()
			if err != nil {
				return nil, err
			}
			p.capacity = append(p.capacity, rd)
		}
	}
	if n := int(g.bucket) - baseBucket + 1; n > maxResidentBucket {
		return nil, fmt.Errorf("bench: plan keeps %d buckets resident (limit %d)", n, maxResidentBucket)
	}
	p.firstTime = baseBucket * bucketWidth
	p.lastTime = (g.bucket + 1) * bucketWidth
	return p, nil
}

// roll advances the write stream to the next bucket.
func (g *gen) roll() {
	g.bucket++
	g.inBucket = 0
	g.p.bucketStart = append(g.p.bucketStart, g.p.writes)
}

// write emits the next request of the write stream in the current
// bucket. Stream time is a function of the request's position alone.
func (g *gen) write() request {
	r := request{
		route: routeObserve,
		seq:   g.p.writes,
		body:  g.p.writes % bodyPool,
		time:  g.bucket*bucketWidth + int64(g.inBucket%bucketWidth),
	}
	g.p.stream = append(g.p.stream, streamed{body: r.body, time: r.time})
	g.p.writes++
	g.inBucket++
	return r
}

// sealedLo is where the preloaded sealed history starts in stream time.
func (g *gen) sealedLo() int64 { return baseBucket * bucketWidth }

// round builds one open-loop round of the given schedule length. A
// single-route workload splits its rate over both connections; a mixed
// one writes on connection 0 and reads on connection 1. Writers roll one
// bucket at the start of every round, behind the barrier that separates
// rounds, so no write ever lands in a sealed bucket.
func (g *gen) round(seconds int) (round, error) {
	s := g.p.spec
	var rd round
	nw, nq := s.writeRate*seconds, s.queryRate*seconds
	if nw > 0 {
		g.roll()
	}
	switch {
	case nw > 0 && nq == 0:
		iv := time.Second * numConns / time.Duration(s.writeRate)
		for c := 0; c < numConns; c++ {
			rd.conns[c] = connRound{interval: iv, offset: iv / numConns * time.Duration(c)}
		}
		for i := 0; i < nw; i++ {
			rd.conns[i%numConns].reqs = append(rd.conns[i%numConns].reqs, g.write())
		}
	case nw == 0 && nq > 0:
		iv := time.Second * numConns / time.Duration(s.queryRate)
		for c := 0; c < numConns; c++ {
			rd.conns[c] = connRound{interval: iv, offset: iv / numConns * time.Duration(c)}
		}
		for i := 0; i < nq; i++ {
			q, err := g.query(i, nq)
			if err != nil {
				return rd, err
			}
			rd.conns[i%numConns].reqs = append(rd.conns[i%numConns].reqs, q)
		}
	default:
		rd.conns[0] = connRound{interval: time.Second / time.Duration(s.writeRate)}
		for i := 0; i < nw; i++ {
			rd.conns[0].reqs = append(rd.conns[0].reqs, g.write())
		}
		// The reader starts a moment behind the writer, so the round's roll
		// has invalidated the panels before the first one is asked for.
		rd.conns[1] = connRound{interval: time.Second / time.Duration(s.queryRate), offset: resetDelay}
		for i := 0; i < nq; i++ {
			q, err := g.query(i, nq)
			if err != nil {
				return rd, err
			}
			rd.conns[1].reqs = append(rd.conns[1].reqs, q)
		}
	}
	return rd, nil
}

// capacityRound is a fixed-count closed-loop round on the workload's
// primary route (writes in the current bucket, or fresh distinct scans).
func (g *gen) capacityRound() (round, error) {
	var rd round
	for i := 0; i < capacityPerRound; i++ {
		var r request
		if g.p.spec.writeRate > 0 {
			r = g.write()
		} else {
			var err error
			if r, err = g.scan(); err != nil {
				return rd, err
			}
		}
		rd.conns[i%numConns].reqs = append(rd.conns[i%numConns].reqs, r)
	}
	return rd, nil
}

// query is the i-th of a round's n queries.
func (g *gen) query(i, n int) (request, error) {
	switch g.p.spec.name {
	case "range_scan":
		return g.scan()
	case "dashboard":
		p, first := panelAt(i, n, dashboardPanels)
		r, err := g.panel(p)
		r.decode = first
		return r, err
	default: // cluster_mixed: tail probe and sealed panel alternate
		if i%2 == 0 {
			return g.tail()
		}
		p, _ := panelAt(i/2, n/2, clusterPanels)
		return g.clusterPanel(p)
	}
}

// panelAt picks the panel of a round's i-th panel query out of n. The
// round's roll invalidates every panel at once; were the reader to walk
// the panels in order, the round would open with one burst of misses
// and its p95 would measure how fast that queue drains. Instead panels
// come up for their first refresh one at a time, evenly through the
// round (dashboards refresh out of phase), and the queries in between
// revisit the panels already refreshed.
func panelAt(i, n, panels int) (panel int, first bool) {
	stride := max(n/panels, 1)
	if i%stride == 0 && i/stride < panels {
		return i / stride, true
	}
	return i % min(i/stride+1, panels), false
}

const (
	dashboardPanels = 160
	clusterPanels   = 30
)

func (g *gen) newQuery(kind queryKind, panel int, q serve.QueryRequest) (request, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return request{}, err
	}
	return request{route: routeQuery, kind: kind, panel: panel, query: q, decode: kind == kindTail,
		wire: append(httpHead("/v1/query", len(body)), body...)}, nil
}

func pageRun(start, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = pageKey((start + i) % numPages)
	}
	return keys
}

// scanMix is the order query kinds repeat in on range_scan: of every
// ten, seven single-key uniques (u), two eight-key page-hits aggregates
// (a) and one single-key latency-us (l). A fixed pattern, not a draw, so
// that every round holds the same mix and its percentiles measure the
// daemon, not the luck of the draw.
const scanMix = "uuauulauuu"

// scan emits the next range_scan query: uniques and latency-us over
// 48-80 sealed buckets, aggregates over 24-40, the span stepping
// through its range in golden-ratio strides; the key is Zipf-drawn and
// the start uniform. No query repeats within a run, so none can be
// answered from the read cache.
func (g *gen) scan() (request, error) {
	kind := scanMix[g.scans%len(scanMix)]
	frac := float64(g.scans) * 0.6180339887498949
	frac -= float64(int64(frac))
	g.scans++
	for try := 0; try < 1000; try++ {
		var q serve.QueryRequest
		span := 48 + int(frac*33)
		switch kind {
		case 'u':
			q = serve.QueryRequest{Metrics: []string{"uniques"}, Keys: []string{pageKey(int(g.pageZipf.Draw()))}}
		case 'a':
			span = 24 + int(frac*17)
			q = serve.QueryRequest{Metrics: []string{"page-hits"}, Keys: pageRun(g.rng.Intn(numPages), 8), Aggregate: true}
		default:
			// A q-digest range costs 40x more on the hottest page than on a
			// cold one (4.3 ms against 0.1 ms over 64 buckets). p95 sits in
			// this class, so it reads one key of middling cost, not a draw.
			q = serve.QueryRequest{Metrics: []string{"latency-us"}, Keys: []string{pageKey(1)}}
		}
		from := g.rng.Intn(g.p.spec.preloadBuckets - span + 1)
		q.From = g.sealedLo() + int64(from)*bucketWidth
		q.To = q.From + int64(span)*bucketWidth
		id := fmt.Sprintf("%s|%s|%d|%d", q.Metrics[0], q.Keys[0], q.From, q.To)
		if _, dup := g.seen[id]; dup {
			continue
		}
		g.seen[id] = struct{}{}
		return g.newQuery(kindScan, 0, q)
	}
	return request{}, fmt.Errorf("bench: range_scan ran out of distinct queries")
}

// panel is dashboard panel p at the writer's current bucket: the last
// 32 or 64 sealed buckets, ending where the open bucket starts.
func (g *gen) panel(p int) (request, error) {
	span := int64(32)
	if p%2 == 1 {
		span = 64
	}
	to := g.bucket * bucketWidth
	q := serve.QueryRequest{From: to - span*bucketWidth, To: to}
	switch k := p % 20; {
	case k < 15:
		q.Metrics, q.Keys = []string{"uniques"}, []string{pageKey(p % numPages)}
	case k < 19:
		q.Metrics, q.Keys = []string{"latency-us"}, []string{pageKey(p % numPages)}
	default:
		// The one expensive refresh (8 keys x 32 Count-Min merges): kept
		// rare, so it shows in p99 and CPU and not as a queue behind it
		// that p95 would then measure.
		q.From = to - 32*bucketWidth
		q.Metrics, q.Keys, q.Aggregate = []string{"page-hits"}, pageRun(p%numPages, 8), true
	}
	return g.newQuery(kindPanel, p, q)
}

// tail reads top-pages/all over the two newest buckets; its items count
// tells how much of the acknowledged write stream is visible.
func (g *gen) tail() (request, error) {
	return g.newQuery(kindTail, 0, serve.QueryRequest{
		Metrics: []string{"top-pages"}, Keys: []string{"all"},
		From: (g.bucket - 1) * bucketWidth, To: (g.bucket + 1) * bucketWidth,
	})
}

func (g *gen) clusterPanel(p int) (request, error) {
	to := g.bucket * bucketWidth
	return g.newQuery(kindPanel, p, serve.QueryRequest{
		Metrics: []string{"uniques"}, Keys: []string{pageKey(p % numPages)},
		From: to - 32*bucketWidth, To: to,
	})
}

// sequenceHash identifies the run's input: the pre-encoded bodies and,
// in send order, every request's route, body, stream time and query
// bytes. Two runs with one seed must print the same value.
func (p *plan) sequenceHash() string {
	h := fnv.New64a()
	for _, b := range p.bodies {
		h.Write(b.wire)
	}
	var num [8]byte
	one := func(r *request) {
		if r.route == routeObserve {
			binary.LittleEndian.PutUint64(num[:], uint64(r.body))
			h.Write(num[:])
			binary.LittleEndian.PutUint64(num[:], uint64(r.time))
			h.Write(num[:])
			return
		}
		h.Write(r.wire)
	}
	for i := range p.preload {
		one(&p.preload[i])
	}
	// The capacity rounds of a trace run stay out: they come after the
	// measured phase, and --trace must not change the run's identity.
	phases := append([]round{p.warm}, p.rounds...)
	for i := range phases {
		// Interleave the connections the way the schedule does.
		rd := &phases[i]
		for k := 0; ; k++ {
			any := false
			for c := range rd.conns {
				if k < len(rd.conns[c].reqs) {
					one(&rd.conns[c].reqs[k])
					any = true
				}
			}
			if !any {
				break
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
