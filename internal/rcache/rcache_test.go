package rcache

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

const width = 100 // bucket width used across these tests

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.BucketWidth == 0 {
		cfg.BucketWidth = width
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// result builds a distinguishable cached payload so hit assertions can
// check identity, not just the hit flag.
func result(tag string) store.QueryResult {
	return store.NewQueryResult([]store.Answer{store.NewAnswer(tag, "k", nil)})
}

func sealedReq(metric string) store.QueryRequest {
	return store.QueryRequest{Metric: metric, Key: "k", From: 0, To: width}
}

// seen records req's shape with the doorkeeper the way a miss does,
// without counting a lookup, so the next miss's answer is admitted.
// Tests of what a fill does call it first and keep their counts.
func seen(t *testing.T, c *Cache, req store.QueryRequest) {
	t.Helper()
	req, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	frontier := int64(math.MaxInt64)
	for _, m := range req.Metrics {
		st := c.peek(m)
		if st == nil {
			t.Fatalf("metric %q never observed", m)
		}
		frontier = min(frontier, st.open.Load()*c.cfg.BucketWidth)
	}
	_, shape := appendKey(nil, req, frontier)
	c.door.record(shape)
}

func TestRCacheMissFillHit(t *testing.T) {
	c := mustCache(t, Config{})
	// Writes in buckets 0 and 1: bucket 0 is sealed once bucket 1 opens.
	c.NoteObserve("m", 10)
	c.NoteObserve("m", width+10)

	req := sealedReq("m")
	seen(t, c, req)
	if _, hit, tok := c.Lookup(req); hit || !tok.Cacheable() {
		t.Fatalf("first lookup: hit=%v cacheable=%v, want miss+cacheable", hit, tok.Cacheable())
	} else {
		c.Fill(tok, result("m"))
	}
	res, hit, _ := c.Lookup(req)
	if !hit {
		t.Fatal("second lookup: want hit")
	}
	if got := res.Answers(); len(got) != 1 || got[0].Metric != "m" {
		t.Fatalf("hit returned wrong payload: %+v", got)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestRCacheIneligibleRequests(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", width+10) // open bucket 1; [0,width) sealed

	cases := []struct {
		name string
		req  store.QueryRequest
	}{
		{"malformed empty range", store.QueryRequest{Metric: "m", Key: "k", From: 5, To: 5}},
		{"all-keys", store.QueryRequest{Metric: "m", AllKeys: true, From: 0, To: width}},
		{"range reaches open bucket", store.QueryRequest{Metric: "m", Key: "k", From: 0, To: width + 1}},
		{"unknown metric", sealedReq("never-seen")},
		{"one unknown among two", store.QueryRequest{Metrics: []string{"m", "never-seen"}, Key: "k", From: 0, To: width}},
	}
	for _, tc := range cases {
		if _, hit, tok := c.Lookup(tc.req); hit || tok.Cacheable() {
			t.Errorf("%s: hit=%v cacheable=%v, want neither", tc.name, hit, tok.Cacheable())
		}
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("ineligible lookups counted as misses: %+v", s)
	}
	// Fill with an ineligible token must be a no-op.
	c.Fill(Token{}, result("m"))
	if c.Len() != 0 {
		t.Fatal("Fill with zero token stored an entry")
	}
}

func TestRCacheAdvanceInvalidates(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", width+10)
	seen(t, c, sealedReq("m"))
	_, _, tok := c.Lookup(sealedReq("m"))
	c.Fill(tok, result("m"))
	if _, hit, _ := c.Lookup(sealedReq("m")); !hit {
		t.Fatal("want hit before advance")
	}

	c.NoteObserve("m", 3*width) // advance: seals bucket 1 and 2
	if _, hit, _ := c.Lookup(sealedReq("m")); hit {
		t.Fatal("post-advance lookup must miss")
	}
	if s := c.Stats(); s.Invalidations < 2 { // initial open + advance
		t.Fatalf("invalidations = %d, want >= 2", s.Invalidations)
	}
	// The same range is still sealed, so it re-fills under the new version.
	_, _, tok = c.Lookup(sealedReq("m"))
	c.Fill(tok, result("m"))
	if _, hit, _ := c.Lookup(sealedReq("m")); !hit {
		t.Fatal("want hit after re-fill under new version")
	}
}

func TestRCacheLateWriteInvalidates(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", 2*width+10) // open bucket 2
	seen(t, c, sealedReq("m"))
	_, _, tok := c.Lookup(sealedReq("m"))
	c.Fill(tok, result("m"))

	c.NoteObserve("m", 2*width+20) // same open bucket: no invalidation
	if _, hit, _ := c.Lookup(sealedReq("m")); !hit {
		t.Fatal("in-open-bucket write must not invalidate")
	}

	c.NoteObserve("m", 10) // late write into sealed bucket 0
	if _, hit, _ := c.Lookup(sealedReq("m")); hit {
		t.Fatal("late write into sealed history must invalidate")
	}
}

func TestRCachePerMetricIsolation(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("a", width+1)
	c.NoteObserve("b", width+1)
	seen(t, c, sealedReq("a"))
	_, _, ta := c.Lookup(sealedReq("a"))
	c.Fill(ta, result("a"))
	seen(t, c, sealedReq("b"))
	_, _, tb := c.Lookup(sealedReq("b"))
	c.Fill(tb, result("b"))

	c.NoteObserve("a", 5) // late write on a only
	if _, hit, _ := c.Lookup(sealedReq("a")); hit {
		t.Fatal("a must be invalidated")
	}
	if _, hit, _ := c.Lookup(sealedReq("b")); !hit {
		t.Fatal("b must survive a's invalidation")
	}
}

func TestRCacheFillDiscardsOnRace(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", width+1)
	_, _, tok := c.Lookup(sealedReq("m"))
	c.NoteObserve("m", 1) // invalidating write between Lookup and Fill
	c.Fill(tok, result("m"))
	if c.Len() != 0 {
		t.Fatal("Fill must discard a result whose version stamp raced")
	}
}

func TestRCacheEvictionFIFO(t *testing.T) {
	// One shard, four slots: the fifth insert evicts the oldest.
	c := mustCache(t, Config{MaxEntries: 4})
	c.NoteObserve("m", 10*width)
	reqAt := func(i int) store.QueryRequest {
		return store.QueryRequest{Metric: "m", Key: "k", From: int64(i) * width, To: int64(i+1) * width}
	}
	for i := 0; i < 5; i++ {
		seen(t, c, reqAt(i))
		_, _, tok := c.Lookup(reqAt(i))
		if !tok.Cacheable() {
			t.Fatalf("req %d not cacheable", i)
		}
		c.Fill(tok, result(fmt.Sprint(i)))
	}
	if s := c.Stats(); s.Entries != 4 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 4 entries / 1 eviction", s)
	}
	if _, hit, _ := c.Lookup(reqAt(0)); hit {
		t.Fatal("oldest entry must have been evicted")
	}
	if _, hit, _ := c.Lookup(reqAt(4)); !hit {
		t.Fatal("newest entry must be resident")
	}
}

func TestRCacheTelemetry(t *testing.T) {
	c := mustCache(t, Config{})
	reg := telemetry.New()
	c.SetTelemetry(reg)

	c.NoteObserve("m", width+1)
	seen(t, c, sealedReq("m"))
	_, _, tok := c.Lookup(sealedReq("m"))
	c.Fill(tok, result("m"))
	c.Lookup(sealedReq("m"))

	rec := httptest.NewRecorder()
	telemetry.Handler(reg, false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`analytics_serve_cache_hits_total{layer="serve"} 1`,
		`analytics_serve_cache_misses_total{layer="serve"} 1`,
		`analytics_serve_cache_entries{layer="serve"} 1`,
		`analytics_serve_cache_hit_ratio{layer="serve"} 0.5`,
		`analytics_serve_cache_invalidations_total{layer="serve"} 1`,
		`analytics_serve_cache_evictions_total{layer="serve"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\n%s", want, body)
		}
	}
}

func TestRCacheHitRatioZeroBeforeLookups(t *testing.T) {
	c := mustCache(t, Config{})
	if r := c.HitRatio(); r != 0 {
		t.Fatalf("HitRatio before lookups = %v, want 0", r)
	}
}

func TestRCacheRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without BucketWidth must fail")
	}
}

// The shard count follows the budget: the most shards, up to 16, that
// leave each at least 256 entries.
func TestRCacheShardCount(t *testing.T) {
	for _, tc := range []struct{ max, shards, total int }{
		{0, 16, 4096}, {4096, 16, 4096}, {8192, 16, 8192}, {1000, 2, 1000},
		{512, 2, 512}, {511, 1, 511}, {64, 1, 64}, {4, 1, 4},
	} {
		c := mustCache(t, Config{MaxEntries: tc.max})
		if len(c.shard) != tc.shards || c.cfg.MaxEntries != tc.total {
			t.Errorf("MaxEntries %d: %d shards holding %d, want %d holding %d",
				tc.max, len(c.shard), c.cfg.MaxEntries, tc.shards, tc.total)
		}
	}
}

func TestRCacheConcurrency(t *testing.T) {
	c := mustCache(t, Config{MaxEntries: 64})
	c.NoteObserve("m", 100*width)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 3 {
				case 0:
					c.NoteObserve("m", int64(i%10)*width) // mix of late writes
				default:
					req := store.QueryRequest{Metric: "m", Key: "k",
						From: int64(i%8) * width, To: int64(i%8+1) * width}
					if res, hit, tok := c.Lookup(req); hit {
						_ = res
					} else {
						c.Fill(tok, result("m"))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Stats() // must not race with anything above
}

// Dashboard-shaped traffic: one panel invalidated and refilled forever,
// far below the shard budget where eviction never runs. Each stale drop
// and refill must unlink the key's old place in the fill order, which
// holds exactly the resident entries.
func TestRCacheRefillKeepsRingBounded(t *testing.T) {
	c := mustCache(t, Config{MaxEntries: 4})
	c.NoteObserve("m", 10*width)
	req := sealedReq("m")
	for i := 0; i < 10000; i++ {
		c.NoteObserve("m", 5) // late write: the cached answer goes stale
		_, hit, tok := c.Lookup(req)
		if hit {
			t.Fatal("stale entry served")
		}
		c.Fill(tok, result("m"))
	}
	sh := &c.shard[0]
	if c.Len() != 1 || sh.order.Len() != c.Len() {
		t.Fatalf("%d entries, fill order of %d elements", c.Len(), sh.order.Len())
	}
}

// FIFO follows the latest fill: a key refilled after a stale drop goes to
// the back of the fill order, so the next eviction takes the oldest other
// entry — never the fresh refill.
func TestRCacheRefillMovesToBack(t *testing.T) {
	c := mustCache(t, Config{MaxEntries: 2})
	for _, m := range []string{"a", "b", "c"} {
		c.NoteObserve(m, 10*width)
	}
	fill := func(m string) {
		t.Helper()
		seen(t, c, sealedReq(m))
		_, hit, tok := c.Lookup(sealedReq(m))
		if hit || !tok.Cacheable() {
			t.Fatalf("%s: hit=%v cacheable=%v, want a cacheable miss", m, hit, tok.Cacheable())
		}
		c.Fill(tok, result(m))
	}
	fill("a")
	fill("b")
	c.NoteObserve("a", 5) // a goes stale; its refill sweeps it
	fill("a")             // refilled: now the newest
	fill("c")             // evicts the oldest live entry: b
	if _, hit, _ := c.Lookup(sealedReq("a")); !hit {
		t.Fatal("the refilled entry was evicted through its stale slot")
	}
	if _, hit, _ := c.Lookup(sealedReq("b")); hit {
		t.Fatal("the oldest entry survived the eviction")
	}
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
}

// Stats.Bytes and analytics_serve_cache_bytes sum the resident answers'
// Synopsis.Bytes, in the form each is held, through fill, refill,
// eviction and sweep.
func TestRCacheBytes(t *testing.T) {
	c := mustCache(t, Config{MaxEntries: 2})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	proto, err := store.NewFreqProto(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sized := func(m string, items int) (store.QueryResult, int) {
		syn := proto.New()
		for i := 0; i < items; i++ {
			syn.Observe(fmt.Sprint(i), 1)
		}
		return store.NewQueryResult([]store.Answer{store.NewAnswer(m, "k", syn), store.NewAnswer(m, "nil", nil)}), syn.Bytes()
	}
	fill := func(m string, items int) int {
		t.Helper()
		seen(t, c, sealedReq(m))
		_, _, tok := c.Lookup(sealedReq(m))
		res, n := sized(m, items)
		c.Fill(tok, res)
		return n
	}
	for _, m := range []string{"a", "b", "c"} {
		c.NoteObserve(m, 10*width)
	}
	na := fill("a", 3)
	nb := fill("b", 5)
	if got := c.Stats().Bytes; got != na+nb {
		t.Fatalf("bytes %d after two fills, want %d", got, na+nb)
	}
	c.NoteObserve("a", 5)
	na = fill("a", 1) // the refill sweeps the stale a out first
	if got := c.Stats().Bytes; got != nb+na {
		t.Fatalf("bytes %d after a refill, want %d", got, nb+na)
	}
	nc := fill("c", 2) // evicts b
	if got := c.Stats().Bytes; got != na+nc {
		t.Fatalf("bytes %d after an eviction, want %d", got, na+nc)
	}
	c.NoteObserve("a", 5) // a goes stale, and no lookup comes for it
	nb = fill("b", 4)     // the fill sweeps a out: room without an eviction
	if s := c.Stats(); s.Bytes != nc+nb || s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v after a sweep, want %d bytes in 2 entries and 1 eviction", s, nc+nb)
	}
	rec := httptest.NewRecorder()
	telemetry.Handler(reg, false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf(`analytics_serve_cache_bytes{layer="serve"} %d`, nc+nb); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("scrape missing %q\n%s", want, rec.Body.String())
	}
}

// P dashboard panels over a real store slide one bucket with every
// roll, and each is refilled once per roll. The roll leaves every
// panel's old absolute range stale, and no lookup ever asks for it
// again: the first fill after the roll sweeps it out, so the cache holds
// the P live answers and not R×P. Stats.Bytes is the live answers'
// bytes, and every hit is the backend's answer byte for byte. One shard
// (a budget under 512) makes the bound exact: a shard sweeps at its own
// next fill, and with many shards one that no panel lands in after a
// roll keeps its stale entries until one does.
func TestRCacheSlidingPanelsStayResident(t *testing.T) {
	const panels, rolls, perBucket = 12, 10, 16
	st, err := store.New(store.Config{Shards: 4, BucketWidth: width, RingBuckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	uniq, _ := store.NewDistinctProto(8, 1)
	hits, _ := store.NewFreqProto(64, 2, 1)
	for name, proto := range map[string]store.Prototype{"u": uniq, "h": hits} {
		if err := st.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	c := mustCache(t, Config{MaxEntries: 256})
	bucket := int64(0)
	roll := func() { // one bucket of writes, then the next one opens
		var batch []store.Observation
		for i := 0; i < perBucket; i++ {
			now := bucket*width + int64(i)
			key := fmt.Sprint("k", i%panels)
			batch = append(batch,
				store.Observation{Metric: "u", Key: key, Item: fmt.Sprint("user-", bucket*perBucket+int64(i)), Time: now},
				store.Observation{Metric: "h", Key: key, Item: key, Value: 1, Time: now})
		}
		bucket++
		batch = append(batch, store.Observation{Metric: "u", Key: "k0", Item: "x", Time: bucket * width},
			store.Observation{Metric: "h", Key: "k0", Item: "k0", Value: 1, Time: bucket * width})
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, o := range batch { // write, then bump, as the serving edge does
			c.NoteObserve(o.Metric, o.Time)
		}
	}
	panel := func(p int) store.QueryRequest {
		span := int64(2 + p%3)
		req := store.QueryRequest{Metric: "u", Key: fmt.Sprint("k", p), From: (bucket - span) * width, To: bucket * width}
		if p%4 == 3 {
			req = store.QueryRequest{Metric: "h", Keys: []string{fmt.Sprint("k", p), fmt.Sprint("k", p-1)},
				Aggregate: true, From: (bucket - span) * width, To: bucket * width}
		}
		return req
	}
	encode := func(res store.QueryResult) []byte {
		var b []byte
		for _, a := range res.Answers() {
			b = append(b, a.Metric...)
			b = append(b, a.Key...)
			var err error
			if b, err = a.Raw().AppendBinary(b); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	for range 4 {
		roll()
	}
	live := make([]int, panels) // each panel's latest answer bytes
	for r := 0; r < rolls; r++ {
		roll()
		// Three asks a panel: a first ask after the roll misses (its fill
		// is declined in round 0, before the doorkeeper knows the shape),
		// and by the third every panel hits.
		for ask := 0; ask < 3; ask++ {
			for p := 0; p < panels; p++ {
				req := panel(p)
				res, hit, tok := c.Lookup(req)
				fresh, err := st.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if hit {
					if !bytes.Equal(encode(res), encode(fresh)) {
						t.Fatalf("roll %d: panel %d hit an answer that differs from the backend's", r, p)
					}
					continue
				}
				if ask == 2 {
					t.Fatalf("roll %d: panel %d missed on its third ask", r, p)
				}
				c.Fill(tok, fresh)
				live[p] = 0
				for _, a := range fresh.Answers() {
					live[p] += a.Raw().Bytes()
				}
			}
		}
		s := c.Stats()
		want := 0
		for _, n := range live {
			want += n
		}
		if s.Entries > panels || s.Bytes != want || s.Evictions != 0 {
			t.Fatalf("after roll %d: %d entries holding %d bytes, %d evictions; want at most %d entries holding %d bytes, none evicted",
				r, s.Entries, s.Bytes, s.Evictions, panels, want)
		}
	}
}

// Writers roll two metrics forward (and now and then write late) while
// readers look up and fill sliding panels. Once the writers stop, one
// fill in every shard leaves no resident entry with a stale stamp: a
// version bump that raced a sweep or a fill's store moved the
// invalidation count past the shard's mark.
func TestRCacheSweepRacesRolls(t *testing.T) {
	c := mustCache(t, Config{}) // 16 shards
	metrics := []string{"m", "n"}
	for _, m := range metrics {
		c.NoteObserve(m, 10*width)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := range metrics {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			for b := int64(11); b < 400; b++ {
				c.NoteObserve(m, b*width)
				if b%7 == 0 {
					c.NoteObserve(m, (b-3)*width) // a late write
				}
			}
			stop.Store(true)
		}(metrics[w])
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load() || i < 200; i++ {
				m := metrics[i%2]
				to := c.peek(m).open.Load() * width
				req := store.QueryRequest{Metrics: []string{m}, Key: fmt.Sprint("k", i%24),
					From: to - int64(1+i%3)*width, To: to}
				if i%5 == 0 {
					req.Metrics = metrics
				}
				if _, hit, tok := c.Lookup(req); !hit {
					c.Fill(tok, result(m))
				}
			}
		}(g)
	}
	wg.Wait()
	// One fill per shard, with tokens for the quiesced versions.
	filled := make([]bool, len(c.shard))
	for i, left := 0, len(c.shard); left > 0; i++ {
		req := store.QueryRequest{Metric: "m", Key: fmt.Sprint("quiet-", i), From: 0, To: width}
		seen(t, c, req)
		_, hit, tok := c.Lookup(req)
		if hit || !tok.admit {
			t.Fatalf("quiesced probe %d: hit=%v admitted=%v", i, hit, tok.admit)
		}
		if !filled[tok.idx] {
			filled[tok.idx] = true
			left--
		}
		c.Fill(tok, result("m"))
	}
	resident := 0
	for i := range c.shard {
		sh := &c.shard[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !c.current(e.metrics, e.stamp) {
				t.Errorf("shard %d: %s stays resident with a stale stamp", i, e.key)
			}
		}
		resident += len(sh.entries)
		if sh.order.Len() != len(sh.entries) {
			t.Errorf("shard %d: %d entries, fill order of %d", i, len(sh.entries), sh.order.Len())
		}
		sh.mu.Unlock()
	}
	if s := c.Stats(); s.Entries != resident || s.Evictions != 0 {
		t.Fatalf("stats %+v, want %d resident and no evictions", s, resident)
	}
}
