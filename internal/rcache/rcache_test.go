package rcache

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
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

func TestRCacheMissFillHit(t *testing.T) {
	c := mustCache(t, Config{})
	// Writes in buckets 0 and 1: bucket 0 is sealed once bucket 1 opens.
	c.NoteObserve("m", 10)
	c.NoteObserve("m", width+10)

	req := sealedReq("m")
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
	_, _, ta := c.Lookup(sealedReq("a"))
	c.Fill(ta, result("a"))
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
	c := mustCache(t, Config{Shards: 1, MaxEntries: 4})
	c.NoteObserve("m", 10*width)
	reqAt := func(i int) store.QueryRequest {
		return store.QueryRequest{Metric: "m", Key: "k", From: int64(i) * width, To: int64(i+1) * width}
	}
	for i := 0; i < 5; i++ {
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

func TestRCacheConcurrency(t *testing.T) {
	c := mustCache(t, Config{Shards: 4, MaxEntries: 64})
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
// plus refill used to leave one more ring slot (each pinning its key
// string); the ring must stay within twice the budget.
func TestRCacheRefillKeepsRingBounded(t *testing.T) {
	c := mustCache(t, Config{Shards: 1, MaxEntries: 4})
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
	if c.Len() != 1 || len(sh.order) > 2*c.perShard() {
		t.Fatalf("%d entries, ring of %d slots for a budget of %d", c.Len(), len(sh.order), c.perShard())
	}
}

// FIFO follows the latest fill: a key refilled after a stale drop goes to
// the back of the ring, so the next eviction takes the oldest other
// entry — never the fresh refill through the key's earlier, dead slot.
func TestRCacheRefillMovesToBack(t *testing.T) {
	c := mustCache(t, Config{Shards: 1, MaxEntries: 2})
	for _, m := range []string{"a", "b", "c"} {
		c.NoteObserve(m, 10*width)
	}
	fill := func(m string) {
		t.Helper()
		_, hit, tok := c.Lookup(sealedReq(m))
		if hit || !tok.Cacheable() {
			t.Fatalf("%s: hit=%v cacheable=%v, want a cacheable miss", m, hit, tok.Cacheable())
		}
		c.Fill(tok, result(m))
	}
	fill("a")
	fill("b")
	c.NoteObserve("a", 5) // a goes stale; its lookup drops it
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
// stale drop and eviction.
func TestRCacheBytes(t *testing.T) {
	c := mustCache(t, Config{Shards: 1, MaxEntries: 2})
	reg := telemetry.New()
	c.SetTelemetry(reg)
	proto, err := store.NewFreqProto(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sized := func(m string, items int) (store.QueryResult, int) {
		syn := proto()
		for i := 0; i < items; i++ {
			syn.Observe(fmt.Sprint(i), 1)
		}
		return store.NewQueryResult([]store.Answer{store.NewAnswer(m, "k", syn), store.NewAnswer(m, "nil", nil)}), syn.Bytes()
	}
	fill := func(m string, items int) int {
		t.Helper()
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
	c.Lookup(sealedReq("a")) // stale drop
	if got := c.Stats().Bytes; got != nb {
		t.Fatalf("bytes %d after a stale drop, want %d", got, nb)
	}
	na = fill("a", 1)
	nc := fill("c", 2) // evicts b
	if got := c.Stats().Bytes; got != na+nc {
		t.Fatalf("bytes %d after an eviction, want %d", got, na+nc)
	}
	rec := httptest.NewRecorder()
	telemetry.Handler(reg, false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf(`analytics_serve_cache_bytes{layer="serve"} %d`, na+nc); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("scrape missing %q\n%s", want, rec.Body.String())
	}
}
