package rcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// ask looks req up and, on a miss, fills the tagged result, as the
// serving edge does. It reports whether the lookup hit.
func ask(c *Cache, req store.QueryRequest, tag string) bool {
	_, hit, tok := c.Lookup(req)
	if !hit {
		c.Fill(tok, result(tag))
	}
	return hit
}

// A request asked once never costs a resident answer: every fill is
// declined and counted.
func TestRCacheDoorkeeperOneTimeNeverResident(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", 1000*width)
	const n = 500
	for i := 0; i < n; i++ {
		req := store.QueryRequest{Metric: "m", Key: fmt.Sprint("k", i%7),
			From: int64(i) * width, To: int64(i+1+i%5) * width}
		if ask(c, req, "m") {
			t.Fatalf("request %d hit", i)
		}
	}
	if s := c.Stats(); s.Entries != 0 || s.Declined != n || s.Misses != n || s.Bytes != 0 {
		t.Fatalf("stats = %+v, want 0 entries and %d declined misses", s, n)
	}
}

// A repeated absolute request is filled on its second ask and served
// from the cache from its third.
func TestRCacheDoorkeeperFillsOnSecondAsk(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", 10*width)
	req := store.QueryRequest{Metric: "m", Key: "k", From: 2 * width, To: 5 * width}
	if ask(c, req, "m") || c.Len() != 0 {
		t.Fatalf("first ask: want a declined miss, %d resident", c.Len())
	}
	if ask(c, req, "m") || c.Len() != 1 {
		t.Fatalf("second ask: want an admitted miss, %d resident", c.Len())
	}
	res, hit, _ := c.Lookup(req)
	if !hit || res.Answers()[0].Metric != "m" {
		t.Fatal("third ask: want a hit on the filled answer")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 || s.Declined != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 1 declined", s)
	}
}

// A dashboard panel — the last few sealed buckets — slides forward one
// bucket with every roll but keeps its shape, so after the roll it is
// admitted on its first ask. The same absolute range asked after the
// roll lags the frontier by one bucket more: a new shape.
func TestRCachePanelAdmittedAfterRoll(t *testing.T) {
	c := mustCache(t, Config{})
	for _, m := range []string{"a", "b"} {
		c.NoteObserve(m, 10*width)
	}
	panel := func() store.QueryRequest {
		open := c.peek("a").open.Load() * width
		return store.QueryRequest{Metrics: []string{"a", "b"}, Keys: []string{"x", "y"},
			Aggregate: true, From: open - 4*width, To: open}
	}
	before := panel()
	for i, wantHit := range []bool{false, false, true} {
		if hit := ask(c, before, "panel"); hit != wantHit {
			t.Fatalf("ask %d before the roll: hit=%v, want %v", i+1, hit, wantHit)
		}
	}
	for _, m := range []string{"a", "b"} {
		c.NoteObserve(m, 11*width) // the roll: bucket 10 seals
	}
	after := panel()
	_, hit, tok := c.Lookup(after)
	if hit || !tok.admit {
		t.Fatalf("first ask after the roll: hit=%v admitted=%v, want an admitted miss", hit, tok.admit)
	}
	c.Fill(tok, result("panel"))
	if !ask(c, after, "panel") {
		t.Fatal("second ask after the roll must hit")
	}
	if _, hit, tok := c.Lookup(before); hit || tok.admit {
		t.Fatalf("the old absolute range after the roll: hit=%v admitted=%v, want a declined miss", hit, tok.admit)
	}
}

// The doorkeeper remembers a shape for one to two generations of
// MaxEntries new shapes, then forgets it.
func TestRCacheDoorkeeperForgets(t *testing.T) {
	const budget = 64
	c := mustCache(t, Config{MaxEntries: budget})
	c.NoteObserve("m", 10*width)
	req := func(key string) store.QueryRequest {
		return store.QueryRequest{Metric: "m", Key: key, From: 0, To: width}
	}
	others := 0
	askOthers := func(n int) {
		for i := 0; i < n; i++ {
			c.Lookup(req(fmt.Sprint("other-", others)))
			others++
		}
	}
	c.Lookup(req("recent"))
	c.Lookup(req("old"))
	askOthers(budget / 2)
	if _, _, tok := c.Lookup(req("recent")); !tok.admit {
		t.Fatal("a shape asked half a generation ago was forgotten")
	}
	askOthers(2 * budget)
	if _, _, tok := c.Lookup(req("old")); tok.admit {
		t.Fatal("a shape asked two generations ago is still remembered")
	}
}

// Lookup, Fill and NoteObserve from many goroutines, with the
// doorkeeper turning over generations underneath: every hit answers
// its own request's payload, and the budget holds.
func TestRCacheDoorkeeperConcurrency(t *testing.T) {
	c := mustCache(t, Config{MaxEntries: 32})
	for _, m := range []string{"m", "n"} {
		c.NoteObserve(m, 100*width)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m := "m"
				if i%2 == 1 {
					m = "n"
				}
				switch i % 5 {
				case 0:
					c.NoteObserve(m, int64(i%100)*width) // late writes, now and then an advance
				default:
					// Half the requests repeat across goroutines, half are
					// one-time shapes that churn the doorkeeper.
					key := fmt.Sprint("k", i%6)
					if i%3 == 0 {
						key = fmt.Sprint("once-", g, "-", i)
					}
					req := store.QueryRequest{Metric: m, Key: key, From: int64(i%4) * width, To: int64(i%4+1) * width}
					tag := fmt.Sprint(m, key, i%4)
					res, hit, tok := c.Lookup(req)
					if !hit {
						c.Fill(tok, result(tag))
					} else if got := res.Answers()[0].Metric; got != tag {
						t.Errorf("request %s answered %s", tag, got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 32 || s.Hits == 0 || s.Declined == 0 {
		t.Fatalf("stats = %+v, want at most 32 entries, some hits and some declined fills", s)
	}
}

// The key is rendered by appending, not by fmt, yet stays the bytes
// fmt's "%q|%q|%d|%d|%t" rendered, separators, quotes and control
// characters in names included.
func TestRCacheKeyMatchesFmt(t *testing.T) {
	for _, req := range []store.QueryRequest{
		{Metrics: []string{"m"}, Keys: []string{"k"}, From: 0, To: 100},
		{Metrics: []string{"a|b", "c"}, Keys: []string{"x|y", "z"}, From: -5, To: 7, Aggregate: true},
		{Metrics: []string{`q"uote`}, Keys: []string{`back\slash`, "new\nline", "tab\tbell\a"}, From: 1, To: 2},
		{Metrics: []string{"é", " ", "\xff"}, Keys: []string{"", " "}, From: -1 << 62, To: 1<<63 - 1},
		{Metrics: []string{"m"}, Keys: nil, From: 3, To: 4, Aggregate: true},
		{Metrics: []string{"] [", `"|"`}, Keys: []string{`["k"]`}, From: 0, To: 1},
	} {
		want := fmt.Sprintf("%q|%q|%d|%d|%t", req.Metrics, req.Keys, req.From, req.To, req.Aggregate)
		if got, _ := appendKey(nil, req, req.To); string(got) != want {
			t.Errorf("key\n%s\nfmt\n%s", got, want)
		}
	}
}

// The doorkeeper's hash follows the shape, not the absolute range:
// the same span at the same lag behind its own frontier is one shape;
// a different lag, span, key set or aggregate flag is another.
func TestRCacheShapeIsFrontierRelative(t *testing.T) {
	base := store.QueryRequest{Metrics: []string{"m"}, Keys: []string{"k"}, From: 100, To: 300}
	shape := func(req store.QueryRequest, frontier int64) uint64 {
		_, h := appendKey(nil, req, frontier)
		return h
	}
	h := shape(base, 500)
	slid := base
	slid.From, slid.To = 200, 400
	if shape(slid, 600) != h {
		t.Fatal("a range slid with its frontier changed shape")
	}
	agg := base
	agg.Aggregate = true
	keys := base
	keys.Keys = []string{"k", "l"}
	wider := base
	wider.From = 0
	for name, other := range map[string]uint64{
		"lag":       shape(base, 600),
		"aggregate": shape(agg, 500),
		"keys":      shape(keys, 500),
		"span":      shape(wider, 500),
	} {
		if other == h {
			t.Errorf("a different %s kept the shape", name)
		}
	}
}

// A lookup allocates nothing beyond the request's normalization on a
// hit or on a miss the doorkeeper declines.
func TestRCacheLookupAllocs(t *testing.T) {
	c := mustCache(t, Config{})
	c.NoteObserve("m", 1<<20*width)
	hot := store.QueryRequest{Metric: "m", Key: "k", From: 0, To: width}
	seen(t, c, hot)
	_, _, tok := c.Lookup(hot)
	c.Fill(tok, result("m"))
	norm := testing.AllocsPerRun(100, func() { hot.Normalize() })
	if got := testing.AllocsPerRun(100, func() { c.Lookup(hot) }); got > norm {
		t.Errorf("a hit allocates %v, normalization alone %v", got, norm)
	}
	i := int64(0)
	got := testing.AllocsPerRun(100, func() {
		i++ // a new lag every run: never admitted
		c.Lookup(store.QueryRequest{Metric: "m", Key: "k", From: i * width, To: (i + 1) * width})
	})
	if got > norm {
		t.Errorf("a declined miss allocates %v, normalization alone %v", got, norm)
	}
	if s := c.Stats(); s.Hits < 100 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want the hot entry alone and its hits", s)
	}
}
