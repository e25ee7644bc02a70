package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/serve"
)

func mustPlan(t *testing.T, name string, seed uint64, rounds int) *plan {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p, err := buildPlan(s, seed, rounds, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, s := range specs {
		a := mustPlan(t, s.name, 1, 2).sequenceHash()
		if b := mustPlan(t, s.name, 1, 2).sequenceHash(); a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", s.name, a, b)
		}
		if c := mustPlan(t, s.name, 2, 2).sequenceHash(); a == c {
			t.Errorf("%s: seeds 1 and 2 share hash %s", s.name, a)
		}
	}
}

func TestSplicedBodyEqualsMarshal(t *testing.T) {
	p := mustPlan(t, "ingest_zipf", 1, 1)
	for _, tm := range []int64{100000, 123456, 999999} {
		b := p.bodies[7]
		b.setTime(tm)
		want, err := json.Marshal(serve.ObserveRequest{Observations: observations(b.events, tm)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.json(), want) {
			t.Fatalf("time %d: spliced body differs from json.Marshal of the same batch", tm)
		}
		head := httpHead("/v1/observe", len(want))
		if !bytes.Equal(b.wire[:b.bodyOff], head) {
			t.Fatalf("time %d: request head %q, want %q", tm, b.wire[:b.bodyOff], head)
		}
	}
}

func TestWriteStreamTimeFollowsPosition(t *testing.T) {
	p := mustPlan(t, "dashboard", 1, 3)
	last := int64(0)
	for i, w := range p.stream {
		if w.body != i%bodyPool {
			t.Fatalf("write %d uses body %d, want %d", i, w.body, i%bodyPool)
		}
		if b := w.time / bucketWidth; b < last {
			t.Fatalf("write %d goes back from bucket %d to %d", i, last, b)
		} else {
			last = b
		}
	}
	// One roll per round and per warm-up, after the preload and its opener.
	if got, want := len(p.bucketStart), p.spec.preloadBuckets+1+1+3; got != want {
		t.Fatalf("plan rolled %d buckets, want %d", got, want)
	}
}

func TestRangeScanNeverRepeats(t *testing.T) {
	p := mustPlan(t, "range_scan", 1, 10)
	seen := map[string]bool{}
	kinds := map[string]int{}
	n := 0
	for _, rd := range append([]round{p.warm}, p.rounds...) {
		for c := range rd.conns {
			for _, r := range rd.conns[c].reqs {
				if seen[string(r.wire)] {
					t.Fatalf("query repeated: %s", r.wire)
				}
				seen[string(r.wire)] = true
				kinds[r.query.Metrics[0]]++
				n++
				span := (r.query.To - r.query.From) / bucketWidth
				if r.query.From < baseBucket*bucketWidth || r.query.To > int64(baseBucket+p.spec.preloadBuckets)*bucketWidth {
					t.Fatalf("query [%d,%d) leaves the sealed history", r.query.From, r.query.To)
				}
				if lo, hi := int64(48), int64(80); r.query.Aggregate {
					if span < 24 || span > 40 || len(r.query.Keys) != 8 {
						t.Fatalf("aggregate over %d buckets and %d keys", span, len(r.query.Keys))
					}
				} else if span < lo || span > hi {
					t.Fatalf("single-key scan over %d buckets", span)
				}
			}
		}
	}
	if kinds["uniques"]*10 != n*7 || kinds["page-hits"]*10 != n*2 || kinds["latency-us"]*10 != n {
		t.Fatalf("mix %v of %d is not 70/20/10", kinds, n)
	}
}

func TestPanelsRefreshOnceThenRepeat(t *testing.T) {
	const n, panels = 2000, dashboardPanels
	firsts := map[int]int{}
	touched := map[int]bool{}
	for i := 0; i < n; i++ {
		p, first := panelAt(i, n, panels)
		if first {
			firsts[p]++
		} else if !touched[p] {
			t.Fatalf("query %d revisits panel %d before its first refresh", i, p)
		}
		touched[p] = true
	}
	if len(firsts) != panels {
		t.Fatalf("%d panels refreshed, want %d", len(firsts), panels)
	}
	for p, c := range firsts {
		if c != 1 {
			t.Fatalf("panel %d refreshed %d times", p, c)
		}
	}
}

// fakeClock advances only when slept on or when a request "runs".
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	// Request 3 stalls for 35 ms; every other one takes 1 ms.
	res, err := pace(clk, start, 0, interval, 8, func(k int) error {
		d := time.Millisecond
		if k == 3 {
			d = 35 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	for k := 0; k < 3; k++ {
		if !near(res.lateMs[k], 0) || !near(res.latMs[k], 1) {
			t.Fatalf("request %d: late %.3f lat %.3f, want 0 and 1", k, res.lateMs[k], res.latMs[k])
		}
	}
	// Request 4 was due while 3 was stalled: it is sent the moment 3 ends
	// and its latency counts the wait, not just its own millisecond.
	end3 := dueAt(3, interval) + 35*time.Millisecond
	wantLate := ms(end3 - dueAt(4, interval))
	if !near(res.lateMs[4], wantLate) || !near(res.latMs[4], wantLate+1) {
		t.Fatalf("request 4: late %.3f lat %.3f, want %.3f and %.3f", res.lateMs[4], res.latMs[4], wantLate, wantLate+1)
	}
	if res.growing(interval, 8) {
		t.Fatalf("one stall the schedule absorbed was flagged as a growing backlog: %+v", res)
	}
}

func TestPaceFlagsGrowingBacklog(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	res, err := pace(clk, clk.now, 0, interval, 100, func(int) error {
		clk.now = clk.now.Add(12 * time.Millisecond) // slower than the schedule
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.growing(interval, 100) {
		t.Fatalf("service slower than the schedule was not flagged: elapsed %v backlog %d", res.elapsed, res.backlog)
	}
	if res.backlog < 2 {
		t.Fatalf("backlog %d at the end of the schedule, want several unsent", res.backlog)
	}
}

func TestDueTimesStayOrdered(t *testing.T) {
	for _, iv := range []time.Duration{time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond} {
		prev := time.Duration(-1)
		for k := 0; k < 5000; k++ {
			d := dueAt(k, iv)
			if d < prev {
				t.Fatalf("interval %v: request %d due before its predecessor", iv, k)
			}
			if off := d - time.Duration(k)*iv; off < 0 || off >= min(iv, time.Millisecond) {
				t.Fatalf("interval %v: request %d dithered by %v", iv, k, off)
			}
			prev = d
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 11, 13, 15, 17, 19}
	if got := median(xs); got != 10 {
		t.Errorf("median %v, want 10", got)
	}
	if got := percentile(xs, 0.95); math.Abs(got-18.1) > 1e-9 {
		t.Errorf("p95 %v, want 18.1", got)
	}
	// statistics.quantiles([1,3,...,19], n=4) == [4.5, 10.0, 15.5]
	q1, q3 := quartiles(xs)
	if q1 != 4.5 || q3 != 15.5 {
		t.Errorf("quartiles %v %v, want 4.5 15.5", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("spread %v, want 1.1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three %v %v, want 1 4", q1, q3)
	}
	if percentile(nil, 0.5) != 0 || spread(nil) != 0 || quiet(nil) != 0 {
		t.Error("empty samples must answer 0")
	}
	// The quiet value is the mean of the lowest tenth: of 40 windows the
	// four fastest, however slow the disturbed ones were.
	windows := make([]float64, 40)
	for i := range windows {
		windows[i] = 2 + float64(i%7)
	}
	windows[3], windows[11], windows[20], windows[38] = 1.0, 1.1, 1.2, 1.3
	if got := quiet(windows); math.Abs(got-1.15) > 1e-9 {
		t.Errorf("quiet %v, want 1.15", got)
	}
	if got := quiet([]float64{5, 3, 4}); got != 3 {
		t.Errorf("quiet of three %v, want the minimum", got)
	}
}

func TestParseMetricsSumsFamilies(t *testing.T) {
	set := parseMetrics([]byte(`# HELP x y
analytics_store_bytes{layer="dstore",node="node-0"} 100
analytics_store_bytes{layer="dstore",node="node-1"} 28
analytics_store_bytes_total 5
analytics_serve_cache_hit_ratio{layer="serve"} 0.92
`))
	if got := set.sum("analytics_store_bytes"); got != 128 {
		t.Errorf("sum over nodes %v, want 128", got)
	}
	if got := set.sum("analytics_serve_cache_hit_ratio"); got != 0.92 {
		t.Errorf("hit ratio %v", got)
	}
}

func TestPauseSinceReadsTheRing(t *testing.T) {
	ring := make([]uint64, 256)
	ring[0], ring[1], ring[2] = 10, 20, 30 // cycles 1..3
	before := memStats{NumGC: 1}
	after := memStats{NumGC: 3, PauseNs: ring}
	if got := after.pauseSince(before); got != 50 {
		t.Errorf("pause over cycles 2 and 3 = %v, want 50ns", got)
	}
}
