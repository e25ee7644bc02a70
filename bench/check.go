package main

import (
	"fmt"
	"math"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Router buffers hold up to BatchSize-1 = 63 records per partition and
// nothing flushes them over HTTP, so on the cluster backend that many
// acknowledged observations per partition (4) may stay invisible.
const clusterSlack = 4 * 63

// check runs the answer checks at the end of a socket run. Any failure
// withholds the metrics: the caller exits non-zero without a result.
func check(l *live, p *plan, out *outcome) error {
	for _, t := range l.tallies {
		if t.failed > 0 {
			return fmt.Errorf("check: %d of %d operations failed, first: %s", t.failed, t.attempted, t.firstFailure)
		}
	}
	ly := out.layer
	if ly["serve.errors"] != 0 {
		return fmt.Errorf("check: the daemon counted %v non-2xx answers", ly["serve.errors"])
	}
	if ly["store.dropped_late"] != 0 {
		return fmt.Errorf("check: the store dropped %v late observations", ly["store.dropped_late"])
	}
	if ly["analyticsd.rss_mb"] > rssLimitMB {
		return fmt.Errorf("check: daemon RSS %.0f MB exceeds the %d MB small-state limit", ly["analyticsd.rss_mb"], rssLimitMB)
	}
	if err := checkItems(l, p); err != nil {
		return err
	}
	if err := checkUniques(l, p); err != nil {
		return err
	}
	return checkCache(l, p, ly)
}

// checkItems compares, per metric, the items over the full time range
// with the exact count of acknowledged observations.
func checkItems(l *live, p *plan) error {
	want := uint64(l.writesAcked() * eventsPerReq)
	for _, metric := range demoMetrics {
		var qr serve.QueryResponse
		err := l.d.post("/v1/query", serve.QueryRequest{
			Metrics: []string{metric}, AllKeys: true, Aggregate: true,
			From: p.firstTime, To: p.lastTime,
		}, &qr)
		if err != nil {
			return fmt.Errorf("check: items of %s: %w", metric, err)
		}
		var got uint64
		for _, a := range qr.Answers {
			got += a.Items
		}
		lo := want
		if p.spec.backend == "cluster" {
			lo = want - min(want, clusterSlack)
		}
		if got < lo || got > want {
			return fmt.Errorf("check: %s holds %d items, %d observations were acknowledged (allowed shortfall %d)",
				metric, got, want, want-lo)
		}
	}
	return nil
}

// checkUniques compares the daemon's distinct-user estimate with the
// generator's exact count on 16 sampled (page, bucket range) cells.
func checkUniques(l *live, p *plan) error {
	if len(p.stream) == 0 {
		return nil
	}
	rng := workload.NewRNG(p.seed*0x9e3779b97f4a7c15 + 4)
	first := p.firstTime / bucketWidth
	// The newest bucket is left out: on the cluster its last records may
	// still sit in a router buffer.
	buckets := int(p.stream[len(p.stream)-1].time/bucketWidth - first)
	if buckets < 1 {
		buckets = 1
	}
	for i := 0; i < 16; i++ {
		page := rng.Intn(8) // the hot pages: cells with enough users to estimate
		span := 1 + rng.Intn(min(8, buckets))
		from := first + int64(rng.Intn(buckets-span+1))
		lo, hi := from*bucketWidth, (from+int64(span))*bucketWidth
		exact := map[uint32]struct{}{}
		for _, w := range p.stream[:l.writesAcked()] {
			if w.time < lo || w.time >= hi {
				continue
			}
			for _, e := range p.bodies[w.body].events {
				if int(e.page) == page {
					exact[e.user] = struct{}{}
				}
			}
		}
		var qr serve.QueryResponse
		err := l.d.post("/v1/query", serve.QueryRequest{
			Metrics: []string{"uniques"}, Keys: []string{pageKey(page)}, From: lo, To: hi,
		}, &qr)
		if err != nil {
			return fmt.Errorf("check: uniques cell: %w", err)
		}
		if len(qr.Answers) != 1 {
			return fmt.Errorf("check: uniques cell answered %d cells", len(qr.Answers))
		}
		got, want := float64(qr.Answers[0].Distinct), float64(len(exact))
		if math.Abs(got-want) > 0.05*want+1 {
			return fmt.Errorf("check: uniques of %s over [%d,%d) estimated %v, exact %v (over 5 %% off)",
				pageKey(page), lo, hi, got, want)
		}
	}
	return nil
}

// checkCache verifies the read cache did what the workload is built
// on: never a cached answer on range_scan; on dashboard, every answer
// for one panel in one round carries the same synopsis bytes whether it
// was a hit or a miss, and both kinds were seen.
func checkCache(l *live, p *plan, ly map[string]float64) error {
	type cell struct{ round, panel int }
	seen := map[cell]uint64{}
	hits, misses := 0, 0
	for _, t := range l.tallies {
		for _, a := range t.answers {
			switch a.req.kind {
			case kindScan:
				if a.cached {
					return fmt.Errorf("check: a range_scan answer came from the read cache")
				}
			case kindPanel:
				if a.cached {
					hits++
				} else {
					misses++
				}
				if p.spec.name != "dashboard" {
					continue
				}
				c := cell{a.round, a.req.panel}
				if h, ok := seen[c]; ok && h != a.synHash {
					return fmt.Errorf("check: panel %d answered different synopsis bytes within round %d", c.panel, c.round)
				}
				seen[c] = a.synHash
			}
		}
	}
	switch p.spec.name {
	case "range_scan":
		if ly["rcache.hit_ratio"] != 0 {
			return fmt.Errorf("check: rcache.hit_ratio is %v on range_scan, want 0", ly["rcache.hit_ratio"])
		}
	case "dashboard":
		if hits == 0 || misses == 0 {
			return fmt.Errorf("check: dashboard saw %d cached and %d uncached panel answers, want both", hits, misses)
		}
	}
	return nil
}
