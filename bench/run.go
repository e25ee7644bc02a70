package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	setupRepeats = 3   // set-up runs per invocation; setup_s is their median
	rssLimitMB   = 512 // "small state": the run fails above this
	limitMs      = 10  // latency limit at the fixed rates; the share of requests over it is reported
)

var selfPid = os.Getpid()

// metricDef names one reported metric; the lists below are the same
// ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"request_p50_ms", "ms"},
	{"server_heap_mb", "MB"},
}

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	table    io.Writer // human-readable report
}

// outcome is a finished run: every metric by name, plus the counts the
// contract's result line carries.
type outcome struct {
	attempted, failed int
	e2e               map[string]summary
	layer             map[string]float64
	hash              string
}

// live is the daemon under test with its connections and accounts.
type live struct {
	d       *daemon
	conns   []*conn
	tallies []*tally
}

func (l *live) close() {
	if l == nil {
		return
	}
	for _, c := range l.conns {
		c.close()
	}
	l.d.stop()
}

// writesAcked is how far into the write stream this daemon has got.
func (l *live) writesAcked() int {
	n := 0
	for _, t := range l.tallies {
		n += t.writesAcked
	}
	return n
}

// setUp starts a fresh daemon, preloads the sealed history over the
// socket, waits until it is applied and drives the warm-up round. Its
// wall time is one setup_s sample.
func setUp(bin string, p *plan, ackAt []time.Time) (l *live, took time.Duration, err error) {
	t0 := time.Now()
	d, err := startDaemon(bin, p.spec.backend)
	if err != nil {
		return nil, 0, err
	}
	l = &live{d: d}
	defer func() {
		if err != nil {
			l.close()
			l = nil
		}
	}()
	for c := 0; c < numConns; c++ {
		cn, err := dial(d.addr)
		if err != nil {
			return l, 0, err
		}
		l.conns = append(l.conns, cn)
		l.tallies = append(l.tallies, &tally{ackAt: ackAt})
	}
	for i := range p.preload {
		if err := l.conns[0].exchange(p, &p.preload[i], -1, l.tallies[0]); err != nil {
			return l, 0, err
		}
	}
	if err := l.settle(); err != nil {
		return l, 0, err
	}
	// The warm-up round is discarded, a backlog in it included: it is the
	// one round that touches the preloaded state cold.
	if _, err := runRound(d, l.conns, p, &p.warm, -1, warmSeconds*time.Second, l.tallies); err != nil {
		return l, 0, err
	}
	return l, time.Since(t0), nil
}

// settle waits until the cluster's nodes have applied everything the
// router appended (lag 0). The store backend applies synchronously.
func (l *live) settle() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := l.d.metrics()
		if err != nil {
			return err
		}
		if m.sum("analytics_dstore_lag") == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("bench: cluster lag did not reach 0 within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// calibrator times a fixed kernel shaped like the daemon's own work —
// JSON-decode a 256-observation body, then add 64 sketch-sized arrays
// into one — in the gap after every round. It is the machine-speed
// witness read beside a noisy set of runs: the shared reference machine
// runs memory-bound code like this up to 1.7x slower for minutes at a
// time, which an arithmetic loop hardly notices.
type calibrator struct {
	body []byte
	src  [][]uint64
}

func newCalibrator(p *plan) *calibrator {
	c := &calibrator{body: append([]byte(nil), p.bodies[0].json()...)}
	for i := 0; i < 64; i++ {
		a := make([]uint64, 4096) // one Count-Min 1024x4
		for j := range a {
			a[j] = uint64(i*j) | 1
		}
		c.src = append(c.src, a)
	}
	return c
}

func (c *calibrator) run() float64 {
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		var req struct {
			Observations []struct {
				Metric, Key, Item string
				Value             uint64
				Time              int64
			}
		}
		if err := json.Unmarshal(c.body, &req); err != nil || len(req.Observations) != obsPerReq {
			panic("bench: calibration body does not decode")
		}
	}
	for i := 0; i < 16; i++ {
		into := make([]uint64, 4096)
		for _, a := range c.src {
			for j, v := range a {
				into[j] += v
			}
		}
		calibSink += into[i]
	}
	return ms(time.Since(t0))
}

var calibSink uint64

func runWorkload(o options) (*outcome, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.workload)
	}
	if o.seconds < roundSeconds {
		return nil, fmt.Errorf("bench: --seconds %d is shorter than one %ds round", o.seconds, roundSeconds)
	}
	runtime.GOMAXPROCS(min(numConns, runtime.NumCPU()))
	p, err := buildPlan(s, o.seed, o.seconds/roundSeconds, o.trace)
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	awake, err := keepAwake(allowedCPUs())
	if err != nil {
		return nil, err
	}
	defer awake()
	out := &outcome{e2e: map[string]summary{}, layer: map[string]float64{}, hash: p.sequenceHash()}
	ackAt := make([]time.Time, p.writes)

	// Set-up, several times over; the last daemon stays for the measurement.
	var (
		l      *live
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		l.close()
		var took time.Duration
		if l, took, err = setUp(bin, p, ackAt); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer l.close()

	mem0, err := l.d.memStats(false)
	if err != nil {
		return nil, err
	}
	stopLag := func() []float64 { return nil }
	if o.trace && s.backend == "cluster" {
		stopLag = sampleLag(l.d)
	}
	var (
		rounds  []roundResult
		calibMs []float64
		cal     = newCalibrator(p)
	)
	for r := range p.rounds {
		res, err := runRound(l.d, l.conns, p, &p.rounds[r], r, roundSeconds*time.Second, l.tallies)
		if err != nil {
			stopLag()
			return nil, err
		}
		rounds = append(rounds, res)
		calibMs = append(calibMs, cal.run())
	}
	lag := stopLag()

	use, err := l.d.usage()
	if err != nil {
		return nil, err
	}
	mem1, err := l.d.memStats(false)
	if err != nil {
		return nil, err
	}
	heap, err := l.d.memStats(true)
	if err != nil {
		return nil, err
	}

	// End-to-end: every timing per window of schedule, then the quiet
	// value across windows (see quiet).
	var p50, p95, cpuPer []float64
	var all [numRoutes][]float64
	perRoute := [numRoutes]struct{ p50, p95 []float64 }{}
	var late []float64
	var wall, genCPU, steal, cpuTotal time.Duration
	measured, over := 0, 0
	for i, r := range rounds {
		var rp50, rp95, rcpu []float64
		for _, w := range r.windows {
			both := append(append([]float64(nil), w.lat[routeObserve]...), w.lat[routeQuery]...)
			rp50 = append(rp50, percentile(both, 0.50))
			rp95 = append(rp95, percentile(both, 0.95))
			rcpu = append(rcpu, ms(w.cpu)/float64(w.reqs))
			for rt := range w.lat {
				if len(w.lat[rt]) == 0 {
					continue
				}
				perRoute[rt].p50 = append(perRoute[rt].p50, percentile(w.lat[rt], 0.50))
				perRoute[rt].p95 = append(perRoute[rt].p95, percentile(w.lat[rt], 0.95))
				all[rt] = append(all[rt], w.lat[rt]...)
			}
			for _, l := range both {
				if l > limitMs {
					over++
				}
			}
			cpuTotal += w.cpu
			measured += w.reqs
		}
		fmt.Fprintf(os.Stderr, "round %2d: %v  per window p50 %s ms  p95 %s ms  cpu %s ms/req  steal %v  calib %.2f ms%s\n",
			i, r.wall.Round(time.Millisecond), list(rp50), list(rp95), list(rcpu), r.steal, calibMs[i], r.note)
		p50, p95, cpuPer = append(p50, rp50...), append(p95, rp95...), append(cpuPer, rcpu...)
		late = append(late, r.late...)
		wall += r.wall
		genCPU += r.genCPU
		steal += r.steal
	}
	// A daemon that cannot hold the fixed rate falls behind in every
	// round; a stall of the shared machine hits some. Either way the
	// flagged rounds keep their windows in the sample: every request is
	// timed from when it was due, so a backlog shows as latency, and the
	// count of flagged rounds is reported beside it.
	flagged := 0
	for _, r := range rounds {
		if r.note != "" {
			flagged++
		}
	}
	out.e2e["setup_s"] = summarize(setups, median)
	out.e2e["request_p50_ms"] = summarize(p50, quiet)
	out.e2e["server_heap_mb"] = summarize([]float64{float64(heap.HeapAlloc) / (1 << 20)}, median)

	ly := out.layer
	ly["loadgen.request_p95_ms"] = quiet(p95)
	for rt, name := range []string{"observe", "query"} {
		ly["loadgen."+name+"_p50_ms"] = quiet(perRoute[rt].p50)
		ly["loadgen."+name+"_p95_ms"] = quiet(perRoute[rt].p95)
		ly["loadgen."+name+"_p99_ms"] = percentile(all[rt], 0.99)
	}
	// CPU per request: over the whole measured phase (work-conserving: GC
	// and deferred applies included) and in the quiet windows.
	ly["analyticsd.cpu_ms_per_req"] = ms(cpuTotal) / float64(measured)
	ly["analyticsd.cpu_ms_per_req_quiet"] = quiet(cpuPer)
	// Failed operations end the run in check, so what is left to count
	// against the limit is the slow ones.
	ly["loadgen.over_limit_share"] = float64(over) / float64(measured)
	ly["loadgen.backlog_rounds"] = float64(flagged)
	ly["loadgen.late_p50_ms"] = percentile(late, 0.50)
	ly["loadgen.late_p95_ms"] = percentile(late, 0.95)
	ly["loadgen.cpu_share"] = genCPU.Seconds() / wall.Seconds()
	ly["loadgen.steal_share"] = steal.Seconds() / wall.Seconds()
	ly["loadgen.calib_ms"] = median(calibMs)
	ly["analyticsd.rss_mb"] = float64(use.rss) / (1 << 20)
	ly["analyticsd.alloc_bytes_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(measured)
	ly["analyticsd.mallocs_per_req"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(measured)
	ly["analyticsd.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	ly["analyticsd.gc_pause_ms"] = ms(mem1.pauseSince(mem0))
	ly["dstore.lag_obs_p50"] = median(lag)
	ly["dstore.lag_obs_max"] = percentile(lag, 1)
	ly["dstore.visible_lag_ms_p50"] = visibleLag(p, l.tallies, ackAt)

	if o.trace {
		var rates []float64
		for r := range p.capacity {
			took, err := runClosed(l.conns, p, &p.capacity[r], l.tallies)
			if err != nil {
				return nil, err
			}
			rates = append(rates, float64(p.capacity[r].requests())/took.Seconds())
		}
		if s.writeRate > 0 {
			ly["analyticsd.capacity_obs_per_s"] = median(rates) * obsPerReq
		} else {
			ly["analyticsd.capacity_q_per_s"] = median(rates)
		}
	}
	if err := l.settle(); err != nil {
		return nil, err
	}
	if err := scrapeLayers(l.d, ly); err != nil {
		return nil, err
	}
	for _, t := range l.tallies {
		out.attempted += t.attempted
		out.failed += t.failed
	}
	if err := check(l, p, out); err != nil {
		return nil, err
	}
	if o.trace {
		if err := ladder(p, ly); err != nil {
			return nil, err
		}
	}
	report(o.table, o, p, out, len(rounds))
	return out, nil
}

// sampleLag polls the cluster's consumer lag at 4 Hz until stopped.
func sampleLag(d *daemon) (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if m, err := d.metrics(); err == nil {
					samples = append(samples, m.sum("analytics_dstore_lag"))
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// visibleLag is the median, over the tail probes, of how long the
// oldest acknowledged write the answer does not yet cover had been
// acknowledged when the answer arrived (0 when everything acked was
// visible). Only cluster_mixed sends tail probes.
func visibleLag(p *plan, tallies []*tally, ackAt []time.Time) float64 {
	var lags []float64
	for _, t := range tallies {
		for _, a := range t.answers {
			if a.req.kind != kindTail || a.round < 0 {
				continue
			}
			first := p.bucketStart[a.req.query.From/bucketWidth-baseBucket]
			uncovered := first + int(a.items/eventsPerReq)
			lag := 0.0
			if uncovered < len(ackAt) && !ackAt[uncovered].IsZero() && ackAt[uncovered].Before(a.done) {
				lag = ms(a.done.Sub(ackAt[uncovered]))
			}
			lags = append(lags, lag)
		}
	}
	return median(lags)
}

// scrapeLayers reads the per-layer numbers the daemon itself exposes.
func scrapeLayers(d *daemon, ly map[string]float64) error {
	m, err := d.metrics()
	if err != nil {
		return err
	}
	ly["serve.errors"] = m.sum("analytics_serve_errors_total")
	ly["rcache.hit_ratio"] = m.sum("analytics_serve_cache_hit_ratio")
	ly["rcache.invalidations"] = m.sum("analytics_serve_cache_invalidations_total")
	ly["rcache.evictions"] = m.sum("analytics_serve_cache_evictions_total")
	ly["rcache.entries"] = m.sum("analytics_serve_cache_entries")
	ly["store.bytes"] = m.sum("analytics_store_bytes")
	ly["store.entries"] = m.sum("analytics_store_entries")
	ly["store.seals"] = m.sum("analytics_store_bucket_seals_total")
	ly["store.dropped_late"] = m.sum("analytics_store_dropped_late_total")
	ly["dstore.applied"] = m.sum("analytics_dstore_applied_total")
	ly["dstore.rejected"] = m.sum("analytics_dstore_rejected_total")
	ly["mqlog.produced"] = m.sum("analytics_mqlog_produced_records_total")
	ly["mqlog.fetched"] = m.sum("analytics_mqlog_fetched_records_total")
	h, err := d.histograms()
	if err != nil {
		return err
	}
	ly["store.lock_wait_p95_us"] = h.quantile("analytics_store_lock_wait_seconds", "p95") * 1e6
	ly["mqlog.fetch_batch_records_p50"] = h.quantile("analytics_mqlog_fetch_batch_records", "p50")
	return nil
}

// list renders a round's per-window values for the progress line.
func list(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}

// report prints every metric by name with its unit.
func report(w io.Writer, o options, p *plan, out *outcome, rounds int) {
	fmt.Fprintf(w, "workload %s  seed %d  backend %s  rounds %d x %ds  request-sequence %s\n",
		o.workload, o.seed, p.spec.backend, rounds, roundSeconds, out.hash)
	fmt.Fprintf(w, "operations: attempted %d  failed %d  (answer checks passed)\n", out.attempted, out.failed)
	fmt.Fprintf(w, "%-34s %-6s %12s %12s %12s %12s %4s\n", "end-to-end metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := out.e2e[m.name]
		fmt.Fprintf(w, "%-34s %-6s %12.4f %12.4f %12.4f %12.4f %4d\n", m.name, m.unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "%-34s %-6s %12s\n", "per-layer metric", "unit", "value")
	for _, m := range perLayer {
		if v, ok := out.layer[m.name]; ok {
			fmt.Fprintf(w, "%-34s %-6s %12.4f\n", m.name, m.unit, v)
		}
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(out *outcome, trace bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	if trace {
		for _, m := range perLayer {
			metrics[m.name] = val{out.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = val{out.e2e[m.name].Value, m.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	return string(line)
}
