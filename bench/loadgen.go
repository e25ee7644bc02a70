package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// clock is the scheduler's time source; tests inject a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// paced is what one connection measured over one open-loop round.
type paced struct {
	lateMs  []float64 // send time minus due time
	latMs   []float64 // completion minus due time
	elapsed time.Duration
	backlog int // requests still unsent when the schedule ended
}

// dueAt is request k's due time after the round's first: k intervals
// plus a deterministic low-discrepancy dither of up to a millisecond
// (never more than one interval, so due times stay ordered). The
// reference kernel wakes sleepers only on a 1 ms tick; without the dither
// a schedule whose interval is a multiple of half a tick lands every
// request on one or two tick phases, and the lateness that adds differs
// from round to round with the phase. With it the added lateness is
// spread evenly over [0, 1 ms) in every round, and on a kernel with
// precise timers it is merely a slightly uneven schedule.
func dueAt(k int, interval time.Duration) time.Duration {
	const golden = 0.6180339887498949
	frac := float64(k) * golden
	frac -= float64(int64(frac))
	return time.Duration(k)*interval + time.Duration(frac*float64(min(interval, time.Millisecond)))
}

// pace sends n requests on a fixed schedule — request k is due at
// start+offset+dueAt(k) whatever happened to the ones before it — and
// times each from when it was due, so a stall charges every request it
// delays. do performs request k and blocks until its response is read.
func pace(clk clock, start time.Time, offset, interval time.Duration, n int, do func(k int) error) (paced, error) {
	p := paced{lateMs: make([]float64, 0, n), latMs: make([]float64, 0, n)}
	first := start.Add(offset)
	end := first.Add(time.Duration(n) * interval)
	for k := 0; k < n; k++ {
		due := first.Add(dueAt(k, interval))
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		if sent.After(end) {
			p.backlog++
		}
		if err := do(k); err != nil {
			return p, err
		}
		p.lateMs = append(p.lateMs, ms(sent.Sub(due)))
		p.latMs = append(p.latMs, ms(clk.Now().Sub(due)))
	}
	p.elapsed = clk.Now().Sub(first)
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// growing reports whether the connection fell behind its schedule: it
// achieved under 99 % of the scheduled rate, or more than 1 % of its
// requests (and more than one) were still waiting to be sent when the
// schedule ended. One slow request at the very end is not a backlog.
func (p paced) growing(interval time.Duration, n int) bool {
	if n == 0 {
		return false
	}
	scheduled := time.Duration(n) * interval
	return p.backlog > max(n/100, 1) || float64(p.elapsed)*0.99 > float64(scheduled)
}

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	n    int // responses read, for the decode stride
}

func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *conn) close() { _ = c.nc.Close() }

// roundTrip writes one pre-encoded request and reads the whole
// response; the body stays valid until the next call.
func (c *conn) roundTrip(wire []byte) (status int, body []byte, err error) {
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.nc.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	c.n++
	return resp.StatusCode, c.body.Bytes(), nil
}

// answer is what a decoded query response left behind for the checks.
type answer struct {
	req     *request
	round   int
	done    time.Time
	cached  bool
	items   uint64
	synHash uint64
}

// tally is one connection's running account of a phase.
type tally struct {
	attempted, failed int
	writesAcked       int
	firstFailure      string
	answers           []answer
	ackAt             []time.Time // by write-stream position; shared, each slot written once
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// exchange performs one request and checks its response: the status on
// every one, the decoded body on every decodeEvery-th and on every tail
// probe. A transport error aborts the run; a bad answer is a failure.
func (c *conn) exchange(p *plan, r *request, roundIdx int, t *tally) error {
	wire := r.wire
	if r.route == routeObserve {
		b := p.bodies[r.body]
		b.setTime(r.time)
		wire = b.wire
	}
	status, body, err := c.roundTrip(wire)
	if err != nil {
		return fmt.Errorf("bench: %s request: %w", r.route, err)
	}
	now := time.Now()
	t.attempted++
	if status != http.StatusOK {
		t.fail("%s answered %d: %s", r.route, status, bytes.TrimSpace(body))
		return nil
	}
	if r.route == routeObserve {
		t.ackAt[r.seq] = now
		t.writesAcked++
	}
	if c.n%decodeEvery != 0 && !r.decode {
		return nil
	}
	if r.route == routeObserve {
		var ack serve.ObserveResponse
		if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != obsPerReq {
			t.fail("observe acknowledged %d of %d observations (%v)", ack.Accepted, obsPerReq, err)
		}
		return nil
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.fail("query response does not decode: %v", err)
		return nil
	}
	want := len(r.query.Keys)
	if r.query.Aggregate {
		want = 1
	}
	if len(qr.Answers) != want {
		t.fail("query %s answered %d cells, want %d", r.query.Metrics[0], len(qr.Answers), want)
		return nil
	}
	h := fnv.New64a()
	var items uint64
	for _, a := range qr.Answers {
		h.Write(a.Synopsis)
		items += a.Items
	}
	t.answers = append(t.answers, answer{req: r, round: roundIdx, done: now,
		cached: qr.Cached, items: items, synHash: h.Sum64()})
	return nil
}

// window is one slice of a round's schedule: the requests due in it
// and what the daemon spent while it lasted.
type window struct {
	lat  [numRoutes][]float64 // ms from due time, both connections
	reqs int
	cpu  time.Duration // daemon on-CPU time across the window
}

// roundResult is one open-loop round seen from the generator.
type roundResult struct {
	windows []window
	late    []float64
	note    string // " backlog_growing ..." when a connection fell behind its schedule
	wall    time.Duration
	genCPU  time.Duration // this process's
	steal   time.Duration // CPU time the hypervisor gave to other guests
}

// runRound drives both connections through one open-loop round of the
// given schedule length and waits for both: the barrier that separates
// rounds. A third goroutine reads the daemon's CPU time at every window
// boundary.
func runRound(d *daemon, conns []*conn, p *plan, rd *round, roundIdx int, length time.Duration, tallies []*tally) (roundResult, error) {
	n := int(length / windowLength)
	res := roundResult{windows: make([]window, n)}
	self0, _ := readProc(selfPid)
	steal0 := readSteal()
	start := time.Now().Add(2 * time.Millisecond)
	var (
		wg   sync.WaitGroup
		out  [numConns]paced
		errs [numConns]error
	)
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &rd.conns[c]
			out[c], errs[c] = pace(wallClock{}, start, cr.offset, cr.interval, len(cr.reqs), func(k int) error {
				return conns[c].exchange(p, &cr.reqs[k], roundIdx, tallies[c])
			})
		}(c)
	}
	// cpuAt[w] is the daemon's CPU time at the start of window w; the
	// last entry is read once both connections are done.
	cpuAt := make([]time.Duration, n+1)
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for w := 0; w < n; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * windowLength)))
			if cpuAt[w], cpuErr = d.cpuTime(); cpuErr != nil {
				return
			}
		}
	}()
	wg.Wait()
	<-sampled
	if cpuErr != nil {
		return res, cpuErr
	}
	var err error
	if cpuAt[n], err = d.cpuTime(); err != nil {
		return res, err
	}
	res.wall = time.Since(start)
	self1, _ := readProc(selfPid)
	res.genCPU = self1.cpu - self0.cpu
	res.steal = readSteal() - steal0
	for w := range res.windows {
		res.windows[w].cpu = cpuAt[w+1] - cpuAt[w]
	}
	for c := range conns {
		if errs[c] != nil {
			return res, errs[c]
		}
		cr := &rd.conns[c]
		for k, lat := range out[c].latMs {
			w := &res.windows[min(int((cr.offset+dueAt(k, cr.interval))/windowLength), n-1)]
			rt := cr.reqs[k].route
			w.lat[rt] = append(w.lat[rt], lat)
			w.reqs++
		}
		res.late = append(res.late, out[c].lateMs...)
		if out[c].growing(cr.interval, len(cr.reqs)) {
			res.note += fmt.Sprintf(" backlog_growing (connection %d: %d requests took %v of a %v schedule, %d unsent at its end)",
				c, len(cr.reqs), out[c].elapsed.Round(time.Millisecond), time.Duration(len(cr.reqs))*cr.interval, out[c].backlog)
		}
	}
	return res, d.alive()
}

// runClosed sends a round's requests back to back on each connection
// (no schedule) and returns the wall time of the slowest connection.
func runClosed(conns []*conn, p *plan, rd *round, tallies []*tally) (time.Duration, error) {
	var (
		wg   sync.WaitGroup
		errs [numConns]error
	)
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := rd.conns[c].reqs
			for k := range reqs {
				if errs[c] = conns[c].exchange(p, &reqs[k], -1, tallies[c]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
