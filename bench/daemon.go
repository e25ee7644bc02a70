package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir is the only place the benchmark writes (git-ignored).
const outDir = "out"

// repoRoot finds the module that holds cmd/analyticsd: the parent of the
// benchmark's own directory, wherever the benchmark is started from.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "analyticsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: cmd/analyticsd not found above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/analyticsd into out/bin. It runs before any
// timed phase; with a warm build cache it is a no-op check.
func buildDaemon() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "analyticsd"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/analyticsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/analyticsd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running analyticsd under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
	scrape *http.Client
}

var listenLine = regexp.MustCompile(`^analyticsd listening on (\S+)`)

// startDaemon launches the binary on a free loopback port and returns
// once the readiness line has been read. The daemon is killed if this
// process dies, and stop kills and waits on every other path.
func startDaemon(bin, backend string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{}), scrape: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-backend", backend,
		"-events", "1", "-trace", "0", "-cache", "4096", "-shards", "8", "-pprof")
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start analyticsd: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				ready <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-ready:
		fmt.Fprintf(os.Stderr, "analyticsd pid %d listening on %s (backend %s)\n", d.cmd.Process.Pid, d.addr, backend)
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("bench: analyticsd exited before listening: %v\n%s", d.err, d.stderr.String())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("bench: analyticsd did not print its listening line within 20s")
	}
}

// stop kills the daemon and waits until it has ended. Safe to call
// more than once and on a nil daemon.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.scrape.CloseIdleConnections()
}

// alive reports an early exit as an error.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("bench: analyticsd exited early: %v\n%s", d.err, d.stderr.String())
	default:
		return nil
	}
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.scrape.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (d *daemon) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := d.scrape.Post("http://"+d.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: POST %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// procUsage is a process's CPU time and resident set from /proc.
type procUsage struct {
	cpu time.Duration // utime + stime
	rss int64         // bytes
}

const clockTick = 100 // USER_HZ; fixed at 100 on Linux

func readProc(pid int) (procUsage, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 22 {
		return procUsage{}, fmt.Errorf("bench: unexpected /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	rssPages, _ := strconv.ParseInt(f[21], 10, 64)
	return procUsage{
		cpu: time.Duration(utime+stime) * time.Second / time.Duration(clockTick),
		rss: rssPages * int64(os.Getpagesize()),
	}, nil
}

// readSteal is the machine's cumulative steal time (all CPUs): the
// witness for rounds the hypervisor, not the daemon, made slow.
func readSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * time.Second / time.Duration(clockTick)
}

func (d *daemon) usage() (procUsage, error) { return readProc(d.cmd.Process.Pid) }

// cpuTime is the daemon's on-CPU time summed over its threads, from
// /proc/<pid>/task/*/schedstat (nanoseconds, where /proc/<pid>/stat
// counts 10 ms ticks — too coarse for half-second windows). Where the
// kernel keeps no schedstat it falls back to utime+stime.
func (d *daemon) cpuTime() (time.Duration, error) {
	pid := d.cmd.Process.Pid
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			if os.IsNotExist(err) && total == 0 {
				u, err := readProc(pid)
				return u.cpu, err
			}
			continue // the thread ended between ReadDir and ReadFile
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			continue
		}
		ns, _ := strconv.ParseInt(f[0], 10, 64)
		total += ns
	}
	return time.Duration(total), nil
}

// memStats is the part of runtime.MemStats the heap profile's debug=1
// text carries.
type memStats struct {
	HeapAlloc, TotalAlloc, Mallocs, NumGC uint64
	PauseNs                               []uint64 // ring of the last 256 pauses
}

var memLine = regexp.MustCompile(`(?m)^# (HeapAlloc|TotalAlloc|Mallocs|NumGC) = (\d+)$`)
var pauseLine = regexp.MustCompile(`(?m)^# PauseNs = \[([\d ]*)\]$`)

// memStats reads the daemon's runtime.MemStats; gc forces a collection
// first, so HeapAlloc is live data only.
func (d *daemon) memStats(gc bool) (memStats, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	raw, err := d.get(path)
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, mm := range memLine.FindAllSubmatch(raw, -1) {
		v, _ := strconv.ParseUint(string(mm[2]), 10, 64)
		switch string(mm[1]) {
		case "HeapAlloc":
			m.HeapAlloc = v
		case "TotalAlloc":
			m.TotalAlloc = v
		case "Mallocs":
			m.Mallocs = v
		case "NumGC":
			m.NumGC = v
		}
		found++
	}
	if found != 4 {
		return memStats{}, fmt.Errorf("bench: heap profile carries %d of 4 MemStats fields", found)
	}
	if pm := pauseLine.FindSubmatch(raw); pm != nil {
		for _, f := range strings.Fields(string(pm[1])) {
			v, _ := strconv.ParseUint(f, 10, 64)
			m.PauseNs = append(m.PauseNs, v)
		}
	}
	return m, nil
}

// pauseSince sums the GC pauses of the cycles run since before, scaled
// up when more cycles ran than the 256-entry ring remembers.
func (m memStats) pauseSince(before memStats) time.Duration {
	cycles := m.NumGC - before.NumGC
	if cycles == 0 || len(m.PauseNs) == 0 {
		return 0
	}
	n := min(cycles, uint64(len(m.PauseNs)))
	var sum uint64
	for i := uint64(0); i < n; i++ {
		// runtime: PauseNs[(NumGC+255)%256] is the most recent pause.
		sum += m.PauseNs[(m.NumGC-1-i)%uint64(len(m.PauseNs))]
	}
	return time.Duration(float64(sum) * float64(cycles) / float64(n))
}

// scrapeSet is a parsed /metrics page: series name (with labels) to value.
type scrapeSet map[string]float64

func (d *daemon) metrics() (scrapeSet, error) {
	raw, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(raw), nil
}

func parseMetrics(raw []byte) scrapeSet {
	set := scrapeSet{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			set[line[:i]] = v
		}
	}
	return set
}

// sum adds every series of a family (all label sets), which folds the
// cluster's per-node store series into one number.
func (s scrapeSet) sum(family string) float64 {
	var t float64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// histograms is the daemon's /debug/analytics page: every histogram
// family with the quantiles the daemon itself computes.
type histograms struct {
	Families []struct {
		Name   string           `json:"name"`
		Series []map[string]any `json:"series"`
	} `json:"families"`
}

func (d *daemon) histograms() (histograms, error) {
	var h histograms
	raw, err := d.get("/debug/analytics")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(raw, &h)
}

// quantile is the largest q ("p50", "p95") over a family's series, in
// the unit the family was registered with (seconds, records).
func (h histograms) quantile(family, q string) float64 {
	best := 0.0
	for _, f := range h.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if v, ok := s[q].(float64); ok && v > best {
				best = v
			}
		}
	}
	return best
}
