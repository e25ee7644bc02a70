// Package telemetry is the repo's self-instrumentation substrate: a
// zero-dependency, allocation-conscious metrics registry with atomic
// counters, gauges and fixed-bucket latency histograms, a Prometheus
// text-exposition encoder, and an http.Handler serving /metrics and a
// /debug/analytics JSON snapshot.
//
// The source paper comes out of a stack where the analytics system is
// itself the observability substrate; this package closes that loop by
// letting the store, the mqlog broker, the dstore cluster and the
// Lambda architecture measure their own latencies, lags and drop
// counters with the same equi-width bucket math their synopses use
// (histogram.EquiWidth supplies the bucket index computation).
//
// # Nil safety
//
// Every instrument method is a no-op on a nil receiver, and every
// Registry method returns nil instruments from a nil receiver, so
// instrumented subsystems pay a single pointer check on their hot
// paths when no registry is configured. Timing sites should gate the
// time.Now() pair on the instrument being non-nil.
//
// # Registration model
//
// Metric families are keyed by name; children (series) are keyed by
// their label set. Registering the same name and labels again returns
// the existing instrument — and for the Func variants swaps in the new
// callback — so wiring is idempotent and survives subsystem rebuilds
// (e.g. a dstore node store recreated on recovery re-binds the scrape
// callbacks to the fresh atomics; the visible counter reset is the
// standard Prometheus restart semantics). Registering a name with a
// conflicting instrument kind panics: that is a programming error, not
// a runtime condition.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
	"repro/internal/trace"
)

// Kind discriminates the instrument families a Registry holds.
type Kind uint8

// Instrument kinds, in exposition-type order.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families keyed by name, and optionally the
// tracer every layer wired with it traces into: the registry is the one
// observability handle a subsystem's SetTelemetry takes. The zero value
// is not usable; construct with New or NewTraced. A nil *Registry is a
// valid "telemetry off" value: all registration methods return nil
// instruments and Tracer returns nil.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	trc      *trace.Tracer // fixed at construction; nil = untraced
}

// New returns an empty, untraced registry.
func New() *Registry { return NewTraced(nil) }

// NewTraced returns an empty registry carrying tr: every layer wired
// with it traces into tr, and Handler mounts tr's debug surfaces. A nil
// tr is exactly New().
func NewTraced(tr *trace.Tracer) *Registry {
	return &Registry{families: make(map[string]*family), trc: tr}
}

// Tracer returns the tracer the registry carries; nil when untraced or
// on a nil registry.
func (r *Registry) Tracer() *trace.Tracer {
	if r == nil {
		return nil
	}
	return r.trc
}

// RemoveSeries drops every series, in every family, whose labels hold
// key=value — how a subsystem retiring a labelled member (a stopped
// cluster node) stops exporting it and releases whatever the member's
// Func callbacks capture. Families stay registered. No-op on a nil
// registry.
func (r *Registry) RemoveSeries(key, value string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, fam := range r.families {
		fam.mu.Lock()
		for k, ch := range fam.children {
			for i := 0; i < len(ch.labels); i += 2 {
				if ch.labels[i] == key && ch.labels[i+1] == value {
					delete(fam.children, k)
					break
				}
			}
		}
		fam.mu.Unlock()
	}
}

// family is one named metric family; children are the label-set series.
type family struct {
	name, help string
	kind       Kind
	mu         sync.RWMutex
	children   map[string]*child
}

// child is one series: sorted label pairs plus exactly one instrument.
type child struct {
	labels   []string // alternating key, value; sorted by key
	labelKey string   // canonical, escaped {k="v",...} body (no braces)
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// Counter is a monotonically increasing uint64. A Func-backed counter
// reads its value through the callback at scrape time instead, which
// is how subsystems expose atomics they already maintain without any
// hot-path double counting.
type Counter struct {
	v  atomic.Uint64
	fn atomic.Value // func() uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (via the callback for Func-backed
// counters). Zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if fn, ok := c.fn.Load().(func() uint64); ok && fn != nil {
		return fn()
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. Func-backed gauges read
// through their callback at scrape time.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
	fn   atomic.Value  // func() float64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge. No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (via the callback for Func-backed
// gauges). Zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn, ok := g.fn.Load().(func() float64); ok && fn != nil {
		return fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: equi-width buckets
// over [lo, hi) with atomic per-bucket counts, an atomic sum, and
// quantile accessors. Bucket index math is histogram.EquiWidth's;
// out-of-range observations clamp into the edge buckets, so the final
// bucket is exposed as le="+Inf".
type Histogram struct {
	eq     *histogram.EquiWidth // bucket math only; its own counts stay zero
	lo, hi float64
	bounds []float64 // upper bounds; bounds[len-1] is treated as +Inf
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value (for latency histograms, in seconds).
// No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.eq.BucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
// No-op on a nil receiver. Callers on hot paths should gate the
// time.Now() call itself on the histogram being non-nil.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations. Zero on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values. Zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the phi-quantile (phi in [0, 1]) by linear
// interpolation inside the bucket holding the target rank. Returns 0
// with no observations or on a nil receiver.
func (h *Histogram) Quantile(phi float64) float64 {
	if h == nil {
		return 0
	}
	snap := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * float64(total)
	width := (h.hi - h.lo) / float64(len(snap))
	var cum float64
	for i, c := range snap {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			frac := (target - cum) / float64(c)
			return h.lo + float64(i)*width + frac*width
		}
		cum = next
	}
	return h.hi
}

// P50 returns the estimated median observation.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th-percentile observation.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th-percentile observation.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Counter returns the counter series for name and the given label
// pairs, registering the family and series on first use. Nil on a nil
// registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.child(name, help, KindCounter, labels, func(ch *child) {
		ch.counter = &Counter{}
	}).counter
}

// CounterFunc registers (or re-binds) a counter whose value is read
// through fn at scrape time — the zero-hot-path-cost way to expose a
// counter a subsystem already maintains atomically. No-op on a nil
// registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	c := r.Counter(name, help, labels...)
	if c == nil {
		return
	}
	c.fn.Store(fn)
}

// Gauge returns the gauge series for name and the given label pairs,
// registering the family and series on first use. Nil on a nil
// registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.child(name, help, KindGauge, labels, func(ch *child) {
		ch.gauge = &Gauge{}
	}).gauge
}

// GaugeFunc registers (or re-binds) a gauge read through fn at scrape
// time. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	g := r.Gauge(name, help, labels...)
	if g == nil {
		return
	}
	g.fn.Store(fn)
}

// Histogram returns the histogram series for name and the given label
// pairs: buckets equi-width buckets over [lo, hi). Re-registering an
// existing series returns it unchanged (the first geometry wins). Nil
// on a nil registry; panics on invalid geometry, as NewEquiWidth would.
func (r *Registry) Histogram(name, help string, lo, hi float64, buckets int, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.child(name, help, KindHistogram, labels, func(ch *child) {
		eq, err := histogram.NewEquiWidth(lo, hi, buckets)
		if err != nil {
			panic(fmt.Sprintf("telemetry: histogram %q: %v", name, err))
		}
		ch.hist = &Histogram{
			eq:     eq,
			lo:     lo,
			hi:     hi,
			bounds: eq.BucketBounds(),
			counts: make([]atomic.Uint64, buckets),
		}
	}).hist
}

// child locates or creates the series for (name, labels), enforcing
// kind consistency across the family. A new series gets its instrument
// from mk while the family lock is still held, so concurrent first
// callers — and a concurrent encode — only ever see one, fully built.
func (r *Registry) child(name, help string, kind Kind, labels []string, mk func(*child)) *child {
	validateName(name)
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q: odd label pairs %v", name, labels))
	}
	pairs := sortPairs(labels)
	key := labelKey(pairs)

	r.mu.Lock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = fam
	}
	r.mu.Unlock()
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}

	fam.mu.Lock()
	defer fam.mu.Unlock()
	ch, ok := fam.children[key]
	if !ok {
		ch = &child{labels: pairs, labelKey: key}
		mk(ch)
		fam.children[key] = ch
	}
	return ch
}

func validateName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
	}
}

// sortPairs copies the alternating key/value list and sorts it by key.
func sortPairs(labels []string) []string {
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

// labelKey renders sorted pairs as the canonical escaped body of a
// label set: k1="v1",k2="v2" (no surrounding braces).
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(pairs[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
