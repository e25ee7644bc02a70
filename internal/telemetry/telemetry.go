// Package telemetry is the repo's self-instrumentation substrate: a
// zero-dependency, allocation-conscious metrics registry with atomic
// counters, gauges and log-bucket latency histograms, a Prometheus
// text-exposition encoder, and an http.Handler serving /metrics and a
// /debug/analytics JSON snapshot.
//
// The source paper comes out of a stack where the analytics system is
// itself the observability substrate; this package closes that loop by
// letting the store, the mqlog broker, the dstore cluster and the
// Lambda architecture measure their own latencies, lags and drop
// counters. Every histogram shares one log-bucket geometry (DDSketch's),
// so no call site picks a range and a quantile's error is relative.
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

// Histogram counts observations in log buckets, 8 per octave (γ =
// 2^(1/8)), with upper bounds from 2^-20 (≈ 0.95 µs) to 2^10 (1 024) and
// then +Inf. Bucket i holds (bounds[i-1], bounds[i]] (Prometheus's
// inclusive le); the first also takes 0 and negatives. A bucket reads as
// 2·lo·hi/(lo+hi), within α = (γ−1)/(γ+1) ≈ 4.3 % of any value in it.
type Histogram struct {
	counts [numBuckets]atomic.Uint64 // the count is their sum
	sum    atomic.Uint64             // math.Float64bits, CAS-accumulated
}

const (
	perOctave  = 8
	minExp     = -20 // bounds[0] = 2^minExp
	maxExp     = 10  // bounds[numBounds-1] = 2^maxExp
	numBounds  = (maxExp-minExp)*perOctave + 1
	numBuckets = numBounds + 1 // the last is +Inf
)

// octaveMants are the 52-bit mantissas of 2^(j/8), j = 0..7, correctly
// rounded: bucketOf's thresholds and the bit patterns of bounds, so a
// bound bins into its own bucket, with no math.Log, on every platform.
var octaveMants = [perOctave]uint64{0, 0x172b83c7d517b, 0x306fe0a31b715,
	0x4bfdad5362a27, 0x6a09e667f3bcd, 0x8ace5422aa0db, 0xae89f995ad3ad, 0xd5818dcfba487}

// bounds are the finite upper bounds; leText their exposition text,
// "+Inf" last.
var bounds, leText = func() (b [numBounds]float64, le [numBuckets]string) {
	for i := range b {
		b[i] = math.Float64frombits(uint64(1023+minExp+i/perOctave)<<52 | octaveMants[i%perOctave])
		le[i] = formatFloat(b[i])
	}
	le[numBounds] = "+Inf"
	return b, le
}()

// bucketOf returns v's bucket: the octave from its exponent field, then
// the mantissa thresholds it passes.
func bucketOf(v float64) int {
	if !(v > bounds[0]) { // NaN too
		return 0
	}
	if v > bounds[numBounds-1] {
		return numBounds
	}
	bits := math.Float64bits(v)
	i := (int(bits>>52) - 1023 - minExp) * perOctave
	for _, t := range octaveMants {
		if t < bits&(1<<52-1) {
			i++
		}
	}
	return i
}

// Observe records one value (for latency histograms, in seconds).
// No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
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
	return h.view().count()
}

// Sum returns the sum of all observed values. Zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the phi-quantile (phi in [0, 1]): the
// representative of the bucket holding the nearest-rank target,
// ⌈phi·count⌉. Returns 0 with no observations or on a nil receiver.
func (h *Histogram) Quantile(phi float64) float64 {
	if h == nil {
		return 0
	}
	return h.view().quantile(phi)
}

// P50 returns the estimated median observation.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th-percentile observation.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th-percentile observation.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// histView is one load of a histogram's counters, cumulated. The
// exposition, the snapshot and the quantiles each read one, so a count
// always equals its own +Inf bucket.
type histView struct {
	cum [numBuckets]uint64
	sum float64
}

func (h *Histogram) view() *histView {
	v := &histView{sum: h.Sum()}
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		v.cum[i] = c
	}
	return v
}

func (v *histView) count() uint64 { return v.cum[numBounds] }

// quantile reads the bucket holding rank ⌈phi·count⌉: 0 for the first
// bucket, 2^10 for +Inf, 2·lo·hi/(lo+hi) between.
func (v *histView) quantile(phi float64) float64 {
	if v.count() == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(min(max(phi, 0), 1)*float64(v.count()))), 1)
	switch i := sort.Search(numBuckets, func(i int) bool { return v.cum[i] >= rank }); i {
	case 0:
		return 0
	case numBounds:
		return bounds[numBounds-1]
	default:
		lo, hi := bounds[i-1], bounds[i]
		return 2 * lo * hi / (lo + hi)
	}
}

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
// pairs, on the one fixed geometry (see Histogram). Nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.child(name, help, KindHistogram, labels, func(ch *child) {
		ch.hist = &Histogram{}
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
