// Package trace is a zero-dependency request tracer for the analytics
// stack. It follows the telemetry package's wiring discipline — a
// layer takes its *Tracer from the telemetry registry it is wired with
// (telemetry.NewTraced), and a nil *Tracer (and a nil *Span) is a no-op
// on every method — so tracing can be compiled
// in everywhere and cost nothing until a process opts in.
//
// Model. A trace is a tree of spans sharing one TraceID. Each span has
// its own SpanID, a parent SpanID (zero for the root), a name, a
// monotonic start timestamp and duration (time.Time's monotonic
// reading — wall-clock steps cannot reorder spans), and a small list
// of typed attributes. Spans are single-writer: the goroutine that
// started a span owns it until Finish, which hands the record to the
// trace's buffer under that buffer's lock.
//
// Sampling. Two knobs, two entry points:
//
//   - StartSampled (ingest path) is head sampling: it consults the
//     probabilistic sampler once and returns nil unless the trace is
//     kept, so the unsampled hot path never allocates.
//   - StartRoot (query path) always records while the request runs and
//     decides at Finish: the trace is kept if it was head-sampled OR
//     its duration crossed Config.SlowThreshold. Slow requests
//     additionally produce a slow-log entry summarising the request
//     attributes and per-stage (direct child) durations.
//
// The sampler is lock-cheap: one atomic counter hashed through
// splitmix64 against a precomputed threshold, deterministic for a
// fixed Config.Seed.
//
// Stitching. A sampled ingest trace stays "active" (addressable by
// TraceID) after its root finishes, so spans recorded on the far side
// of the mqlog — fetch, node apply, store observe — attach to the same
// trace via StartRemote even though they run seconds later on other
// goroutines. Eviction from the bounded ring is what finally retires a
// TraceID; late spans for an evicted trace are counted and dropped.
package trace

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace (a tree of spans). Zero is invalid.
type TraceID uint64

// SpanID identifies one span within a trace. Zero is invalid and
// doubles as "no parent" on root spans.
type SpanID uint64

// Context is the portable reference to a live span — what crosses
// layer boundaries (Observation/QueryRequest fields) and, encoded via
// EncodeContext, the mqlog record header that crosses the log itself.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context references a real trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// HeaderKey is the mqlog record-header key under which store.LogWriter
// carries an encoded Context across the log.
const HeaderKey = "trace"

// ctxWireLen is the encoded size of a Context: two big-endian uint64s.
const ctxWireLen = 16

// EncodeContext encodes c into a fresh 16-byte slice (big-endian
// TraceID then SpanID) suitable for a mqlog record header value.
func EncodeContext(c Context) []byte {
	b := make([]byte, ctxWireLen)
	binary.BigEndian.PutUint64(b[0:8], uint64(c.Trace))
	binary.BigEndian.PutUint64(b[8:16], uint64(c.Span))
	return b
}

// DecodeContext decodes a header value written by EncodeContext. It
// returns a zero (invalid) Context for malformed input.
func DecodeContext(b []byte) Context {
	if len(b) != ctxWireLen {
		return Context{}
	}
	return Context{
		Trace: TraceID(binary.BigEndian.Uint64(b[0:8])),
		Span:  SpanID(binary.BigEndian.Uint64(b[8:16])),
	}
}

// Attr is one typed span attribute. Exactly one of the value fields is
// meaningful, selected by Kind.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
	Bool bool
}

// AttrKind discriminates Attr's value fields.
type AttrKind uint8

const (
	KindString AttrKind = iota
	KindInt
	KindBool
)

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindString, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Int: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Kind: KindBool, Bool: v} }

// Config parameterises a Tracer. The zero value keeps nothing (rate 0,
// no slow threshold) but still costs ~nothing, matching the nil-tracer
// contract.
type Config struct {
	// SampleRate is the head-sampling probability in [0,1]. 0 keeps
	// nothing by probability (slow queries are still kept); 1 keeps
	// everything.
	SampleRate float64
	// SlowThreshold marks a root span slow when its duration meets or
	// exceeds it; slow roots are always kept and also logged to the
	// slow-query log. 0 disables the slow path.
	SlowThreshold time.Duration
	// Capacity bounds the ring of finished traces (default 256).
	Capacity int
	// SlowCapacity bounds the slow-query log (default 128).
	SlowCapacity int
	// Seed seeds the deterministic sampler (0 means 0: two tracers
	// with equal Seed and SampleRate sample identically).
	Seed uint64
	// MaxSpans bounds the spans recorded per trace (default 512);
	// spans beyond the cap are counted and dropped.
	MaxSpans int
}

// Stats is a point-in-time summary of tracer activity, served by
// /debug/traces alongside the export and useful in tests.
type Stats struct {
	Started      uint64 `json:"started"`       // root spans opened
	Sampled      uint64 `json:"sampled"`       // head-sampling keeps
	Kept         uint64 `json:"kept"`          // traces retained in the ring (total, not resident)
	Slow         uint64 `json:"slow"`          // roots over SlowThreshold
	Stitched     uint64 `json:"stitched"`      // remote spans attached via StartRemote
	DroppedLate  uint64 `json:"dropped_late"`  // remote spans for evicted/unknown traces
	DroppedSpans uint64 `json:"dropped_spans"` // spans beyond MaxSpans per trace
	Resident     int    `json:"resident"`      // traces currently in the ring
}

// Tracer samples, records and exports traces. All methods are safe for
// concurrent use; all methods are no-ops on a nil receiver.
type Tracer struct {
	cfg       Config
	threshold uint64 // sampler keep threshold over splitmix64 output
	ctr       atomic.Uint64

	started      atomic.Uint64
	sampledN     atomic.Uint64
	keptN        atomic.Uint64
	slowN        atomic.Uint64
	stitched     atomic.Uint64
	droppedLate  atomic.Uint64
	droppedSpans atomic.Uint64

	epoch time.Time // export time base; monotonic via time.Since

	mu     sync.Mutex
	ring   []*traceBuf // bounded FIFO of kept traces
	head   int         // next slot to overwrite once full
	active map[TraceID]*traceBuf
	slow   []SlowEntry // bounded FIFO of slow-query entries
	slowAt int
	tid    uint64 // per-trace export lane counter
}

// traceBuf accumulates the finished spans of one trace. Spans append
// under mu; sampled and id are immutable after creation.
type traceBuf struct {
	id      TraceID
	sampled bool   // head-sampled (kept regardless of duration)
	lane    uint64 // stable export "tid"

	mu      sync.Mutex
	spans   []spanRec
	dropped int
	kept    bool // resident in the ring (or pending root decision)
}

// spanRec is the immutable record of a finished span.
type spanRec struct {
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Span is a live, unfinished span. The starting goroutine owns it —
// SetAttrs and Child are not synchronised — until Finish publishes it.
// All methods are no-ops on a nil receiver.
type Span struct {
	tr     *Tracer
	buf    *traceBuf
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	root   bool
	done   bool
}

// NewTracer builds a Tracer from cfg, applying defaults for zero
// capacities.
func NewTracer(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = 128
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 512
	}
	t := &Tracer{
		cfg:    cfg,
		epoch:  time.Now(),
		active: make(map[TraceID]*traceBuf),
	}
	switch {
	case cfg.SampleRate >= 1:
		t.threshold = ^uint64(0)
	case cfg.SampleRate > 0:
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	return t
}

// splitmix64 is the finalizer from Steele et al.'s SplittableRandom —
// a strong 64-bit mixer, cheap enough for the ingest hot path.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sample draws the next deterministic sampling decision and a fresh
// nonzero id usable as TraceID/SpanID material.
func (t *Tracer) sample() (keep bool, id uint64) {
	n := t.ctr.Add(1)
	h := splitmix64(n + t.cfg.Seed)
	// Reuse the hash as the ID source: mix once more so the keep
	// decision and the ID are decorrelated, and force nonzero.
	id = splitmix64(h) | 1
	if t.threshold == ^uint64(0) {
		return true, id
	}
	return h < t.threshold, id
}

// nextSpanID returns a fresh nonzero span id.
func (t *Tracer) nextSpanID() SpanID {
	return SpanID(splitmix64(t.ctr.Add(1)+t.cfg.Seed) | 1)
}

// newBuf registers a new active trace.
func (t *Tracer) newBuf(id TraceID, sampled bool) *traceBuf {
	b := &traceBuf{id: id, sampled: sampled, kept: true}
	t.mu.Lock()
	t.tid++
	b.lane = t.tid
	t.active[id] = b
	t.mu.Unlock()
	return b
}

// StartRoot opens the root span of a new trace and always records it;
// whether the trace is kept is decided at Finish (head-sampled or
// slow). Use on the query path, where the request is already heavy
// enough to afford a span. Returns nil on a nil tracer.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	keep, id := t.sample()
	if keep {
		t.sampledN.Add(1)
	}
	b := t.newBuf(TraceID(id), keep)
	return &Span{
		tr:    t,
		buf:   b,
		id:    SpanID(splitmix64(id) | 1),
		name:  name,
		start: time.Now(),
		root:  true,
	}
}

// StartSampled opens the root span of a new trace only if head
// sampling keeps it, returning nil otherwise. Use on the ingest path:
// the unsampled case is one atomic add and one multiply, no
// allocation. Returns nil on a nil tracer.
func (t *Tracer) StartSampled(name string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	keep, id := t.sample()
	if !keep {
		return nil
	}
	t.sampledN.Add(1)
	b := t.newBuf(TraceID(id), true)
	return &Span{
		tr:    t,
		buf:   b,
		id:    SpanID(splitmix64(id) | 1),
		name:  name,
		start: time.Now(),
		root:  true,
	}
}

// StartRemote attaches a new span to an existing trace referenced by
// ctx — the consume-side half of cross-log stitching. The span's
// parent is ctx.Span. Returns nil if the tracer is nil, ctx is
// invalid, or the trace has already been evicted (counted in
// Stats.DroppedLate).
func (t *Tracer) StartRemote(ctx Context, name string) *Span {
	if t == nil || !ctx.Valid() {
		return nil
	}
	t.mu.Lock()
	b := t.active[ctx.Trace]
	t.mu.Unlock()
	if b == nil {
		t.droppedLate.Add(1)
		return nil
	}
	t.stitched.Add(1)
	return &Span{
		tr:     t,
		buf:    b,
		id:     t.nextSpanID(),
		parent: ctx.Span,
		name:   name,
		start:  time.Now(),
	}
}

// AdoptRemote attaches a root span to a trace that began in ANOTHER
// process — the serving edge's half of cross-process stitching. An HTTP
// client propagates its trace context in a request header; the daemon
// adopts it here, and every layer underneath then stitches onto the
// same trace via the usual StartRemote path. Unlike StartRemote, an
// unknown TraceID registers a fresh active trace under the remote id:
// the remote side only propagates contexts it sampled, so the adopted
// trace is head-kept. The first adoption returns a root span (its
// Finish applies the retention decision and can land in the slow-query
// log); later adoptions of an already-active trace attach plain spans,
// exactly as StartRemote would. Returns nil if the tracer is nil or
// ctx is invalid.
func (t *Tracer) AdoptRemote(ctx Context, name string) *Span {
	if t == nil || !ctx.Valid() {
		return nil
	}
	t.mu.Lock()
	b := t.active[ctx.Trace]
	adopted := b == nil
	if adopted {
		b = &traceBuf{id: ctx.Trace, sampled: true, kept: true}
		t.tid++
		b.lane = t.tid
		t.active[ctx.Trace] = b
	}
	t.mu.Unlock()
	if adopted {
		t.started.Add(1)
		t.sampledN.Add(1)
	} else {
		t.stitched.Add(1)
	}
	return &Span{
		tr:     t,
		buf:    b,
		id:     t.nextSpanID(),
		parent: ctx.Span,
		name:   name,
		start:  time.Now(),
		root:   adopted,
	}
}

// Child opens a sub-span of s. Returns nil on a nil span, so deep call
// chains never need nil checks of their own.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		buf:    s.buf,
		id:     s.tr.nextSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// Context returns the portable reference to s, for propagation across
// a process or log boundary. Zero (invalid) on a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.buf.id, Span: s.id}
}

// SetAttrs appends attributes to s. Call only from the goroutine that
// owns the span (before Finish).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Finish stamps the span's duration and publishes it into its trace.
// Finishing the root also decides retention: keep if head-sampled or
// over the slow threshold, and emit a slow-log entry for the latter.
// Finish is idempotent (second and later calls are no-ops), so a
// deferred Finish can back an explicit one on error-free paths.
func (s *Span) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	dur := time.Since(s.start)
	t := s.tr
	b := s.buf
	rec := spanRec{
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		start:  s.start,
		dur:    dur,
		attrs:  s.attrs,
	}
	b.mu.Lock()
	if len(b.spans) < t.cfg.MaxSpans {
		b.spans = append(b.spans, rec)
	} else {
		b.dropped++
		t.droppedSpans.Add(1)
	}
	b.mu.Unlock()
	if s.root {
		t.finishRoot(b, rec)
	}
}

// finishRoot applies the tail retention decision for b's root span.
func (t *Tracer) finishRoot(b *traceBuf, root spanRec) {
	slow := t.cfg.SlowThreshold > 0 && root.dur >= t.cfg.SlowThreshold
	keep := b.sampled || slow
	if slow {
		t.slowN.Add(1)
	}
	if keep {
		t.keptN.Add(1)
	}

	var entry SlowEntry
	if slow {
		entry = t.buildSlowEntry(b, root)
	}

	t.mu.Lock()
	if keep {
		t.pushLocked(b)
	} else {
		delete(t.active, b.id)
	}
	if slow {
		t.pushSlowLocked(entry)
	}
	t.mu.Unlock()
}

// pushLocked inserts b into the bounded ring, evicting (and retiring
// from the active map) the oldest trace when full. Caller holds t.mu.
func (t *Tracer) pushLocked(b *traceBuf) {
	if len(t.ring) < t.cfg.Capacity {
		t.ring = append(t.ring, b)
		return
	}
	old := t.ring[t.head]
	delete(t.active, old.id)
	t.ring[t.head] = b
	t.head = (t.head + 1) % t.cfg.Capacity
}

// pushSlowLocked appends to the bounded slow log. Caller holds t.mu.
func (t *Tracer) pushSlowLocked(e SlowEntry) {
	if len(t.slow) < t.cfg.SlowCapacity {
		t.slow = append(t.slow, e)
		return
	}
	t.slow[t.slowAt] = e
	t.slowAt = (t.slowAt + 1) % t.cfg.SlowCapacity
}

// Stats returns a point-in-time activity summary. Zero value on a nil
// tracer.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	resident := len(t.ring)
	t.mu.Unlock()
	return Stats{
		Started:      t.started.Load(),
		Sampled:      t.sampledN.Load(),
		Kept:         t.keptN.Load(),
		Slow:         t.slowN.Load(),
		Stitched:     t.stitched.Load(),
		DroppedLate:  t.droppedLate.Load(),
		DroppedSpans: t.droppedSpans.Load(),
		Resident:     resident,
	}
}
