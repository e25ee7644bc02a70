// Package admission is the serving stack's overload-control subsystem:
// token-bucket admission for ingest traffic plus a lag-driven
// backpressure controller, so the pipeline degrades predictably at peak
// velocity instead of collapsing — the paper's "real time is only as
// real as the system's worst minute" argument made operational, and the
// principled counterpart of the hard throughput budgets real-time
// triggers run under.
//
// # Model
//
// A Controller owns three families of token buckets, each refilled on
// demand from an injected monotonic clock (so tests are deterministic
// and no background goroutine runs):
//
//   - one global bucket (Rate/Burst) bounding total ingest,
//   - per-metric buckets (MetricRate/MetricBurst), created lazily, so
//     one firehose metric cannot starve the rest, and
//   - per-tenant buckets (TenantRate/TenantBurst), keyed by whatever
//     string the serving edge extracts (a header, an API key), checked
//     through AdmitTenant.
//
// Admission is strictly shed-don't-queue: Admit never blocks. A denied
// request gets a typed *Overload error carrying the suggested
// RetryAfter — the time at which the failed bucket will have refilled
// enough tokens — which the serving edge maps to HTTP 429 +
// Retry-After and the HTTP client rehydrates so errors.Is(err,
// ErrOverloaded) matches on both sides of the socket.
//
// # Backpressure
//
// Overload is not only producer-side: a cluster whose consumer group
// falls behind, or whose log is filling its disk, must slow admission
// before the lag becomes unrecoverable. The Controller samples the
// configured lag and disk signals at most once per sampleEvery and
// folds them into a throttle ladder: level 0 is full rate, each level
// above halves every bucket's effective refill rate, and the top level
// sheds everything. See BackpressureConfig for the exact ladder math.
//
// # Accounting
//
// Every decision is counted: admitted and shed observation totals (shed
// broken down by scope — global, metric, tenant, backpressure), the
// current throttle level, live global tokens, and a histogram of the
// RetryAfter waits handed out. SetTelemetry, called before first use,
// exposes all of it as analytics_admission_* series; Stats snapshots
// the same numbers for in-process assertions. The shed counter
// accounts for every rejection the controller ever issues — the
// serving smoke drill cross-checks it against observed 429s.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the sentinel every rejected request wraps. Match it
// with errors.Is; extract the typed detail (RetryAfter, scope) with
// errors.As into a *Overload, or with the Wait helper.
var ErrOverloaded = errors.New("admission: overloaded")

// Overload is the typed rejection the whole stack propagates: the
// decorator returns it, the serving edge maps it to HTTP 429 +
// Retry-After, and the HTTP client rebuilds one from the response so
// in-process and remote callers match the same sentinel.
type Overload struct {
	// RetryAfter is the suggested backoff: the time until the failed
	// bucket refills enough tokens for a request of the same size (or
	// the resample interval, when backpressure is shedding everything).
	RetryAfter time.Duration
	// Scope names the limiter that rejected: "global", "metric",
	// "tenant" or "backpressure".
	Scope string
	// Key is the metric or tenant the scoped bucket belongs to (empty
	// for the global and backpressure scopes).
	Key string
}

func (o *Overload) Error() string {
	if o.Key != "" {
		return fmt.Sprintf("admission: overloaded (%s %q, retry after %v)", o.Scope, o.Key, o.RetryAfter)
	}
	return fmt.Sprintf("admission: overloaded (%s, retry after %v)", o.Scope, o.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match through the typed
// error.
func (o *Overload) Unwrap() error { return ErrOverloaded }

// Wait extracts the suggested retry-after from an overload error chain;
// ok is false when err does not wrap an *Overload.
func Wait(err error) (d time.Duration, ok bool) {
	var o *Overload
	if errors.As(err, &o) {
		return o.RetryAfter, true
	}
	return 0, false
}

// Config tunes a Controller. All rates are observations per second; a
// zero rate disables that limiter family entirely.
type Config struct {
	// Rate/Burst bound total admitted ingest: Rate tokens per second
	// refill a bucket holding at most Burst. Burst defaults to Rate
	// (one second of headroom).
	Rate  float64
	Burst float64
	// MetricRate/MetricBurst bound each metric individually (buckets
	// are created lazily per metric name). MetricBurst defaults to
	// MetricRate.
	MetricRate  float64
	MetricBurst float64
	// TenantRate/TenantBurst bound each tenant individually, via
	// AdmitTenant. TenantBurst defaults to TenantRate.
	TenantRate  float64
	TenantBurst float64
	// Now is the monotonic clock in nanoseconds. Inject a fake for
	// deterministic tests; nil uses the runtime's monotonic clock.
	Now func() int64
	// Backpressure scales effective rates down when the consumers or
	// the log fall behind. The zero value disables it.
	Backpressure BackpressureConfig
}

// BackpressureConfig wires load signals into the throttle ladder. Each
// signal is a sampler callback paired with the value at which
// throttling begins:
//
//	level(x) = 0                          if x < High
//	level(x) = 1 + floor(log2(x / High))  otherwise, capped at maxLevel
//
// The controller's level is the max across signals; every bucket's
// effective refill rate is scaled by 2^-level, and at maxLevel (4)
// admission sheds everything until the signal falls back below the top
// rung: lag in [High, 2*High) halves rates, [2*High, 4*High) quarters
// them, and lag beyond 8*High stops ingest dead — a ladder, not a
// cliff.
type BackpressureConfig struct {
	// Lag samples consumer-group lag (e.g. dstore.Cluster.Lag): the
	// unconsumed-record count of the ingest topic. Nil disables the
	// signal.
	Lag func() uint64
	// LagHigh is the lag at which throttling begins (required when Lag
	// is set).
	LagHigh uint64
	// Disk samples log disk pressure in bytes (e.g. the durable mqlog
	// segment footprint). Nil disables the signal.
	Disk func() uint64
	// DiskHigh is the byte count at which throttling begins (required
	// when Disk is set).
	DiskHigh uint64
}

const (
	// maxLevel is the backpressure ladder's top rung, at which everything
	// sheds.
	maxLevel = 4
	// sampleEvery bounds how often the signals are polled: admission
	// between samples reuses the last level, so the samplers stay off
	// the per-observation hot path. It is also the RetryAfter quoted at
	// the top rung.
	sampleEvery = 100 * time.Millisecond
)

func (b BackpressureConfig) enabled() bool { return b.Lag != nil || b.Disk != nil }

// Controller is the admission authority. Safe for concurrent use; a
// nil *Controller admits everything (so call sites can wire one
// unconditionally).
type Controller struct {
	cfg Config
	now func() int64

	global bucket

	mu      sync.RWMutex
	metrics map[string]*bucket
	tenants map[string]*bucket

	// Backpressure state: the current ladder level and when the signals
	// were last polled.
	level      atomic.Int32
	lastSample atomic.Int64

	admitted     atomic.Uint64
	shedGlobal   atomic.Uint64
	shedMetric   atomic.Uint64
	shedTenant   atomic.Uint64
	shedPressure atomic.Uint64
	levelChanges atomic.Uint64
	waits        waitRecorder
}

// New validates cfg and builds a Controller.
func New(cfg Config) (*Controller, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Rate", cfg.Rate}, {"Burst", cfg.Burst},
		{"MetricRate", cfg.MetricRate}, {"MetricBurst", cfg.MetricBurst},
		{"TenantRate", cfg.TenantRate}, {"TenantBurst", cfg.TenantBurst},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("admission: Config.%s %v must be >= 0", f.name, f.v)
		}
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	if cfg.MetricBurst <= 0 {
		cfg.MetricBurst = cfg.MetricRate
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = cfg.TenantRate
	}
	bp := &cfg.Backpressure
	if bp.Lag != nil && bp.LagHigh == 0 {
		return nil, errors.New("admission: Backpressure.LagHigh is required with a Lag sampler")
	}
	if bp.Disk != nil && bp.DiskHigh == 0 {
		return nil, errors.New("admission: Backpressure.DiskHigh is required with a Disk sampler")
	}
	c := &Controller{
		cfg:     cfg,
		now:     cfg.Now,
		metrics: make(map[string]*bucket),
		tenants: make(map[string]*bucket),
	}
	if c.now == nil {
		start := time.Now()
		c.now = func() int64 { return int64(time.Since(start)) }
	}
	// Arm the sampler so the very first Admit polls the signals instead
	// of running one sampleEvery blind.
	c.lastSample.Store(c.now() - int64(sampleEvery) - 1)
	c.global.fill(cfg.Burst)
	return c, nil
}

// signalLevel maps one signal value onto the ladder.
func signalLevel(x, high uint64) int {
	if high == 0 || x < high {
		return 0
	}
	level := 1
	for x >= 2*high && level < maxLevel {
		x /= 2
		level++
	}
	return level
}

// throttleLevel returns the current ladder level, resampling the
// signals when sampleEvery has elapsed. Exactly one caller wins the
// resample CAS; everyone else reuses the stored level.
func (c *Controller) throttleLevel(now int64) int {
	bp := c.cfg.Backpressure
	if !bp.enabled() {
		return 0
	}
	last := c.lastSample.Load()
	if now-last > int64(sampleEvery) && c.lastSample.CompareAndSwap(last, now) {
		lvl := 0
		if bp.Lag != nil {
			lvl = signalLevel(bp.Lag(), bp.LagHigh)
		}
		if bp.Disk != nil {
			if dl := signalLevel(bp.Disk(), bp.DiskHigh); dl > lvl {
				lvl = dl
			}
		}
		if old := c.level.Swap(int32(lvl)); old != int32(lvl) {
			c.levelChanges.Add(1)
		}
		return lvl
	}
	return int(c.level.Load())
}

// scale returns the effective-rate multiplier for a ladder level; 0
// means shed everything.
func (c *Controller) scale(level int) float64 {
	if level <= 0 {
		return 1
	}
	if level >= maxLevel {
		return 0
	}
	return 1 / float64(uint64(1)<<uint(level))
}

// keyed returns the named bucket from m, creating it full on first
// sight. The read path is an RLock + map hit — no allocation.
func (c *Controller) keyed(m map[string]*bucket, key string, burst float64) *bucket {
	c.mu.RLock()
	b := m[key]
	c.mu.RUnlock()
	if b != nil {
		return b
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b = m[key]; b != nil {
		return b
	}
	b = &bucket{}
	b.fill(burst)
	m[key] = b
	return b
}

// shed records a rejection of n observations against scope and builds
// the typed error.
func (c *Controller) shed(counter *atomic.Uint64, n int, scope, key string, retry time.Duration) error {
	counter.Add(uint64(n))
	c.waits.record(retry)
	return &Overload{RetryAfter: retry, Scope: scope, Key: key}
}

// Admit decides whether n observations of metric may enter the stack:
// the backpressure ladder first (cheapest — one atomic load between
// samples), then the global bucket, then the metric's own. It never
// blocks; a denial is a typed *Overload wrapping ErrOverloaded, with
// nothing consumed from the narrower buckets (a metric-scope denial
// refunds the global tokens it reserved). A nil Controller admits
// everything.
func (c *Controller) Admit(metric string, n int) error {
	if c == nil || n <= 0 {
		return nil
	}
	now := c.now()
	level := c.throttleLevel(now)
	scale := c.scale(level)
	if scale == 0 {
		return c.shed(&c.shedPressure, n, "backpressure", "", sampleEvery)
	}
	need := float64(n)
	if c.cfg.Rate > 0 {
		if ok, retry := c.global.take(now, c.cfg.Rate*scale, c.cfg.Burst, need); !ok {
			scope, ctr := "global", &c.shedGlobal
			if level > 0 {
				// The tokens ran dry because the ladder scaled the refill
				// down; attribute the shed to backpressure so operators see
				// the lag, not a phantom traffic spike.
				scope, ctr = "backpressure", &c.shedPressure
			}
			return c.shed(ctr, n, scope, "", retry)
		}
	}
	if c.cfg.MetricRate > 0 {
		b := c.keyed(c.metrics, metric, c.cfg.MetricBurst)
		if ok, retry := b.take(now, c.cfg.MetricRate*scale, c.cfg.MetricBurst, need); !ok {
			if c.cfg.Rate > 0 {
				c.global.refund(need, c.cfg.Burst)
			}
			return c.shed(&c.shedMetric, n, "metric", metric, retry)
		}
	}
	c.admitted.Add(uint64(n))
	return nil
}

// AdmitTenant decides whether n observations from tenant may enter —
// the serving edge's fairness check, run before the request reaches
// the Backend (so a shed request provably mutates nothing). Tenants
// share nothing: each name gets its own bucket at TenantRate. A nil
// Controller, a zero TenantRate, or n <= 0 admits.
func (c *Controller) AdmitTenant(tenant string, n int) error {
	if c == nil || n <= 0 || c.cfg.TenantRate <= 0 {
		return nil
	}
	now := c.now()
	scale := c.scale(c.throttleLevel(now))
	if scale == 0 {
		return c.shed(&c.shedPressure, n, "backpressure", "", sampleEvery)
	}
	b := c.keyed(c.tenants, tenant, c.cfg.TenantBurst)
	if ok, retry := b.take(now, c.cfg.TenantRate*scale, c.cfg.TenantBurst, float64(n)); !ok {
		return c.shed(&c.shedTenant, n, "tenant", tenant, retry)
	}
	c.admitted.Add(uint64(n))
	return nil
}

// Level reports the current backpressure ladder level without
// resampling.
func (c *Controller) Level() int {
	if c == nil {
		return 0
	}
	return int(c.level.Load())
}

// Tokens reports the global bucket's current token count (refilled to
// now), or the configured burst when no global rate is set.
func (c *Controller) Tokens() float64 {
	if c == nil {
		return 0
	}
	if c.cfg.Rate <= 0 {
		return c.cfg.Burst
	}
	return c.global.peek(c.now(), c.cfg.Rate*c.scale(c.Level()), c.cfg.Burst)
}

// Stats is a point-in-time snapshot of the controller's accounting.
type Stats struct {
	Admitted        uint64 // observations admitted (all scopes)
	Shed            uint64 // observations rejected (all scopes)
	ShedGlobal      uint64
	ShedMetric      uint64
	ShedTenant      uint64
	ShedPressure    uint64
	Level           int     // current backpressure ladder level
	LevelChanges    uint64  // ladder transitions observed
	Tokens          float64 // global bucket tokens right now
	MetricBuckets   int
	TenantBuckets   int
	MeanRetrySec    float64 // mean suggested RetryAfter across sheds
	SheddedRequests uint64  // calls (not observations) that were denied
}

// Stats snapshots the counters.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	nm, nt := len(c.metrics), len(c.tenants)
	c.mu.RUnlock()
	sg, sm, st, sp := c.shedGlobal.Load(), c.shedMetric.Load(), c.shedTenant.Load(), c.shedPressure.Load()
	return Stats{
		Admitted:        c.admitted.Load(),
		Shed:            sg + sm + st + sp,
		ShedGlobal:      sg,
		ShedMetric:      sm,
		ShedTenant:      st,
		ShedPressure:    sp,
		Level:           c.Level(),
		LevelChanges:    c.levelChanges.Load(),
		Tokens:          c.Tokens(),
		MetricBuckets:   nm,
		TenantBuckets:   nt,
		MeanRetrySec:    c.waits.mean(),
		SheddedRequests: c.waits.count.Load(),
	}
}
