package admission

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// bucket is one refill-on-demand token bucket. There is no background
// refiller: each take computes the tokens accrued since the last visit
// from the caller's clock, which keeps idle buckets free and makes the
// math exact under an injected test clock. The zero value is an empty
// bucket; fill before first use.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   int64 // clock reading (ns) at the last refill
}

func (b *bucket) fill(burst float64) {
	b.mu.Lock()
	b.tokens = burst
	b.mu.Unlock()
}

// refillLocked advances the bucket to now at rate tokens/sec, capped at
// burst. Callers hold b.mu.
func (b *bucket) refillLocked(now int64, rate, burst float64) {
	if elapsed := now - b.last; elapsed > 0 {
		b.tokens += float64(elapsed) * rate / float64(time.Second)
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
}

// take attempts to consume need tokens at the effective rate. On
// success it returns ok=true; on failure nothing is consumed and retry
// suggests how long until the deficit refills (capped at the time to
// refill from empty, so a huge batch against a small bucket cannot
// quote an absurd wait).
func (b *bucket) take(now int64, rate, burst, need float64) (ok bool, retry time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now, rate, burst)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	deficit := need - b.tokens
	if deficit > burst {
		deficit = burst
	}
	if rate <= 0 {
		return false, time.Second
	}
	return false, time.Duration(deficit / rate * float64(time.Second))
}

// refund returns tokens reserved by a wider limiter whose narrower
// sibling then shed (so a metric-scope denial does not silently drain
// the global budget).
func (b *bucket) refund(n, burst float64) {
	b.mu.Lock()
	b.tokens += n
	if b.tokens > burst {
		b.tokens = burst
	}
	b.mu.Unlock()
}

// peek reports the token count as of now without consuming.
func (b *bucket) peek(now int64, rate, burst float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now, rate, burst)
	return b.tokens
}

// waitRecorder accumulates the RetryAfter durations handed out on
// sheds, for the Stats snapshot and the wait histogram's fallback when
// no registry is attached.
type waitRecorder struct {
	count   atomic.Uint64
	totalNs atomic.Int64
	hist    *telemetry.Histogram // set by SetTelemetry before first use; may stay nil
}

func (w *waitRecorder) record(d time.Duration) {
	w.count.Add(1)
	w.totalNs.Add(int64(d))
	w.hist.Observe(d.Seconds())
}

func (w *waitRecorder) mean() float64 {
	n := w.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(w.totalNs.Load() / int64(n)).Seconds()
}
