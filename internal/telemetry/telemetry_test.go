package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("analytics_test_total", "h")
	g := r.Gauge("analytics_test", "h")
	h := r.Histogram("analytics_test_seconds", "h")
	r.CounterFunc("analytics_test_fn_total", "h", func() uint64 { return 1 })
	r.GaugeFunc("analytics_test_fn", "h", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must return nil instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(10)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil Snapshot = %v", snap)
	}
	r.RemoveSeries("node", "n1")
	if r.Tracer() != nil || New().Tracer() != nil || NewTraced(nil).Tracer() != nil {
		t.Fatal("an untraced registry must carry no tracer")
	}
}

// TestRemoveSeries: dropping a label pair removes exactly the series that
// carry it, across families and kinds, and releases the Func callbacks.
func TestRemoveSeries(t *testing.T) {
	r := New()
	r.CounterFunc("analytics_x_total", "x", func() uint64 { return 1 }, "layer", "dstore", "node", "n0")
	r.CounterFunc("analytics_x_total", "x", func() uint64 { return 2 }, "layer", "dstore", "node", "n1")
	r.Gauge("analytics_y", "y", "node", "n0").Set(3)
	r.Histogram("analytics_z_seconds", "z", "node", "n0").Observe(0.5)
	r.Counter("analytics_w_total", "w", "layer", "n0").Inc() // n0 as another key's value stays
	r.RemoveSeries("node", "n0")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `node="n0"`) {
		t.Fatalf("node=n0 series survived RemoveSeries:\n%s", out)
	}
	for _, want := range []string{`analytics_x_total{layer="dstore",node="n1"} 2`, `analytics_w_total{layer="n0"} 1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("RemoveSeries dropped %s:\n%s", want, out)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("analytics_ops_total", "ops", "layer", "store")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("analytics_ops_total", "ops", "layer", "store"); again != c {
		t.Fatal("re-registration must return the same series")
	}
	other := r.Counter("analytics_ops_total", "ops", "layer", "lambda")
	if other == c {
		t.Fatal("distinct labels must be distinct series")
	}

	g := r.Gauge("analytics_depth", "depth")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestFuncInstrumentsReadThroughAndRebind(t *testing.T) {
	r := New()
	n := uint64(7)
	r.CounterFunc("analytics_seen_total", "seen", func() uint64 { return n })
	c := r.Counter("analytics_seen_total", "seen")
	if got := c.Value(); got != 7 {
		t.Fatalf("func counter = %d, want 7", got)
	}
	// Re-binding swaps the callback on the same series — the dstore
	// node-store rebuild path.
	r.CounterFunc("analytics_seen_total", "seen", func() uint64 { return 99 })
	if got := c.Value(); got != 99 {
		t.Fatalf("rebound func counter = %d, want 99", got)
	}
	r.GaugeFunc("analytics_fill", "fill", func() float64 { return 0.25 })
	if got := r.Gauge("analytics_fill", "fill").Value(); got != 0.25 {
		t.Fatalf("func gauge = %v, want 0.25", got)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := New()
	a := r.Counter("analytics_x_total", "x", "b", "2", "a", "1")
	b := r.Counter("analytics_x_total", "x", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("analytics_thing_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("analytics_thing_total", "x")
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("analytics_lat_seconds", "lat")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000.0) // uniform over [0, 1)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got, want := h.Sum(), 499.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Exact nearest-rank quantiles of i/1000; the log geometry reads each
	// within relative error α = (γ−1)/(γ+1), γ = 2^(1/8).
	gamma := math.Pow(2, 1.0/perOctave)
	alpha := (gamma - 1) / (gamma + 1)
	checks := []struct{ phi, want float64 }{{0.50, 0.499}, {0.95, 0.949}, {0.99, 0.989}}
	for _, c := range checks {
		if got := h.Quantile(c.phi); math.Abs(got-c.want) > (alpha+1e-12)*c.want {
			t.Fatalf("q%.2f = %v, want %v within relative error %.4f", c.phi, got, c.want, alpha)
		}
	}
	if h.P50() != h.Quantile(0.50) || h.P95() != h.Quantile(0.95) || h.P99() != h.Quantile(0.99) {
		t.Fatal("P50/P95/P99 must match Quantile")
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	r := New()
	h := r.Histogram("analytics_clamp_seconds", "lat")
	h.Observe(-5)  // below range: first bucket
	h.Observe(1e6) // above range: final (+Inf) bucket
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `analytics_clamp_seconds_bucket{le="`+leText[0]+`"} 1`) {
		t.Fatalf("underflow not in first bucket:\n%s", out)
	}
	if !strings.Contains(out, `analytics_clamp_seconds_bucket{le="`+leText[numBounds-1]+`"} 1`) {
		t.Fatalf("overflow counted below +Inf:\n%s", out)
	}
	if !strings.Contains(out, `analytics_clamp_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("overflow not in +Inf bucket:\n%s", out)
	}
}

// TestHistogramLogGeometry pins the one bucket geometry: where values
// land, and how close the quantiles read to the exact ones.
func TestHistogramLogGeometry(t *testing.T) {
	gamma := math.Pow(2, 1.0/perOctave)
	alpha := (gamma - 1) / (gamma + 1)
	for i, b := range bounds {
		if want := math.Pow(2, float64(minExp)+float64(i)/perOctave); math.Abs(b/want-1) > 1e-15 {
			t.Fatalf("bound %d = %v, want 2^(%d+%d/8) = %v", i, b, minExp, i, want)
		}
		if got := bucketOf(b); got != i {
			t.Fatalf("bound %v (le %s) lands in bucket %d, want its own %d", b, leText[i], got, i)
		}
		if got := bucketOf(math.Nextafter(b, math.Inf(1))); got != i+1 {
			t.Fatalf("next float above bound %v lands in bucket %d, want %d", b, got, i+1)
		}
	}
	if leText[numBounds] != "+Inf" {
		t.Fatalf("last le = %q, want +Inf", leText[numBounds])
	}
	for _, c := range []struct {
		v    float64
		want int
	}{
		{0, 0}, {-1, 0}, {math.Inf(-1), 0}, {math.NaN(), 0}, {1e-7, 0},
		{math.Nextafter(bounds[0], 0), 0}, {1024.5, numBounds}, {1e300, numBounds}, {math.Inf(1), numBounds},
	} {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}

	var rng uint64 = 1
	next := func() float64 { // xorshift in [0, 1)
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / (1 << 53)
	}
	streams := map[string]func(i int) float64{
		"uniform [0,1)":   func(i int) float64 { return float64(i) / 1000 },
		"1us to 100s":     func(int) float64 { return 1e-6 * math.Pow(10, 8*next()) },
		"counts 1 to 512": func(int) float64 { return float64(1 + int(next()*512)) },
		"one value":       func(int) float64 { return 3e-3 },
	}
	r := New()
	for name, gen := range streams {
		h := r.Histogram("analytics_geometry_seconds", "g", "stream", name)
		vals := make([]float64, 1000)
		var sum float64
		for i := range vals {
			vals[i] = gen(i)
			sum += vals[i]
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		if got := h.Count(); got != uint64(len(vals)) {
			t.Fatalf("%s: count = %d, want %d", name, got, len(vals))
		}
		if got := h.Sum(); math.Abs(got-sum) > 1e-9*sum {
			t.Fatalf("%s: sum = %v, want %v", name, got, sum)
		}
		for _, q := range []struct {
			phi float64
			got float64
		}{{0.50, h.P50()}, {0.95, h.P95()}, {0.99, h.P99()}} {
			if q.got != h.Quantile(q.phi) {
				t.Fatalf("%s: P%v = %v, Quantile = %v", name, q.phi*100, q.got, h.Quantile(q.phi))
			}
			exact := vals[int(math.Ceil(q.phi*float64(len(vals))))-1]
			if math.Abs(q.got-exact) > (alpha+1e-12)*exact {
				t.Errorf("%s: q%.2f = %v, exact %v: relative error above α = %.4f", name, q.phi, q.got, exact, alpha)
			}
		}
	}
}

// TestHistogramObserveAllocs: Observe runs on every request's path, so
// it must not allocate.
func TestHistogramObserveAllocs(t *testing.T) {
	h := New().Histogram("analytics_alloc_seconds", "h")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(2.5e-4) }); n != 0 {
		t.Fatalf("Observe allocates %v times, want 0", n)
	}
}

// BenchmarkHistogramObserve times one Observe over values spread across
// the latency range, so the bucket index is not one the branch
// predictor has learned.
func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("analytics_bench_seconds", "h")
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 1e-6 * math.Pow(10, 6*float64(i*389%1024)/1024) // 1 µs to 1 s, shuffled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i%len(vals)])
	}
}

// TestSnapshotSelfConsistentUnderWriters: every /debug/analytics series
// is one read of its counters, so with writers running its count is its
// own +Inf bucket and its quantiles are ordered.
func TestSnapshotSelfConsistentUnderWriters(t *testing.T) {
	r := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("analytics_consistent_seconds", "h", "layer", "store")
			for j := 0; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				h.Observe(1e-6 * float64(1+j%5000))
			}
		}()
	}
	defer func() { close(done); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		for _, fam := range r.Snapshot() {
			for _, s := range fam.Series {
				last := s.Buckets[len(s.Buckets)-1]
				if last.Le != "+Inf" || *s.Count != last.Count {
					t.Fatalf("snapshot %d: count %d, last bucket le=%s %d", i, *s.Count, last.Le, last.Count)
				}
				if !(*s.P50 <= *s.P95 && *s.P95 <= *s.P99) {
					t.Fatalf("snapshot %d: p50 %v, p95 %v, p99 %v out of order", i, *s.P50, *s.P95, *s.P99)
				}
			}
		}
	}
}

// TestConcurrentWritesDuringEncode hammers every instrument kind from
// many goroutines while snapshots and encodes run concurrently — the
// -race coverage the issue asks for.
func TestConcurrentWritesDuringEncode(t *testing.T) {
	r := New()
	var stop sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		stop.Add(1)
		go func(worker int) {
			defer stop.Done()
			c := r.Counter("analytics_conc_total", "c", "layer", "store")
			g := r.Gauge("analytics_conc_depth", "g", "layer", "store")
			h := r.Histogram("analytics_conc_seconds", "h", "layer", "store")
			for j := 0; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%100) / 100)
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		_ = r.Snapshot()
		time.Sleep(time.Millisecond)
	}
	close(done)
	stop.Wait()

	c := r.Counter("analytics_conc_total", "c", "layer", "store")
	h := r.Histogram("analytics_conc_seconds", "h", "layer", "store")
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("writers must have landed")
	}
}
