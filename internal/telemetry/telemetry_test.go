package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("analytics_test_total", "h")
	g := r.Gauge("analytics_test", "h")
	h := r.Histogram("analytics_test_seconds", "h", 0, 1, 8)
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
	r.Histogram("analytics_z_seconds", "z", 0, 1, 4, "node", "n0").Observe(0.5)
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
	h := r.Histogram("analytics_lat_seconds", "lat", 0, 1.0, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000.0) // uniform over [0, 1)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got, want := h.Sum(), 499.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	checks := []struct{ phi, want float64 }{{0.50, 0.50}, {0.95, 0.95}, {0.99, 0.99}}
	for _, c := range checks {
		if got := h.Quantile(c.phi); math.Abs(got-c.want) > 0.02 {
			t.Fatalf("q%.2f = %v, want ~%v", c.phi, got, c.want)
		}
	}
	if h.P50() != h.Quantile(0.50) || h.P95() != h.Quantile(0.95) || h.P99() != h.Quantile(0.99) {
		t.Fatal("P50/P95/P99 must match Quantile")
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	r := New()
	h := r.Histogram("analytics_clamp_seconds", "lat", 0, 1.0, 4)
	h.Observe(-5)  // below range: first bucket
	h.Observe(100) // above range: final (+Inf) bucket
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `analytics_clamp_seconds_bucket{le="0.25"} 1`) {
		t.Fatalf("underflow not in first bucket:\n%s", out)
	}
	if !strings.Contains(out, `analytics_clamp_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("overflow not in +Inf bucket:\n%s", out)
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
			h := r.Histogram("analytics_conc_seconds", "h", 0, 1, 16, "layer", "store")
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
	h := r.Histogram("analytics_conc_seconds", "h", 0, 1, 16, "layer", "store")
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("writers must have landed")
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
	}
	if cum != h.Count() {
		t.Fatalf("bucket total %d != count %d", cum, h.Count())
	}
}
