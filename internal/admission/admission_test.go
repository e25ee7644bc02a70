package admission

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is the injected monotonic clock: tests advance it by hand,
// so every refill is exact and no test sleeps.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (f *fakeClock) now() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ns
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.ns += int64(d)
	f.mu.Unlock()
}

func newController(t *testing.T, cfg Config) (*Controller, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	cfg.Now = clk.now
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, clk
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Rate: -1}); err == nil {
		t.Fatal("negative Rate accepted")
	}
	if _, err := New(Config{Backpressure: BackpressureConfig{Lag: func() uint64 { return 0 }}}); err == nil {
		t.Fatal("Lag sampler without LagHigh accepted")
	}
	if _, err := New(Config{Backpressure: BackpressureConfig{Disk: func() uint64 { return 0 }}}); err == nil {
		t.Fatal("Disk sampler without DiskHigh accepted")
	}
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	if err := c.Admit("m", 1); err != nil {
		t.Fatalf("nil Admit: %v", err)
	}
	if err := c.AdmitTenant("t", 100); err != nil {
		t.Fatalf("nil AdmitTenant: %v", err)
	}
	if c.Level() != 0 {
		t.Fatalf("nil Level = %d", c.Level())
	}
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("nil Stats = %+v", got)
	}
}

func TestGlobalBucketBurstThenShed(t *testing.T) {
	c, clk := newController(t, Config{Rate: 10, Burst: 5})
	for i := 0; i < 5; i++ {
		if err := c.Admit("m", 1); err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
	}
	err := c.Admit("m", 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var o *Overload
	if !errors.As(err, &o) {
		t.Fatalf("want *Overload, got %T", err)
	}
	if o.Scope != "global" {
		t.Fatalf("scope = %q, want global", o.Scope)
	}
	// One token refills in 1/rate = 100ms; the quote must say so.
	if want := 100 * time.Millisecond; o.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want %v", o.RetryAfter, want)
	}
	if d, ok := Wait(err); !ok || d != o.RetryAfter {
		t.Fatalf("Wait = (%v, %v)", d, ok)
	}
	// Refill exactly the quoted wait: the same request now passes.
	clk.advance(o.RetryAfter)
	if err := c.Admit("m", 1); err != nil {
		t.Fatalf("admit after quoted wait: %v", err)
	}
	st := c.Stats()
	if st.Admitted != 6 || st.Shed != 1 || st.ShedGlobal != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchAdmissionIsAllOrNothing(t *testing.T) {
	c, _ := newController(t, Config{Rate: 10, Burst: 5})
	if err := c.Admit("m", 5); err != nil {
		t.Fatalf("admit batch of 5: %v", err)
	}
	// A batch of 3 against an empty bucket sheds whole — no partial
	// token consumption.
	if err := c.Admit("m", 3); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want shed, got %v", err)
	}
	if got := c.Tokens(); got != 0 {
		t.Fatalf("tokens after failed batch = %v, want 0 (nothing consumed)", got)
	}
	if st := c.Stats(); st.Shed != 3 {
		t.Fatalf("shed counts observations, got %+v", st)
	}
}

func TestRetryAfterCappedAtFullRefill(t *testing.T) {
	c, _ := newController(t, Config{Rate: 10, Burst: 5})
	err := c.Admit("m", 1000) // far beyond burst: can never succeed whole
	var o *Overload
	if !errors.As(err, &o) {
		t.Fatalf("want *Overload, got %v", err)
	}
	// Cap = time to refill burst from empty = 5/10 s.
	if want := 500 * time.Millisecond; o.RetryAfter > want {
		t.Fatalf("RetryAfter = %v, want <= %v", o.RetryAfter, want)
	}
}

func TestPerMetricIsolationAndGlobalRefund(t *testing.T) {
	c, _ := newController(t, Config{Rate: 100, Burst: 100, MetricRate: 10, MetricBurst: 2})
	// Exhaust hog's bucket.
	if err := c.Admit("hog", 2); err != nil {
		t.Fatalf("hog burst: %v", err)
	}
	err := c.Admit("hog", 1)
	var o *Overload
	if !errors.As(err, &o) || o.Scope != "metric" || o.Key != "hog" {
		t.Fatalf("want metric-scope shed for hog, got %v", err)
	}
	// The global tokens the hog's denial reserved were refunded, so a
	// different metric still has the full remaining global budget.
	if got, want := c.Tokens(), float64(98); got != want {
		t.Fatalf("global tokens = %v, want %v (refund on metric shed)", got, want)
	}
	if err := c.Admit("quiet", 2); err != nil {
		t.Fatalf("quiet metric throttled by hog: %v", err)
	}
	st := c.Stats()
	if st.ShedMetric != 1 || st.MetricBuckets != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTenantBuckets(t *testing.T) {
	c, clk := newController(t, Config{TenantRate: 4, TenantBurst: 2})
	if err := c.AdmitTenant("alice", 2); err != nil {
		t.Fatalf("alice burst: %v", err)
	}
	err := c.AdmitTenant("alice", 1)
	var o *Overload
	if !errors.As(err, &o) || o.Scope != "tenant" || o.Key != "alice" {
		t.Fatalf("want tenant shed for alice, got %v", err)
	}
	if !strings.Contains(o.Error(), `"alice"`) {
		t.Fatalf("Error() should name the tenant: %q", o.Error())
	}
	if err := c.AdmitTenant("bob", 2); err != nil {
		t.Fatalf("bob throttled by alice: %v", err)
	}
	clk.advance(time.Second) // refills alice fully (rate 4 > burst 2)
	if err := c.AdmitTenant("alice", 2); err != nil {
		t.Fatalf("alice after refill: %v", err)
	}
	if st := c.Stats(); st.TenantBuckets != 2 || st.ShedTenant != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSignalLevelLadder(t *testing.T) {
	cases := []struct {
		x, high uint64
		want    int
	}{
		{0, 100, 0},
		{99, 100, 0},
		{100, 100, 1},
		{199, 100, 1},
		{200, 100, 2},
		{399, 100, 2},
		{400, 100, 3},
		{800, 100, 4},
		{1 << 40, 100, 4}, // capped
		{500, 0, 0},       // disabled signal
	}
	for _, tc := range cases {
		if got := signalLevel(tc.x, tc.high); got != tc.want {
			t.Errorf("signalLevel(%d, %d) = %d, want %d", tc.x, tc.high, got, tc.want)
		}
	}
}

func TestBackpressureScalesRatesAndShedsAtMax(t *testing.T) {
	var lag uint64
	c, clk := newController(t, Config{
		Rate: 10, Burst: 10,
		Backpressure: BackpressureConfig{
			Lag:         func() uint64 { return lag },
			LagHigh:     100,
			SampleEvery: 10 * time.Millisecond,
		},
	})
	// Healthy: level 0, everything admits.
	if err := c.Admit("m", 10); err != nil {
		t.Fatalf("healthy admit: %v", err)
	}
	if c.Level() != 0 {
		t.Fatalf("level = %d, want 0", c.Level())
	}

	// Lag crosses High: next sample moves to level 1 and the refill
	// rate halves — after 1s only rate/2 = 5 tokens accrued.
	lag = 100
	clk.advance(time.Second)
	for i := 0; i < 5; i++ {
		if err := c.Admit("m", 1); err != nil {
			t.Fatalf("level-1 admit %d: %v", i, err)
		}
	}
	if c.Level() != 1 {
		t.Fatalf("level = %d, want 1", c.Level())
	}
	err := c.Admit("m", 1)
	var o *Overload
	if !errors.As(err, &o) || o.Scope != "backpressure" {
		t.Fatalf("want backpressure-attributed shed at level 1, got %v", err)
	}

	// Lag at 8*High reaches the top rung: everything sheds regardless of
	// tokens, with the resample interval as the quoted wait.
	lag = 800
	clk.advance(time.Second)
	err = c.Admit("m", 1)
	if !errors.As(err, &o) || o.Scope != "backpressure" {
		t.Fatalf("want full shed at the top rung, got %v", err)
	}
	if o.RetryAfter != 10*time.Millisecond {
		t.Fatalf("top-rung RetryAfter = %v, want the resample interval", o.RetryAfter)
	}
	if c.Level() != 4 {
		t.Fatalf("level = %d, want 4", c.Level())
	}

	// Recovery: lag drains, the next sample returns to level 0.
	lag = 0
	clk.advance(time.Second)
	if err := c.Admit("m", 1); err != nil {
		t.Fatalf("recovered admit: %v", err)
	}
	if c.Level() != 0 {
		t.Fatalf("level after recovery = %d, want 0", c.Level())
	}
	if st := c.Stats(); st.LevelChanges < 3 {
		t.Fatalf("LevelChanges = %d, want >= 3 (0→1→4→0)", st.LevelChanges)
	}
}

func TestDiskSignalTakesMax(t *testing.T) {
	var lag, disk uint64
	c, clk := newController(t, Config{
		Backpressure: BackpressureConfig{
			Lag: func() uint64 { return lag }, LagHigh: 100,
			Disk: func() uint64 { return disk }, DiskHigh: 1 << 20,
			SampleEvery: time.Millisecond,
		},
	})
	lag, disk = 50, 4<<20 // lag healthy, disk at 4*High → level 3
	clk.advance(time.Second)
	_ = c.Admit("m", 1) // trigger a sample
	if c.Level() != 3 {
		t.Fatalf("level = %d, want 3 (disk dominates)", c.Level())
	}
}

func TestSamplerRunsAtMostOncePerInterval(t *testing.T) {
	calls := 0
	c, clk := newController(t, Config{
		Backpressure: BackpressureConfig{
			Lag:         func() uint64 { calls++; return 0 },
			LagHigh:     100,
			SampleEvery: time.Second,
		},
	})
	for i := 0; i < 100; i++ {
		if err := c.Admit("m", 1); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("sampler ran %d times within one interval, want 1", calls)
	}
	clk.advance(2 * time.Second)
	_ = c.Admit("m", 1)
	if calls != 2 {
		t.Fatalf("sampler ran %d times after interval elapsed, want 2", calls)
	}
}

func TestShedTotalAccountsForEveryRejection(t *testing.T) {
	c, _ := newController(t, Config{Rate: 1, Burst: 1, TenantRate: 1, TenantBurst: 1})
	var rejected uint64
	for i := 0; i < 10; i++ {
		if err := c.Admit("m", 1); err != nil {
			rejected++
		}
		if err := c.AdmitTenant("t", 1); err != nil {
			rejected++
		}
	}
	st := c.Stats()
	if st.Shed != rejected || rejected == 0 {
		t.Fatalf("Shed = %d, want %d (every rejection accounted)", st.Shed, rejected)
	}
	if st.Shed != st.ShedGlobal+st.ShedMetric+st.ShedTenant+st.ShedPressure {
		t.Fatalf("scope counters do not sum: %+v", st)
	}
	if st.SheddedRequests != rejected {
		t.Fatalf("SheddedRequests = %d, want %d", st.SheddedRequests, rejected)
	}
	if st.MeanRetrySec <= 0 {
		t.Fatalf("MeanRetrySec = %v, want > 0", st.MeanRetrySec)
	}
}

func TestTelemetryExposition(t *testing.T) {
	reg := telemetry.New()
	c, _ := newController(t, Config{Rate: 2, Burst: 2})
	c.SetTelemetry(reg)
	for i := 0; i < 5; i++ {
		_ = c.Admit("m", 1)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"analytics_admission_admitted_total 2",
		`analytics_admission_shed_total{scope="global"} 3`,
		"analytics_admission_throttle_level 0",
		"analytics_admission_tokens 0",
		"analytics_admission_wait_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Registering on a nil registry or nil controller must not panic.
	c.SetTelemetry(nil)
	(*Controller)(nil).SetTelemetry(reg)
}

func TestConcurrentAdmitRace(t *testing.T) {
	var lag uint64 = 50
	c, _ := newController(t, Config{
		Rate: 1e6, Burst: 1e6, MetricRate: 1e6, TenantRate: 1e6,
		Now: func() int64 { return time.Now().UnixNano() },
		Backpressure: BackpressureConfig{
			Lag: func() uint64 { return lag }, LagHigh: 100,
			SampleEvery: time.Microsecond,
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			metric := fmt.Sprintf("m%d", g%3)
			for i := 0; i < 2000; i++ {
				_ = c.Admit(metric, 1)
				_ = c.AdmitTenant("t", 1)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Admitted+st.Shed != 2*8*2000 {
		t.Fatalf("admitted %d + shed %d != %d", st.Admitted, st.Shed, 2*8*2000)
	}
}

func TestZeroRatesAdmitEverything(t *testing.T) {
	c, _ := newController(t, Config{})
	for i := 0; i < 1000; i++ {
		if err := c.Admit("m", 10); err != nil {
			t.Fatalf("unlimited admit: %v", err)
		}
		if err := c.AdmitTenant("t", 10); err != nil {
			t.Fatalf("unlimited tenant admit: %v", err)
		}
	}
}
