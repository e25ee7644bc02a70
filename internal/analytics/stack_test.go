// stack_test.go is the conformance leg over the path production takes:
// every backend behind Admit(Instrument(be, reg, name), ctrl) with a
// traced registry, exactly as cmd/analyticsd stacks them. The
// decorators embed the Backend they wrap and override only what they
// change, so this leg pins both halves of that bargain — the overridden
// methods count, time and shed on every route in (no write or query
// slips past through a promoted method), and the promoted ones (Keys,
// Stats) reach the backend underneath.
package analytics

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// stack is one harness wrapped the way the daemon wraps its backend,
// with the handles the assertions read back.
type stack struct {
	harness
	top  Backend
	reg  *telemetry.Registry
	ctrl *admission.Controller
}

// newStack wraps h with a controller holding exactly burst tokens on a
// frozen clock: the budget never refills, so the test decides to the
// observation when shedding starts.
func newStack(t *testing.T, h harness, burst float64) *stack {
	t.Helper()
	ctrl, err := admission.New(admission.Config{Rate: 1, Burst: burst, Now: func() int64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	s := &stack{harness: h, reg: telemetry.NewTraced(tracedTracer()), ctrl: ctrl}
	s.top = Admit(Instrument(h.be, s.reg, h.name), ctrl)
	return s
}

// Registering a series again returns the live instrument, which is how
// these read the decorator's metrics back without parsing an exposition.

func (s *stack) observed(metric string) uint64 {
	return s.reg.Counter("analytics_backend_observe_total", "", "backend", s.name, "metric", metric).Value()
}

func (s *stack) queried(metric string) uint64 {
	return s.reg.Counter("analytics_backend_query_total", "", "backend", s.name, "metric", metric).Value()
}

func (s *stack) errs(op string) uint64 {
	return s.reg.Counter("analytics_backend_errors_total", "", "backend", s.name, "op", op).Value()
}

func (s *stack) observeCalls() uint64 {
	return s.reg.Histogram("analytics_backend_observe_seconds", "", 0, 1e-3, 64, "backend", s.name).Count()
}

func (s *stack) queryCalls() uint64 {
	return s.reg.Histogram("analytics_backend_query_seconds", "", 0, 50e-3, 64, "backend", s.name).Count()
}

// settle reaches read-your-writes: the backend's drain waits for the
// nodes to apply what the acks already put on the log.
func (s *stack) settle(t *testing.T) {
	t.Helper()
	if err := s.drain(); err != nil {
		t.Fatal(err)
	}
}

func TestBackendConformanceDecoratedStack(t *testing.T) {
	stream := conformanceStream(conformanceSpan)
	metrics := []string{"uniq", "hits", "top", "lat"}
	// The failed batch below clears admission (one token per single-metric
	// run) before the backend rejects it, so it is part of the budget;
	// after it the bucket is empty to the token.
	bad := []store.Observation{
		{Metric: "uniq", Key: "k0", Item: "poison-a", Time: 1},
		{Metric: "no-such-metric", Key: "k0", Item: "x", Time: 1},
		{Metric: "uniq", Key: "k0", Item: "poison-b", Time: 1},
	}
	burst := float64(len(stream) + len(bad))

	looped, batched := newHarnesses(t, false), newHarnesses(t, false)
	for i := range looped {
		t.Run(looped[i].name, func(t *testing.T) {
			l, b := newStack(t, looped[i], burst), newStack(t, batched[i], burst)
			registerFamilies(t, l.top)
			registerFamilies(t, b.top)
			feed(t, l.top, conformanceSpan)
			feedBatched(t, b.top, conformanceSpan)

			t.Run("batch-counts-like-loop", func(t *testing.T) {
				for _, m := range metrics {
					if got, want := b.observed(m), l.observed(m); got != want || want != conformanceSpan {
						t.Errorf("%s: batched stack counted %d observes, loop %d, want %d", m, got, want, conformanceSpan)
					}
				}
				if got := l.observeCalls(); got != uint64(len(stream)) {
					t.Errorf("loop recorded %d latency samples, want one per one-observation batch (%d)", got, len(stream))
				}
				batches := uint64((len(stream) + feedChunk - 1) / feedChunk)
				if got := b.observeCalls(); got != batches {
					t.Errorf("batched stack recorded %d latency samples, want one per ObserveBatch (%d)", got, batches)
				}
				if l.errs("observe") != 0 || b.errs("observe") != 0 {
					t.Errorf("clean ingest counted errors: loop %d, batched %d", l.errs("observe"), b.errs("observe"))
				}

				calls := b.observeCalls()
				if err := b.top.ObserveBatch(bad); !errors.Is(err, store.ErrUnknownMetric) {
					t.Fatalf("invalid batch error %v, want ErrUnknownMetric", err)
				}
				if got := b.errs("observe"); got != 1 {
					t.Errorf("failed batch counted %d errors, want 1", got)
				}
				if got := b.observeCalls(); got != calls+1 {
					t.Errorf("failed batch recorded %d latency samples, want 1", got-calls)
				}
				if got := b.observed("uniq"); got != conformanceSpan {
					t.Errorf("failed batch advanced the uniq counter to %d", got)
				}
			})

			// An ack through both decorators means the write is on the log:
			// on the log-backed harnesses every accepted record is logged
			// before any drain; the drain that follows only waits for the
			// nodes to apply it.
			if b.logged != nil {
				if got := b.logged(); got != uint64(len(stream)) {
					t.Fatalf("after the acks the log holds %d records, want %d", got, len(stream))
				}
			}
			b.settle(t)
			l.settle(t)
			want := marshalAnswers(t, l.be)
			if got := marshalAnswers(t, b.top); !reflect.DeepEqual(got, want) {
				t.Fatal("chunk-fed stack diverges from the one-observation loop after Drain")
			}
			if got, want := b.top.Stats().Observed, b.be.Stats().Observed; got != want || want == 0 {
				t.Fatalf("Stats through the stack observed %d, bare %d", got, want)
			}
			if got := b.top.Keys("uniq"); len(got) != 4 {
				t.Fatalf("Keys through the stack: %v", got)
			}

			t.Run("shed-reaches-nothing", func(t *testing.T) {
				calls, errs, counted := b.observeCalls(), b.errs("observe"), b.observed("uniq")
				seen := b.be.Stats().Observed
				for name, write := range map[string]func() error{
					"single":       func() error { return b.top.ObserveBatch([]store.Observation{stream[0]}) },
					"ObserveBatch": func() error { return b.top.ObserveBatch(stream[:8]) },
					// The package helper bench/ladder.go drives the stack with.
					"helper": func() error { return ObserveBatch(b.top, stream[:8]) },
				} {
					if err := write(); !errors.Is(err, admission.ErrOverloaded) {
						t.Fatalf("%s under an empty bucket: %v, want ErrOverloaded", name, err)
					}
				}
				if b.observeCalls() != calls || b.errs("observe") != errs || b.observed("uniq") != counted {
					t.Error("a shed write reached the instrumented layer")
				}
				b.settle(t)
				if got := b.be.Stats().Observed; got != seen {
					t.Errorf("shed writes reached the store: observed %d, want %d", got, seen)
				}
				if b.logged != nil && b.logged() != uint64(len(stream)) {
					t.Errorf("shed writes reached the log: %d records, want %d", b.logged(), len(stream))
				}
				if got := marshalAnswers(t, b.be); !reflect.DeepEqual(got, want) {
					t.Error("shed writes mutated backend state")
				}
			})

			t.Run("both-query-methods-count-and-trace", func(t *testing.T) {
				req := store.QueryRequest{Metric: "uniq", Key: "k1", From: 0, To: conformanceSpan}
				bare, err := b.be.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				routes := []func() (store.QueryResult, error){
					func() (store.QueryResult, error) { return b.top.Query(req) },
					func() (store.QueryResult, error) { return b.top.QueryContext(ctx, req) },
					func() (store.QueryResult, error) { return QueryContext(ctx, b.top, req) },
				}
				for n, route := range routes {
					counted, calls, roots := b.queried("uniq"), b.queryCalls(), b.reg.Tracer().Stats().Started
					got, err := route()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Answers(), bare.Answers()) {
						t.Errorf("route %d: answer differs from the bare backend's", n)
					}
					if b.queried("uniq") != counted+1 || b.queryCalls() != calls+1 {
						t.Errorf("route %d bypassed the query counters", n)
					}
					if b.reg.Tracer().Stats().Started != roots+1 {
						t.Errorf("route %d opened no analytics.query root", n)
					}
				}

				// The cancelled-context contract holds through the stack and
				// is counted as a query error.
				dead, cancel := context.WithCancel(ctx)
				cancel()
				errs := b.errs("query")
				if _, err := b.top.QueryContext(dead, req); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled context answered %v, want an error wrapping context.Canceled", err)
				}
				if got := b.errs("query"); got != errs+1 {
					t.Errorf("cancelled query counted %d errors, want 1", got-errs)
				}
			})
		})
	}
}
