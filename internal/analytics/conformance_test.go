// The Backend conformance suite: one set of assertions, run against
// every serving implementation (sharded store, partitioned cluster
// router, Lambda), pinning the cross-backend
// contract the package comment documents — identical unknown-metric
// errors, identical empty-answer semantics, typed accessors per synopsis
// family, half-open range bounds, and aggregate-equals-combined answers.
package analytics

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Compile-time contract checks: dropping a Backend method from any
// serving layer fails here, not at a distant call site. (serve.Client's
// assertion lives in that package — it imports this one.)
var (
	_ Backend = (*store.Store)(nil)
	_ Backend = (*dstore.Router)(nil)
	_ Backend = (*lambda.Architecture)(nil)
)

// harness is one Backend under conformance: the implementation plus a
// drain to reach read-your-writes (teardowns are t.Cleanup's), the
// traced registry the layer is wired with (nil for an unwired harness;
// trace_test.go runs the suite with tracing on) and, for the log-backed
// layers, the number of records on the ingest log (stack_test.go checks
// that every ack is on it).
type harness struct {
	name   string
	be     Backend
	drain  func() error
	reg    *telemetry.Registry
	logged func() uint64
}

// logLen counts the records appended to topic across its partitions.
func logLen(topic *mqlog.Topic) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, end := range topic.EndOffsets() {
			n += end
		}
		return n
	}
}

func storeGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}
}

// newHarnesses builds one harness per serving backend. With traced set,
// each layer is wired with a registry of its own carrying a
// sample-everything tracer (tracedTracer), before any traffic.
func newHarnesses(t *testing.T, traced bool) []harness {
	t.Helper()
	st, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}

	cl, err := dstore.New(dstore.Config{Partitions: 4, Store: storeGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	single, err := lambda.New(lambda.Config{Partitions: 2, Store: storeGeom()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })

	none := func() error { return nil }
	hs := []harness{
		{name: "store", be: st, drain: none},
		{name: "cluster-router", be: cl.Router(), drain: func() error {
			if len(cl.NodeNames()) == 0 {
				for i := 0; i < 2; i++ {
					if _, err := cl.StartNode(); err != nil {
						return err
					}
				}
			}
			return cl.Drain()
		}, logged: logLen(cl.Topic())},
		{name: "lambda-single", be: single, drain: none, logged: logLen(single.Topic())},
	}
	if traced {
		for i := range hs {
			hs[i].reg = telemetry.NewTraced(tracedTracer())
		}
		st.SetTelemetry(hs[0].reg)
		cl.SetTelemetry(hs[1].reg)
		single.SetTelemetry(hs[2].reg)
	}
	return hs
}

// registerFamilies binds one metric per synopsis family. Identical
// prototypes across backends, so answers must agree exactly.
func registerFamilies(t *testing.T, be Backend) map[string]store.Prototype {
	t.Helper()
	hll, _ := store.NewDistinctProto(12, 7)
	cm, _ := store.NewFreqProto(512, 4, 7)
	topk, _ := store.NewTopKProto(32)
	qd, _ := store.NewQuantileProto(16, 64)
	protos := map[string]store.Prototype{"uniq": hll, "hits": cm, "top": topk, "lat": qd}
	for name, p := range protos {
		if err := be.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	return protos
}

// conformanceStream materializes the deterministic conformance dataset:
// keys k0..k3, times [0, span), one observation per family per tick, in
// the exact order feed delivers them.
func conformanceStream(span int64) []store.Observation {
	out := make([]store.Observation, 0, span*4)
	for i := int64(0); i < span; i++ {
		key := fmt.Sprintf("k%d", i%4)
		item := fmt.Sprintf("u%d", i%13)
		out = append(out,
			store.Observation{Metric: "uniq", Key: key, Item: item, Time: i},
			store.Observation{Metric: "hits", Key: key, Item: item, Value: 2, Time: i},
			store.Observation{Metric: "top", Key: key, Item: item, Time: i},
			store.Observation{Metric: "lat", Key: key, Value: uint64(i), Time: i},
		)
	}
	return out
}

// feed streams the deterministic conformance dataset in one-observation
// batches — the reference delivery the chunked batches must match
// exactly.
func feed(t *testing.T, be Backend, span int64) {
	t.Helper()
	for _, obs := range conformanceStream(span) {
		if err := be.ObserveBatch([]store.Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}
}

// feedChunk is feedBatched's batch size: a prime, so chunk boundaries
// drift across ticks, metrics and keys rather than aligning with any of
// them, and every batch mixes all four metrics.
const feedChunk = 57

// feedBatched delivers the same dataset through ObserveBatch in uneven
// chunks, each handed over in one reused slice that is scribbled on as
// soon as the call returns — the serving edge's pooled batch does the
// same, which the contract allows because a backend must not keep obs.
// A backend that does keep the slice absorbs the scribble (an unknown
// metric at a negative time under an empty key) and falls off the
// one-observation oracle its caller compares it with.
func feedBatched(t *testing.T, be Backend, span int64) {
	t.Helper()
	stream := conformanceStream(span)
	lent := make([]store.Observation, feedChunk)
	for i := 0; i < len(stream); i += feedChunk {
		n := copy(lent, stream[i:])
		if err := be.ObserveBatch(lent[:n]); err != nil {
			t.Fatal(err)
		}
		for j := range lent {
			lent[j] = store.Observation{Metric: "scribbled", Item: "scribbled", Value: 1 << 40, Time: -1}
		}
	}
}

const conformanceSpan = 400

func TestBackendConformance(t *testing.T) {
	for _, h := range newHarnesses(t, false) {
		t.Run(h.name, func(t *testing.T) {
			protos := registerFamilies(t, h.be)
			feed(t, h.be, conformanceSpan)
			if err := h.drain(); err != nil {
				t.Fatal(err)
			}

			t.Run("unknown-metric", func(t *testing.T) {
				_, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "nope", Key: "k0", From: 0, To: 10})
				if !errors.Is(err, store.ErrUnknownMetric) {
					t.Fatalf("query error %v, want ErrUnknownMetric", err)
				}
				err = h.be.ObserveBatch([]store.Observation{{Metric: "nope", Key: "k0", Item: "x", Time: 0}})
				if !errors.Is(err, store.ErrUnknownMetric) {
					t.Fatalf("observe error %v, want ErrUnknownMetric", err)
				}
				if keys := h.be.Keys("nope"); len(keys) != 0 {
					t.Fatalf("keys of unknown metric %v, want none (discovery, not validation)", keys)
				}
			})

			t.Run("empty-key", func(t *testing.T) {
				// Keys route the log-backed layers' partitions, so every
				// backend refuses a batch holding an empty one, and the
				// valid observation beside it lands nowhere.
				before := marshalAnswers(t, h.be)
				err := h.be.ObserveBatch([]store.Observation{
					{Metric: "uniq", Key: "k0", Item: "empty-key-mate", Time: 1},
					{Metric: "uniq", Key: "", Item: "x", Time: 1},
				})
				if err == nil {
					t.Fatal("empty-key batch accepted")
				}
				if err := h.drain(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(marshalAnswers(t, h.be), before) {
					t.Fatal("rejected empty-key batch mutated backend state")
				}
			})

			t.Run("empty-not-error", func(t *testing.T) {
				res, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "uniq", Key: "ghost", From: 0, To: 10})
				if err != nil {
					t.Fatalf("known metric, absent key: %v", err)
				}
				if res.Len() != 1 || res.Items() != 0 {
					t.Fatalf("ghost answer cells=%d items=%d, want 1 empty cell", res.Len(), res.Items())
				}
				if res.Raw() == nil {
					t.Fatal("ghost answer has no synopsis")
				}
				// A range beyond the data is equally empty, equally not an error.
				res, err = h.be.Query(context.Background(), store.QueryRequest{Metric: "uniq", Key: "k0", From: 10 * conformanceSpan, To: 20 * conformanceSpan})
				if err != nil || res.Items() != 0 {
					t.Fatalf("out-of-range answer items=%d err=%v", res.Items(), err)
				}
			})

			t.Run("typed-accessors", func(t *testing.T) {
				res, err := h.be.Query(context.Background(), store.QueryRequest{
					Metrics: []string{"uniq", "hits", "top", "lat"},
					Key:     "k1",
					From:    0, To: conformanceSpan,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != 4 {
					t.Fatalf("cells %d, want 4", res.Len())
				}
				u, _ := res.At("uniq", "k1")
				if u.Family() != store.FamilyDistinct {
					t.Fatalf("uniq family %v", u.Family())
				}
				if got := u.Distinct(); got < 11 || got > 15 {
					t.Fatalf("distinct %d, want ~13", got)
				}
				hc, _ := res.At("hits", "k1")
				if hc.Family() != store.FamilyFreq || hc.Count("u1") == 0 {
					t.Fatalf("hits family %v count %d", hc.Family(), hc.Count("u1"))
				}
				tk, _ := res.At("top", "k1")
				if tk.Family() != store.FamilyTopK || len(tk.TopK(3)) != 3 {
					t.Fatalf("top family %v topk %v", tk.Family(), tk.TopK(3))
				}
				l, _ := res.At("lat", "k1")
				if l.Family() != store.FamilyQuantile {
					t.Fatalf("lat family %v", l.Family())
				}
				// k1 sees values 1, 5, ..., 397: the median sits near 199.
				if med := l.Quantile(0.5); med < 150 || med > 250 {
					t.Fatalf("median %d", med)
				}
			})

			t.Run("range-half-open", func(t *testing.T) {
				// Bucket width 10; [0, 10) must exclude the tick-10 bucket.
				narrow, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "hits", Key: "k0", From: 0, To: 10})
				if err != nil {
					t.Fatal(err)
				}
				wide, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "hits", Key: "k0", From: 0, To: 11})
				if err != nil {
					t.Fatal(err)
				}
				if narrow.Items() >= wide.Items() {
					t.Fatalf("[0,10) items %d not below [0,11) items %d", narrow.Items(), wide.Items())
				}
				if _, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "hits", Key: "k0", From: 5, To: 5}); err == nil {
					t.Fatal("empty range accepted")
				}
			})

			t.Run("aggregate-vs-per-key", func(t *testing.T) {
				keys := []string{"k2", "k0", "k3"}
				for metric, proto := range protos {
					agg, err := h.be.Query(context.Background(), store.QueryRequest{Metric: metric, Keys: keys, From: 0, To: conformanceSpan, Aggregate: true})
					if err != nil {
						t.Fatal(err)
					}
					perKey, err := h.be.Query(context.Background(), store.QueryRequest{Metric: metric, Keys: keys, From: 0, To: conformanceSpan})
					if err != nil {
						t.Fatal(err)
					}
					want, err := store.CombineSnapshots(proto, perKey.RawSynopses()...)
					if err != nil {
						t.Fatal(err)
					}
					assertSameAnswer(t, metric+": aggregate vs per-key + CombineSnapshots", agg.Raw(), want)
				}
			})

			t.Run("compact-answer", func(t *testing.T) {
				// k2 over five buckets: a dozen observations, sparse enough
				// for both compacting families. The reference is the dense
				// merge every backend answered with before answers
				// compacted: one dense synopsis per bucket, merged in
				// bucket order into a dense accumulator.
				const from, to, width = 100, 150, 10
				for _, metric := range []string{"uniq", "hits"} {
					res, err := h.be.Query(context.Background(), store.QueryRequest{Metric: metric, Key: "k2", From: from, To: to})
					if err != nil {
						t.Fatal(err)
					}
					ref := protos[metric].New()
					for b := int64(from); b < to; b += width {
						bucket := protos[metric].New()
						for _, o := range conformanceStream(conformanceSpan) {
							if o.Metric == metric && o.Key == "k2" && o.Time >= b && o.Time < b+width {
								bucket.Observe(o.Item, o.Value)
							}
						}
						if err := ref.Merge(bucket); err != nil {
							t.Fatal(err)
						}
					}
					if got := res.Raw().Bytes(); got*4 > ref.Bytes() {
						t.Errorf("%s: answer holds %d bytes, dense reference %d: not compact", metric, got, ref.Bytes())
					}
					assertSameAnswer(t, metric+": compact answer vs dense reference", res.Raw(), ref)
				}
			})

			t.Run("all-keys", func(t *testing.T) {
				res, err := h.be.Query(context.Background(), store.QueryRequest{Metric: "uniq", AllKeys: true, From: 0, To: conformanceSpan})
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != 4 {
					t.Fatalf("cells %d, want 4", res.Len())
				}
				for i, a := range res.Answers() {
					if want := fmt.Sprintf("k%d", i); a.Key != want || a.Items() == 0 {
						t.Fatalf("cell %d: key %s items %d", i, a.Key, a.Items())
					}
				}
				if keys := h.be.Keys("uniq"); len(keys) != 4 {
					t.Fatalf("keys %v", keys)
				}
			})

			t.Run("register-dup", func(t *testing.T) {
				if err := h.be.RegisterMetric("uniq", protos["uniq"]); err == nil {
					t.Fatal("re-registering a metric succeeded")
				}
			})

			if h.be.Stats().Observed == 0 {
				t.Fatal("stats report no observations")
			}
		})
	}
}

// Every backend fed the same stream must answer the same numbers — the
// platform design space differs in partitioning and staleness tradeoffs,
// never in what a query means.
func TestBackendsAgreeExactly(t *testing.T) {
	hs := newHarnesses(t, false)
	for _, h := range hs {
		registerFamilies(t, h.be)
		feed(t, h.be, conformanceSpan)
		if err := h.drain(); err != nil {
			t.Fatal(err)
		}
	}
	req := store.QueryRequest{
		Metrics: []string{"uniq", "hits", "top", "lat"},
		AllKeys: true,
		From:    0, To: conformanceSpan,
	}
	base, err := hs[0].be.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs[1:] {
		res, err := h.be.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != base.Len() {
			t.Fatalf("%s: %d cells vs %d", h.name, res.Len(), base.Len())
		}
		for i, a := range res.Answers() {
			b := base.Answers()[i]
			if a.Metric != b.Metric || a.Key != b.Key {
				t.Fatalf("%s: cell %d is %s/%s vs %s/%s", h.name, i, a.Metric, a.Key, b.Metric, b.Key)
			}
			switch a.Metric {
			case "uniq":
				if a.Distinct() != b.Distinct() {
					t.Errorf("%s: %s/%s distinct %d vs %d", h.name, a.Metric, a.Key, a.Distinct(), b.Distinct())
				}
			case "hits":
				for u := 0; u < 13; u++ {
					item := fmt.Sprintf("u%d", u)
					if a.Count(item) != b.Count(item) {
						t.Errorf("%s: %s/%s count(%s) %d vs %d", h.name, a.Metric, a.Key, item, a.Count(item), b.Count(item))
					}
				}
			case "top":
				if !reflect.DeepEqual(a.TopK(5), b.TopK(5)) {
					t.Errorf("%s: %s/%s topk diverges", h.name, a.Metric, a.Key)
				}
			case "lat":
				for _, phi := range []float64{0.5, 0.9, 0.99} {
					if a.Quantile(phi) != b.Quantile(phi) {
						t.Errorf("%s: %s/%s q%.2f %d vs %d", h.name, a.Metric, a.Key, phi, a.Quantile(phi), b.Quantile(phi))
					}
				}
			}
		}
	}
}

// marshalSynopsis is a synopsis' binary checkpoint bytes.
func marshalSynopsis(t *testing.T, syn store.Synopsis) []byte {
	t.Helper()
	b, err := syn.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameAnswer holds two answers to the byte-identity promise: equal
// AppendBinary bytes and equal readings through every typed accessor.
// The in-memory forms may differ — one compact, one dense.
func assertSameAnswer(t *testing.T, what string, got, want store.Synopsis) {
	t.Helper()
	if !bytes.Equal(marshalSynopsis(t, got), marshalSynopsis(t, want)) {
		t.Fatalf("%s: AppendBinary bytes differ", what)
	}
	g, w := store.NewAnswer("", "", got), store.NewAnswer("", "", want)
	if g.Family() != w.Family() || g.Items() != w.Items() || g.Distinct() != w.Distinct() ||
		g.Quantile(0.5) != w.Quantile(0.5) || !reflect.DeepEqual(g.TopK(5), w.TopK(5)) {
		t.Fatalf("%s: accessors differ", what)
	}
	for u := 0; u < 13; u++ {
		if item := fmt.Sprintf("u%d", u); g.Count(item) != w.Count(item) {
			t.Fatalf("%s: Count(%s) %d vs %d", what, item, g.Count(item), w.Count(item))
		}
	}
}

// marshalAnswers snapshots every answer cell of the full-dataset query
// as its binary checkpoint bytes — the strictest equality the synopses
// offer.
func marshalAnswers(t *testing.T, be Backend) [][]byte {
	t.Helper()
	res, err := be.Query(context.Background(), store.QueryRequest{
		Metrics: []string{"uniq", "hits", "top", "lat"},
		AllKeys: true,
		From:    0, To: conformanceSpan,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 0, res.Len())
	for _, a := range res.Answers() {
		out = append(out, marshalSynopsis(t, a.Raw()))
	}
	if len(out) == 0 {
		t.Fatal("no answer cells to snapshot")
	}
	return out
}

// TestBackendConformanceObserveBatch pins the ObserveBatch contract on
// every backend: a delivery in chunked batches is byte-identical to
// one-observation batches, an empty batch is a no-op, and an invalid
// batch mutates nothing (all-or-nothing).
func TestBackendConformanceObserveBatch(t *testing.T) {
	looped := newHarnesses(t, false)
	batched := newHarnesses(t, false)
	for i, h := range looped {
		h := h
		b := batched[i]
		t.Run(h.name, func(t *testing.T) {
			registerFamilies(t, h.be)
			registerFamilies(t, b.be)
			feed(t, h.be, conformanceSpan)
			feedBatched(t, b.be, conformanceSpan)
			if err := h.drain(); err != nil {
				t.Fatal(err)
			}
			if err := b.drain(); err != nil {
				t.Fatal(err)
			}

			want := marshalAnswers(t, h.be)
			got := marshalAnswers(t, b.be)
			if len(got) != len(want) {
				t.Fatalf("batched backend answers %d cells, loop %d", len(got), len(want))
			}
			for j := range want {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("cell %d: chunked-batch synopsis bytes diverge from one-observation batches", j)
				}
			}

			if err := b.be.ObserveBatch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}

			// All-or-nothing: a batch with one invalid observation
			// leaves the backend byte-identical to before the call.
			bad := []store.Observation{
				{Metric: "uniq", Key: "k0", Item: "poison-a", Time: 1},
				{Metric: "no-such-metric", Key: "k0", Item: "x", Time: 1},
				{Metric: "uniq", Key: "k0", Item: "poison-b", Time: 1},
			}
			if err := b.be.ObserveBatch(bad); !errors.Is(err, store.ErrUnknownMetric) {
				t.Fatalf("invalid batch error %v, want ErrUnknownMetric", err)
			}
			late := []store.Observation{
				{Metric: "uniq", Key: "k0", Item: "poison-c", Time: 1},
				{Metric: "uniq", Key: "k0", Item: "poison-d", Time: -1},
			}
			if err := b.be.ObserveBatch(late); err == nil {
				t.Fatal("negative-time batch accepted")
			}
			if err := b.drain(); err != nil {
				t.Fatal(err)
			}
			after := marshalAnswers(t, b.be)
			if !reflect.DeepEqual(after, got) {
				t.Fatal("rejected batch mutated backend state")
			}
		})
	}
}

// TestBackendConformanceOverloadShed pins the admission property the
// overload design rests on: under a rate that sheds most of a stream,
// the accepted writes land byte-identical to an unthrottled oracle fed
// only the accepted subset, and shed requests — single or batched —
// mutate nothing and carry a usable Retry-After.
func TestBackendConformanceOverloadShed(t *testing.T) {
	st, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}
	registerFamilies(t, st)
	registerFamilies(t, oracle)

	var ns int64 // frozen fake clock: no refill unless the test advances it
	ctrl, err := admission.New(admission.Config{
		Rate:  1,
		Burst: 10,
		Now:   func() int64 { return ns },
	})
	if err != nil {
		t.Fatal(err)
	}
	be := Admit(st, ctrl)

	stream := conformanceStream(10) // 40 observations against 10 tokens
	var accepted []store.Observation
	for _, obs := range stream {
		err := be.ObserveBatch([]store.Observation{obs})
		if err == nil {
			accepted = append(accepted, obs)
			continue
		}
		if !errors.Is(err, admission.ErrOverloaded) {
			t.Fatalf("shed error %v, want ErrOverloaded", err)
		}
		if wait, ok := admission.Wait(err); !ok || wait <= 0 {
			t.Fatalf("shed error %v quotes no Retry-After", err)
		}
	}
	if len(accepted) != 10 {
		t.Fatalf("accepted %d writes, want exactly the 10-token burst", len(accepted))
	}
	for _, obs := range accepted {
		if err := oracle.ObserveBatch([]store.Observation{obs}); err != nil {
			t.Fatal(err)
		}
	}

	// Shed writes provably never reached the store.
	if got := st.Stats().Observed; got != uint64(len(accepted)) {
		t.Fatalf("store observed %d writes, want %d (shed writes leaked through)", got, len(accepted))
	}
	stats := ctrl.Stats()
	if stats.Admitted != uint64(len(accepted)) {
		t.Fatalf("controller admitted %d, want %d", stats.Admitted, len(accepted))
	}
	if want := uint64(len(stream) - len(accepted)); stats.Shed != want {
		t.Fatalf("controller shed %d, want %d — every rejection must be accounted", stats.Shed, want)
	}

	// Byte-identical to the oracle fed only the accepted subset.
	want := marshalAnswers(t, oracle)
	got := marshalAnswers(t, st)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("throttled store diverges from oracle fed the accepted subset")
	}

	// A shed batch is all-or-nothing too: with the bucket empty the
	// whole batch bounces and nothing mutates.
	if err := be.ObserveBatch(stream); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("batch under empty bucket: %v, want ErrOverloaded", err)
	}
	if got := st.Stats().Observed; got != uint64(len(accepted)) {
		t.Fatalf("shed batch mutated the store: observed %d, want %d", got, len(accepted))
	}

	// Waiting exactly the quoted Retry-After re-admits: the sentinel's
	// number is actionable, not advisory.
	err = be.ObserveBatch([]store.Observation{stream[0]})
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("empty bucket admitted a write: %v", err)
	}
	wait, ok := admission.Wait(err)
	if !ok {
		t.Fatalf("shed error %v carries no Overload", err)
	}
	ns += int64(wait)
	if err := be.ObserveBatch([]store.Observation{stream[0]}); err != nil {
		t.Fatalf("write after waiting the quoted Retry-After: %v", err)
	}
}
