// bench_test.go: the ingest cost model under admission — bare store
// writes vs the same writes through the Admit decorator vs batched
// delivery — plus the alloc gate pinning that an admitted-but-
// unthrottled write costs at most one allocation over the bare path.
package analytics

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/store"
)

// benchStore builds a store with one distinct-count metric.
func benchStore(b testing.TB) Backend {
	b.Helper()
	st, err := store.New(storeGeom())
	if err != nil {
		b.Fatal(err)
	}
	hll, _ := store.NewDistinctProto(12, 7)
	if err := st.RegisterMetric("uniq", hll); err != nil {
		b.Fatal(err)
	}
	return st
}

// openController admits everything: rates high enough that the bucket
// never empties, so the benchmark measures admission overhead, not
// shedding.
func openController(b testing.TB) *admission.Controller {
	b.Helper()
	ctrl, err := admission.New(admission.Config{Rate: 1e12, Burst: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	return ctrl
}

func benchObs(i int) store.Observation {
	return store.Observation{Metric: "uniq", Key: "k0", Item: fmt.Sprintf("u%d", i%512), Time: int64(i)}
}

// TestAdmittedObserveAllocGate is the alloc budget the Admit doc
// promises: an admitted-but-unthrottled one-observation ObserveBatch
// adds at most one allocation per op over the bare backend. The batch
// slice is the caller's and reused, as the contract allows.
func TestAdmittedObserveAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent; skipped in -short")
	}
	measure := func(be Backend) float64 {
		i := 0
		batch := make([]store.Observation, 1)
		return testing.AllocsPerRun(200, func() {
			batch[0] = benchObs(i)
			if err := be.ObserveBatch(batch); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	bare := measure(benchStore(t))
	admitted := measure(Admit(benchStore(t), openController(t)))
	if admitted > bare+1 {
		t.Fatalf("admitted path allocates %.1f/op, bare %.1f/op — admission may add at most 1", admitted, bare)
	}
}

// BenchmarkIngestBare is the floor: one one-observation batch per op,
// no decorators.
func BenchmarkIngestBare(b *testing.B) {
	benchIngestSingles(b, benchStore(b))
}

// BenchmarkIngestAdmitted is the same write through Admit with a bucket
// that never empties: the per-write admission tax.
func BenchmarkIngestAdmitted(b *testing.B) {
	benchIngestSingles(b, Admit(benchStore(b), openController(b)))
}

// benchIngestSingles writes one observation per op through be, as a
// one-element batch in a reused slice.
func benchIngestSingles(b *testing.B, be Backend) {
	batch := make([]store.Observation, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch[0] = benchObs(i)
		if err := be.ObserveBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBatched delivers the same admitted stream in
// 256-observation batches: one Admit call and one shard-group lock
// acquisition amortized across the run.
func BenchmarkIngestBatched(b *testing.B) {
	be := Admit(benchStore(b), openController(b))
	const size = 256
	batch := make([]store.Observation, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		n := size
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			batch[j] = benchObs(i + j)
		}
		if err := be.ObserveBatch(batch[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEachMetric pins the tally both decorators price a batch by: one
// call per distinct metric with its exact share in first-appearance
// order however the batch interleaves, totals preserved when a batch
// names more metrics than the tally holds, the first error returned at
// once, and no allocation on the decorated batch path.
func TestEachMetric(t *testing.T) {
	type call struct {
		metric string
		n      int
	}
	collect := func(obs []store.Observation) []call {
		var calls []call
		if err := eachMetric(obs, func(m string, n int) error {
			calls = append(calls, call{m, n})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	var interleaved []store.Observation
	for i := 0; i < 64; i++ {
		for _, m := range []string{"uniq", "hits", "top", "lat"} {
			interleaved = append(interleaved, store.Observation{Metric: m})
		}
	}
	interleaved = append(interleaved, store.Observation{Metric: "top"})
	want := []call{{"uniq", 64}, {"hits", 64}, {"top", 65}, {"lat", 64}}
	if got := collect(interleaved); !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved batch tallied %v, want %v", got, want)
	}
	if got := collect(nil); got != nil {
		t.Fatalf("empty batch tallied %v", got)
	}

	var wide []store.Observation
	for i := 0; i < 3*(maxTally+3); i++ {
		wide = append(wide, store.Observation{Metric: fmt.Sprintf("m%d", i%(maxTally+3))})
	}
	totals := map[string]int{}
	for _, c := range collect(wide) {
		totals[c.metric] += c.n
	}
	if len(totals) != maxTally+3 {
		t.Fatalf("wide batch tallied %d metrics, want %d", len(totals), maxTally+3)
	}
	for m, n := range totals {
		if n != 3 {
			t.Fatalf("metric %s tallied %d, want 3", m, n)
		}
	}

	boom := errors.New("boom")
	calls := 0
	if err := eachMetric(interleaved, func(string, int) error { calls++; return boom }); err != boom || calls != 1 {
		t.Fatalf("error path: err %v after %d calls, want boom after 1", err, calls)
	}

	ctrl := openController(t)
	total := 0
	if allocs := testing.AllocsPerRun(100, func() {
		_ = eachMetric(interleaved, ctrl.Admit)
		_ = eachMetric(interleaved, func(_ string, n int) error { total += n; return nil })
	}); allocs != 0 {
		t.Fatalf("tallying a batch allocates %.0f times, want 0", allocs)
	}
}
