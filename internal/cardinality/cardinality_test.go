package cardinality

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func relErr(est float64, truth int) float64 {
	return math.Abs(est-float64(truth)) / float64(truth)
}

func TestHLLParamValidation(t *testing.T) {
	if _, err := NewHyperLogLog(3, 1); err == nil {
		t.Fatal("precision 3 accepted")
	}
	if _, err := NewHyperLogLog(19, 1); err == nil {
		t.Fatal("precision 19 accepted")
	}
	if _, err := NewHyperLogLog(12, 1); err != nil {
		t.Fatalf("valid precision rejected: %v", err)
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		h, _ := NewHyperLogLog(12, 42)
		for _, x := range workload.Distinct(workload.NewRNG(1), n) {
			h.UpdateUint64(x)
		}
		// p=12 -> 4096 registers -> stderr ~1.6%; allow 5 sigma.
		if e := relErr(h.Estimate(), n); e > 0.08 {
			t.Fatalf("n=%d: relative error %.3f too large", n, e)
		}
	}
}

func TestHLLDuplicateInsensitive(t *testing.T) {
	h1, _ := NewHyperLogLog(10, 7)
	h2, _ := NewHyperLogLog(10, 7)
	for i := uint64(0); i < 1000; i++ {
		h1.UpdateUint64(i)
		for rep := 0; rep < 5; rep++ {
			h2.UpdateUint64(i)
		}
	}
	if h1.Estimate() != h2.Estimate() {
		t.Fatalf("duplicates changed estimate: %v vs %v", h1.Estimate(), h2.Estimate())
	}
}

func TestHLLSmallRangeExact(t *testing.T) {
	h, _ := NewHyperLogLog(12, 7)
	for i := uint64(0); i < 50; i++ {
		h.UpdateUint64(i)
	}
	if e := relErr(h.Estimate(), 50); e > 0.05 {
		t.Fatalf("small-range correction inaccurate: %v", h.Estimate())
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	full, _ := NewHyperLogLog(11, 9)
	a, _ := NewHyperLogLog(11, 9)
	b, _ := NewHyperLogLog(11, 9)
	stream := workload.Distinct(workload.NewRNG(2), 20000)
	for i, x := range stream {
		full.UpdateUint64(x)
		if i%2 == 0 {
			a.UpdateUint64(x)
		} else {
			b.UpdateUint64(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != full.Estimate() {
		t.Fatalf("merge not union-equivalent: %v vs %v", a.Estimate(), full.Estimate())
	}
	if a.Items() != full.Items() {
		t.Fatalf("merged item count wrong: %d vs %d", a.Items(), full.Items())
	}
}

func TestHLLMergeIncompatible(t *testing.T) {
	a, _ := NewHyperLogLog(10, 1)
	b, _ := NewHyperLogLog(11, 1)
	c, _ := NewHyperLogLog(10, 2)
	if err := a.Merge(b); err == nil {
		t.Fatal("merged different precisions")
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("merged different seeds")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merged nil")
	}
}

func TestHLLSerializationRoundTrip(t *testing.T) {
	h, _ := NewHyperLogLog(10, 5)
	for i := uint64(0); i < 5000; i++ {
		h.UpdateUint64(i)
	}
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h2 HyperLogLog
	if err := h2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if h2.Estimate() != h.Estimate() || h2.Items() != h.Items() {
		t.Fatal("round trip changed sketch")
	}
	if err := h2.UnmarshalBinary(data[:10]); err == nil {
		t.Fatal("truncated decode accepted")
	}
	data[0] = 3
	if err := h2.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupt precision accepted")
	}
}

// FuzzHyperLogLogUnmarshal: the HyperLogLog decoder on bytes it did not
// write never panics, allocates within a bound of the input's size, and
// accepts only what re-marshals to the same bytes — decoded into a
// sparse receiver and into a dense one, which accept the same inputs.
func FuzzHyperLogLogUnmarshal(f *testing.F) {
	add := func(precision uint8, n int) {
		h, _ := NewSparseHLL(precision, 7)
		for i := 0; i < n; i++ {
			h.UpdateUint64(uint64(i))
		}
		b, _ := h.MarshalBinary()
		f.Add(b)
	}
	add(4, 0)     // empty
	add(4, 3)     // the smallest precision
	add(10, 20)   // sparse
	add(10, 5000) // dense
	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted []bool
		for _, fresh := range []func() *HyperLogLog{
			func() *HyperLogLog { h, _ := NewSparseHLL(10, 7); return h },
			func() *HyperLogLog { h, _ := NewHyperLogLog(10, 7); return h },
		} {
			// TotalAlloc is process-wide and the fuzz engine allocates
			// beside the target, so the bound holds the least of three
			// decodes, each into a fresh receiver.
			var h *HyperLogLog
			var err error
			grew := uint64(math.MaxUint64)
			for range 3 {
				h = fresh()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = h.UnmarshalBinary(data)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > uint64(8*len(data)+8192) {
				t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
			}
			if accepted = append(accepted, err == nil); err != nil {
				continue
			}
			if got, _ := h.MarshalBinary(); !bytes.Equal(got, data) {
				t.Fatalf("accepted bytes re-marshal differently (sparse receiver: %v)", h.IsSparse())
			}
		}
		if accepted[0] != accepted[1] {
			t.Fatalf("the sparse receiver accepted: %v, the dense one: %v", accepted[0], accepted[1])
		}
	})
}

func TestLinearCounterAccuracyBelowCapacity(t *testing.T) {
	lc, _ := NewLinearCounter(1<<16, 3)
	n := 10000
	for _, x := range workload.Distinct(workload.NewRNG(3), n) {
		lc.UpdateUint64(x)
	}
	if e := relErr(lc.Estimate(), n); e > 0.05 {
		t.Fatalf("linear counting error %.3f too large", e)
	}
}

func TestLinearCounterSaturationFinite(t *testing.T) {
	lc, _ := NewLinearCounter(64, 3)
	for i := uint64(0); i < 100000; i++ {
		lc.UpdateUint64(i)
	}
	if est := lc.Estimate(); math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("saturated estimate not finite: %v", est)
	}
}

func TestLinearCounterMerge(t *testing.T) {
	a, _ := NewLinearCounter(1<<14, 1)
	b, _ := NewLinearCounter(1<<14, 1)
	full, _ := NewLinearCounter(1<<14, 1)
	for i := uint64(0); i < 2000; i++ {
		full.UpdateUint64(i)
		if i%2 == 0 {
			a.UpdateUint64(i)
		} else {
			b.UpdateUint64(i)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != full.Estimate() {
		t.Fatal("linear counter merge not union-equivalent")
	}
}

func TestPCSAAccuracy(t *testing.T) {
	p, _ := NewPCSA(256, 11)
	n := 100000
	for _, x := range workload.Distinct(workload.NewRNG(4), n) {
		p.UpdateUint64(x)
	}
	// PCSA stderr ~0.78/sqrt(256) ~ 5%; allow generous slack.
	if e := relErr(p.Estimate(), n); e > 0.25 {
		t.Fatalf("PCSA error %.3f too large (est %v)", e, p.Estimate())
	}
}

func TestLogLogAccuracy(t *testing.T) {
	l, _ := NewLogLog(12, 13)
	n := 100000
	for _, x := range workload.Distinct(workload.NewRNG(5), n) {
		l.UpdateUint64(x)
	}
	// LogLog stderr ~1.30/sqrt(4096) ~ 2%; allow 6 sigma.
	if e := relErr(l.Estimate(), n); e > 0.15 {
		t.Fatalf("LogLog error %.3f too large (est %v)", e, l.Estimate())
	}
}

func TestLogLogVsHLLOrdering(t *testing.T) {
	// The survey's qualitative claim: HLL refines LogLog at equal m.
	// Averaged over several seeds, HLL error should not exceed LogLog's
	// by more than noise.
	var llErr, hllErr float64
	const trials = 5
	n := 50000
	for s := uint64(0); s < trials; s++ {
		l, _ := NewLogLog(10, 100+s)
		h, _ := NewHyperLogLog(10, 100+s)
		for _, x := range workload.Distinct(workload.NewRNG(60+s), n) {
			l.UpdateUint64(x)
			h.UpdateUint64(x)
		}
		llErr += relErr(l.Estimate(), n)
		hllErr += relErr(h.Estimate(), n)
	}
	if hllErr > llErr*1.5 {
		t.Fatalf("HLL (%.4f) much worse than LogLog (%.4f)", hllErr/trials, llErr/trials)
	}
}

func TestKMVAccuracy(t *testing.T) {
	k, _ := NewKMV(1024, 17)
	n := 100000
	for _, x := range workload.Distinct(workload.NewRNG(6), n) {
		k.UpdateUint64(x)
	}
	// KMV stderr ~1/sqrt(k-2) ~ 3%; allow 5 sigma.
	if e := relErr(k.Estimate(), n); e > 0.16 {
		t.Fatalf("KMV error %.3f too large", e)
	}
}

func TestKMVExactBelowK(t *testing.T) {
	k, _ := NewKMV(100, 17)
	for i := uint64(0); i < 50; i++ {
		k.UpdateUint64(i)
		k.UpdateUint64(i) // duplicates must not inflate
	}
	if est := k.Estimate(); est != 50 {
		t.Fatalf("below-k estimate %v, want exactly 50", est)
	}
}

func TestKMVMergeEqualsUnion(t *testing.T) {
	full, _ := NewKMV(512, 19)
	a, _ := NewKMV(512, 19)
	b, _ := NewKMV(512, 19)
	stream := workload.Distinct(workload.NewRNG(7), 30000)
	for i, x := range stream {
		full.UpdateUint64(x)
		if i < len(stream)/2 {
			a.UpdateUint64(x)
		} else {
			b.UpdateUint64(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != full.Estimate() {
		t.Fatalf("KMV merge not union-equivalent: %v vs %v", a.Estimate(), full.Estimate())
	}
}

func TestKMVJaccard(t *testing.T) {
	a, _ := NewKMV(1024, 23)
	b, _ := NewKMV(1024, 23)
	// 50% overlap: A = [0,10000), B = [5000,15000) -> J = 5000/15000 = 1/3.
	for i := uint64(0); i < 10000; i++ {
		a.UpdateUint64(i)
	}
	for i := uint64(5000); i < 15000; i++ {
		b.UpdateUint64(i)
	}
	j, err := a.Jaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-1.0/3.0) > 0.07 {
		t.Fatalf("Jaccard %v, want ~0.333", j)
	}
}

func TestSparseHLLStartsSparseAndConverts(t *testing.T) {
	s, _ := NewSparseHLL(14, 29)
	for i := uint64(0); i < 10; i++ {
		s.UpdateUint64(i)
	}
	if !s.IsSparse() {
		t.Fatal("should still be sparse at 10 items")
	}
	if e := relErr(s.Estimate(), 10); e > 0.01 {
		t.Fatalf("sparse estimate %v for 10 distinct", s.Estimate())
	}
	for i := uint64(0); i < 100000; i++ {
		s.UpdateUint64(i)
	}
	if s.IsSparse() {
		t.Fatal("should have converted to dense")
	}
	if e := relErr(s.Estimate(), 100000); e > 0.08 {
		t.Fatalf("dense estimate error %.3f", e)
	}
}

// A sparse receiver decodes into the form and footprint the encoded
// sketch was in: the occupied registers while they fit the sparse form,
// counted by capacity as updates grew them; dense past the crossover. A
// dense receiver always decodes dense.
func TestSparseHLLDecodeKeepsForm(t *testing.T) {
	live, _ := NewSparseHLL(10, 5)
	for i := uint64(0); i < 400; i++ {
		live.UpdateUint64(i)
		raw, _ := live.MarshalBinary()
		recv, _ := NewSparseHLL(10, 5)
		if err := recv.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		got, _ := recv.MarshalBinary()
		if !bytes.Equal(got, raw) || recv.Estimate() != live.Estimate() {
			t.Fatalf("after %d items: decoded sketch differs", i+1)
		}
		if recv.IsSparse() != live.IsSparse() || recv.Bytes() != live.Bytes() {
			t.Fatalf("after %d items: decoded sparse %v in %d bytes, live %v in %d",
				i+1, recv.IsSparse(), recv.Bytes(), live.IsSparse(), live.Bytes())
		}
		dense, _ := NewHyperLogLog(10, 5)
		if err := dense.UnmarshalBinary(raw); err != nil || dense.IsSparse() {
			t.Fatalf("after %d items: dense receiver decoded sparse %v (%v)", i+1, dense.IsSparse(), err)
		}
	}
	if live.IsSparse() {
		t.Fatal("400 distinct items left a p10 sketch sparse")
	}
	// Bytes counts the sparse entries' allocation, which Reset keeps.
	small, _ := NewSparseHLL(10, 5)
	for i := uint64(0); i < 20; i++ {
		small.UpdateUint64(i)
	}
	held := small.Bytes()
	small.Reset()
	if small.Bytes() != held {
		t.Fatalf("a reset sparse sketch reports %d bytes, its allocation is %d", small.Bytes(), held)
	}
}

func TestSparseHLLMergeMixedModes(t *testing.T) {
	mkPair := func() (*SparseHLL, *SparseHLL) {
		a, _ := NewSparseHLL(12, 31)
		b, _ := NewSparseHLL(12, 31)
		return a, b
	}
	// sparse + sparse
	a, b := mkPair()
	for i := uint64(0); i < 20; i++ {
		a.UpdateUint64(i)
		b.UpdateUint64(i + 20)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.Estimate(), 40); e > 0.02 {
		t.Fatalf("sparse+sparse merge estimate %v", a.Estimate())
	}
	// dense + sparse
	a, b = mkPair()
	for i := uint64(0); i < 50000; i++ {
		a.UpdateUint64(i)
	}
	for i := uint64(50000); i < 50040; i++ {
		b.UpdateUint64(i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.Estimate(), 50040); e > 0.08 {
		t.Fatalf("dense+sparse merge error %.3f", e)
	}
	// sparse + dense
	a, b = mkPair()
	for i := uint64(0); i < 40; i++ {
		a.UpdateUint64(i)
	}
	for i := uint64(40); i < 50040; i++ {
		b.UpdateUint64(i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.Estimate(), 50040); e > 0.08 {
		t.Fatalf("sparse+dense merge error %.3f", e)
	}
}

func TestSparseSortedEntries(t *testing.T) {
	s, _ := NewSparseHLL(14, 37)
	for i := uint64(0); i < 30; i++ {
		s.UpdateUint64(i)
	}
	entries := s.SortedEntries()
	if len(entries) == 0 {
		t.Fatal("no sparse entries")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Index >= entries[i].Index {
			t.Fatal("entries not sorted")
		}
	}
}

func TestSlidingHLLWindow(t *testing.T) {
	s, _ := NewSlidingHLL(12, 10000, 41)
	// 20000 ticks, one new distinct item per tick.
	for i := uint64(0); i < 20000; i++ {
		s.UpdateUint64(i)
		s.Advance()
	}
	// Last 10000 ticks saw exactly 10000 distinct items.
	if e := relErr(s.EstimateWindow(10000), 10000); e > 0.1 {
		t.Fatalf("window estimate error %.3f (est %v)", e, s.EstimateWindow(10000))
	}
	// Smaller window, smaller count.
	if e := relErr(s.EstimateWindow(1000), 1000); e > 0.15 {
		t.Fatalf("small-window estimate error %.3f (est %v)", e, s.EstimateWindow(1000))
	}
}

func TestSlidingHLLMonotoneInWindow(t *testing.T) {
	s, _ := NewSlidingHLL(10, 5000, 43)
	rng := workload.NewRNG(8)
	for i := 0; i < 20000; i++ {
		s.UpdateUint64(uint64(rng.Intn(3000)))
		s.Advance()
	}
	small := s.EstimateWindow(100)
	large := s.EstimateWindow(5000)
	if small > large*1.05 {
		t.Fatalf("estimate not monotone in window: %v > %v", small, large)
	}
}

func TestSlidingHLLListsStayShort(t *testing.T) {
	s, _ := NewSlidingHLL(10, 10000, 47)
	rng := workload.NewRNG(9)
	for i := 0; i < 200000; i++ {
		s.UpdateUint64(rng.Uint64())
		s.Advance()
	}
	// LFPM lists are logarithmic in expectation; 64 is a loose ceiling.
	if m := s.MaxListLen(); m > 64 {
		t.Fatalf("LFPM list grew to %d", m)
	}
	if p := s.ListLenPercentile(50); p > 16 {
		t.Fatalf("median LFPM list %d too long", p)
	}
}

func TestQuickHLLMergeCommutes(t *testing.T) {
	f := func(xs []uint64, ys []uint64) bool {
		a1, _ := NewHyperLogLog(8, 3)
		b1, _ := NewHyperLogLog(8, 3)
		a2, _ := NewHyperLogLog(8, 3)
		b2, _ := NewHyperLogLog(8, 3)
		for _, x := range xs {
			a1.UpdateUint64(x)
			a2.UpdateUint64(x)
		}
		for _, y := range ys {
			b1.UpdateUint64(y)
			b2.UpdateUint64(y)
		}
		_ = a1.Merge(b1) // a <- a ∪ b
		_ = b2.Merge(a2) // b <- b ∪ a
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKMVNeverExceedsTruthWildly(t *testing.T) {
	// Property: for any input multiset, the KMV estimate is within a
	// constant factor of the true distinct count when below k (exact) and
	// never NaN/Inf.
	f := func(xs []uint64) bool {
		k, _ := NewKMV(64, 5)
		for _, x := range xs {
			k.UpdateUint64(x)
		}
		est := k.Estimate()
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			return false
		}
		truth := float64(workload.ExactDistinct(xs))
		if truth <= 64 {
			return est == truth
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHLLUpdate(b *testing.B) {
	h, _ := NewHyperLogLog(14, 1)
	for i := 0; i < b.N; i++ {
		h.UpdateUint64(uint64(i))
	}
}

func BenchmarkKMVUpdate(b *testing.B) {
	k, _ := NewKMV(1024, 1)
	for i := 0; i < b.N; i++ {
		k.UpdateUint64(uint64(i))
	}
}

func BenchmarkSlidingHLLUpdate(b *testing.B) {
	s, _ := NewSlidingHLL(12, 100000, 1)
	for i := 0; i < b.N; i++ {
		s.UpdateUint64(uint64(i))
		s.Advance()
	}
}

func TestHLLReset(t *testing.T) {
	h, _ := NewHyperLogLog(10, 5)
	for i := 0; i < 5000; i++ {
		h.UpdateString(fmt.Sprintf("u%d", i))
	}
	h.Reset()
	if h.Items() != 0 || h.Estimate() != 0 {
		t.Fatalf("reset HLL not empty: items %d, estimate %f", h.Items(), h.Estimate())
	}
	// A reset sketch answers exactly like a fresh one (same seed).
	fresh, _ := NewHyperLogLog(10, 5)
	for i := 0; i < 3000; i++ {
		h.UpdateString(fmt.Sprintf("v%d", i))
		fresh.UpdateString(fmt.Sprintf("v%d", i))
	}
	if h.Estimate() != fresh.Estimate() {
		t.Fatalf("reset %f != fresh %f", h.Estimate(), fresh.Estimate())
	}
}

// compacted returns h's Compact copy, or nil when h offers none,
// in which case Compact must have left its destination alone.
func compacted(h *HyperLogLog) *HyperLogLog {
	var c HyperLogLog
	if !h.Compact(&c) {
		if !reflect.DeepEqual(c, HyperLogLog{}) {
			panic("Compact refused a copy yet wrote its destination")
		}
		return nil
	}
	return &c
}

// Compact is the dense-to-sparse direction the sketch store uses at
// bucket seal: the copy must be indistinguishable from its source — same
// bytes, same estimate, same behaviour on either side of a merge and
// under further updates — and is offered only while it costs under half
// the registers.
func TestHyperLogLogCompact(t *testing.T) {
	dense, _ := NewHyperLogLog(10, 5)
	for i := uint64(0); i < 40; i++ {
		dense.UpdateUint64(i % 25)
	}
	sparse := compacted(dense)
	if sparse == nil || !sparse.IsSparse() || compacted(sparse) != nil {
		t.Fatal("a 25-item p=10 sketch must compact exactly once")
	}
	if 2*sparse.Bytes() >= dense.Bytes() {
		t.Fatalf("sparse form %d bytes of %d", sparse.Bytes(), dense.Bytes())
	}
	same := func(a, b *HyperLogLog, what string) {
		t.Helper()
		ab, _ := a.MarshalBinary()
		bb, _ := b.MarshalBinary()
		if !bytes.Equal(ab, bb) || a.Estimate() != b.Estimate() || a.Items() != b.Items() {
			t.Fatalf("%s: sparse and dense forms diverge", what)
		}
	}
	same(sparse, dense, "compact copy")
	// Further updates keep the forms in step, through the conversion back
	// to registers (128 occupied of 1024 is where sparse stops paying).
	for i := uint64(100); i < 400; i++ {
		sparse.UpdateUint64(i)
		dense.UpdateUint64(i)
		same(sparse, dense, "after update")
	}
	if sparse.IsSparse() {
		t.Fatal("300 more items should have converted the sketch to registers")
	}
	if compacted(dense) != nil {
		t.Fatal("a sketch past the crossover compacted")
	}
	// Decode reuses a matching register array and leaves the sparse form.
	recv, _ := NewSparseHLL(10, 5)
	data, _ := dense.MarshalBinary()
	if err := recv.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	same(recv, dense, "decode into a sparse receiver")
	regs := &dense.registers[0]
	if err := dense.UnmarshalBinary(data); err != nil || &dense.registers[0] != regs {
		t.Fatalf("decode reallocated a register array of the right size (err %v)", err)
	}
}

// A payload stands for its sketch: merged into a dense or a sparse
// receiver it gives the bytes Merge of the sketch gives, its binary form
// is the sketch's MarshalBinary, and only a sparse sketch has one. The
// sizes run from one register to the sparse form's limit, so index
// deltas take one, two and three bytes.
func TestSparseHLLPayloadStandsForSketch(t *testing.T) {
	for _, p := range []uint8{4, 12, 18} {
		for _, n := range []int{0, 1, 7, 60, 2000} {
			src, _ := NewSparseHLL(p, 9)
			for i := 0; i < n; i++ {
				src.UpdateString(fmt.Sprintf("item-%d", i))
			}
			payload, ok := src.AppendPayload([]byte{0xa5})
			if ok != src.IsSparse() {
				t.Fatalf("p=%d n=%d: AppendPayload reports %v for a sketch sparse %v", p, n, ok, src.IsSparse())
			}
			if !ok {
				if len(payload) != 1 {
					t.Fatalf("p=%d n=%d: a dense sketch appended %d payload bytes", p, n, len(payload)-1)
				}
				continue
			}
			payload = payload[1:]
			want, _ := src.MarshalBinary()
			if got := AppendPayloadBinary([]byte{0xa5}, p, 9, payload); !bytes.Equal(got[1:], want) {
				t.Fatalf("p=%d n=%d: AppendPayloadBinary differs from MarshalBinary", p, n)
			}
			for _, sparse := range []bool{false, true} {
				viaSketch, viaPayload := new(HyperLogLog), new(HyperLogLog)
				for _, h := range []*HyperLogLog{viaSketch, viaPayload} {
					if err := h.Init(p, 9, sparse); err != nil {
						t.Fatal(err)
					}
					h.UpdateString("already-there")
				}
				if err := viaSketch.Merge(src); err != nil {
					t.Fatal(err)
				}
				viaPayload.MergePayload(payload)
				a, _ := viaSketch.MarshalBinary()
				b, _ := viaPayload.MarshalBinary()
				if !bytes.Equal(a, b) || viaSketch.IsSparse() != viaPayload.IsSparse() || viaSketch.Bytes() != viaPayload.Bytes() {
					t.Fatalf("p=%d n=%d sparse receiver %v: MergePayload differs from Merge", p, n, sparse)
				}
			}
		}
	}
}
