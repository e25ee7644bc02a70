package quantile

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// rankError computes |trueRank(got) - phi*n| / n against a sorted oracle.
func rankError(sorted []float64, got, phi float64) float64 {
	n := float64(len(sorted))
	r := float64(sort.SearchFloat64s(sorted, got+1e-12))
	return math.Abs(r-phi*n) / n
}

func gaussianStream(seed uint64, n int) []float64 {
	rng := workload.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 100
	}
	return out
}

func TestGKParamValidation(t *testing.T) {
	if _, err := NewGK(0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewGK(1); err == nil {
		t.Fatal("eps=1 accepted")
	}
}

func TestGKRankGuarantee(t *testing.T) {
	const eps = 0.01
	g, _ := NewGK(eps)
	stream := gaussianStream(1, 50000)
	for _, v := range stream {
		g.Update(v)
	}
	sorted := append([]float64(nil), stream...)
	sort.Float64s(sorted)
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := g.Query(phi)
		if e := rankError(sorted, got, phi); e > eps*1.5 {
			t.Fatalf("phi=%.2f rank error %.4f > eps", phi, e)
		}
	}
}

func TestGKSpaceSublinear(t *testing.T) {
	g, _ := NewGK(0.01)
	for _, v := range gaussianStream(2, 200000) {
		g.Update(v)
	}
	// O((1/eps) log(eps n)) ~ 100 * log(2000) ~ 1100; generous ceiling.
	if g.Tuples() > 5000 {
		t.Fatalf("GK kept %d tuples for 200k items", g.Tuples())
	}
}

func TestGKSortedAdversarialOrder(t *testing.T) {
	// Ascending and descending insertion orders are the adversarial cases
	// for summary size and correctness.
	for name, gen := range map[string]func(i int) float64{
		"asc":  func(i int) float64 { return float64(i) },
		"desc": func(i int) float64 { return float64(100000 - i) },
	} {
		g, _ := NewGK(0.01)
		n := 50000
		for i := 0; i < n; i++ {
			g.Update(gen(i))
		}
		med := g.Query(0.5)
		var lo, hi float64
		if name == "asc" {
			lo, hi = float64(n)*0.48, float64(n)*0.52
		} else {
			lo, hi = float64(100000-n)+float64(n)*0.48, float64(100000-n)+float64(n)*0.52
		}
		if med < lo || med > hi {
			t.Fatalf("%s order: median %v outside [%v,%v]", name, med, lo, hi)
		}
	}
}

func TestGKEmptyAndSingle(t *testing.T) {
	g, _ := NewGK(0.05)
	if got := g.Query(0.5); got != 0 {
		t.Fatalf("empty query returned %v", got)
	}
	g.Update(42)
	if got := g.Query(0.5); got != 42 {
		t.Fatalf("single-element median %v", got)
	}
	if got := g.Query(-1); got != 42 {
		t.Fatalf("clamped phi returned %v", got)
	}
}

func TestExactBaseline(t *testing.T) {
	e := NewExact()
	for i := 1; i <= 100; i++ {
		e.Update(float64(i))
	}
	if got := e.Query(0.5); got != 51 {
		t.Fatalf("exact median %v", got)
	}
	if got := e.Query(0); got != 1 {
		t.Fatalf("exact min %v", got)
	}
	if got := e.Query(1); got != 100 {
		t.Fatalf("exact max %v", got)
	}
	if r := e.Rank(50); r != 50 {
		t.Fatalf("rank(50)=%d", r)
	}
}

func TestQDigestRankError(t *testing.T) {
	q, _ := NewQDigest(16, 200)
	rng := workload.NewRNG(3)
	vals := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := uint64(rng.Intn(60000))
		q.Update(v, 1)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	// Error bound: logU/k = 16/200 = 8% of n; check 2x slack.
	for _, phi := range []float64{0.25, 0.5, 0.75, 0.9} {
		got := float64(q.Query(phi))
		if e := rankError(vals, got, phi); e > 0.16 {
			t.Fatalf("qdigest phi=%.2f rank error %.4f", phi, e)
		}
	}
}

func TestQDigestSpaceBound(t *testing.T) {
	q, _ := NewQDigest(20, 100)
	rng := workload.NewRNG(4)
	for i := 0; i < 200000; i++ {
		q.Update(uint64(rng.Intn(1<<20)), 1)
	}
	q.Compress()
	// Space is O(k); 6k is the pre-compress ceiling.
	if q.Nodes() > 700 {
		t.Fatalf("qdigest holds %d nodes for k=100", q.Nodes())
	}
}

func TestQDigestMergeEqualsConcat(t *testing.T) {
	a, _ := NewQDigest(12, 150)
	b, _ := NewQDigest(12, 150)
	full, _ := NewQDigest(12, 150)
	rng := workload.NewRNG(5)
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Intn(4000))
		vals = append(vals, float64(v))
		full.Update(v, 1)
		if i%2 == 0 {
			a.Update(v, 1)
		} else {
			b.Update(v, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != full.Count() {
		t.Fatalf("merged count %d vs %d", a.Count(), full.Count())
	}
	sort.Float64s(vals)
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		got := float64(a.Query(phi))
		if e := rankError(vals, got, phi); e > 0.2 {
			t.Fatalf("merged qdigest phi=%.2f rank error %.4f", phi, e)
		}
	}
	other, _ := NewQDigest(13, 150)
	if err := a.Merge(other); err == nil {
		t.Fatal("merged different universes")
	}
}

func TestQDigestClampsUniverse(t *testing.T) {
	q, _ := NewQDigest(8, 10)
	q.Update(1<<20, 1) // far outside [0,256)
	if got := q.Query(1); got > 255 {
		t.Fatalf("out-of-universe value leaked: %d", got)
	}
}

func TestFrugal1UConverges(t *testing.T) {
	f, _ := NewFrugal1U(0.5, 7)
	rng := workload.NewRNG(6)
	// Uniform integers 0..999: median 500. Frugal moves +-1 per step, so
	// give it a long stream.
	for i := 0; i < 500000; i++ {
		f.Update(float64(rng.Intn(1000)))
	}
	if est := f.Query(); est < 400 || est > 600 {
		t.Fatalf("frugal1u median estimate %v, want ~500", est)
	}
}

func TestFrugal2UConvergesFasterOnLargeScale(t *testing.T) {
	// Values near 1e6: Frugal1U crawls, Frugal2U's adaptive step catches up.
	rng := workload.NewRNG(7)
	f1, _ := NewFrugal1U(0.5, 8)
	f2, _ := NewFrugal2U(0.5, 8)
	for i := 0; i < 200000; i++ {
		v := 1e6 + float64(rng.Intn(1000))
		f1.Update(v)
		f2.Update(v)
	}
	e1 := math.Abs(f1.Query() - 1000500)
	e2 := math.Abs(f2.Query() - 1000500)
	if e2 > e1 {
		t.Fatalf("frugal2u (%v) did not beat frugal1u (%v) on shifted stream", e2, e1)
	}
	if e2 > 5000 {
		t.Fatalf("frugal2u error %v too large", e2)
	}
}

func TestCKMSTargetedAccuracy(t *testing.T) {
	c, err := NewCKMS([]Target{{Phi: 0.5, Eps: 0.02}, {Phi: 0.99, Eps: 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	stream := gaussianStream(9, 100000)
	for _, v := range stream {
		c.Update(v)
	}
	sorted := append([]float64(nil), stream...)
	sort.Float64s(sorted)
	if e := rankError(sorted, c.Query(0.5), 0.5); e > 0.04 {
		t.Fatalf("ckms p50 rank error %.4f", e)
	}
	if e := rankError(sorted, c.Query(0.99), 0.99); e > 0.005 {
		t.Fatalf("ckms p99 rank error %.5f", e)
	}
}

func TestCKMSSpaceBelowUniformGK(t *testing.T) {
	// For tail-targeted queries, CKMS must retain far fewer samples than a
	// uniform GK at the tail's eps.
	c, _ := NewCKMS([]Target{{Phi: 0.99, Eps: 0.001}})
	g, _ := NewGK(0.001)
	stream := gaussianStream(10, 100000)
	for _, v := range stream {
		c.Update(v)
		g.Update(v)
	}
	if c.Samples() >= g.Tuples() {
		t.Fatalf("ckms %d samples not below uniform GK %d", c.Samples(), g.Tuples())
	}
}

func TestCKMSValidation(t *testing.T) {
	if _, err := NewCKMS(nil); err == nil {
		t.Fatal("empty targets accepted")
	}
	if _, err := NewCKMS([]Target{{Phi: 0, Eps: 0.1}}); err == nil {
		t.Fatal("phi=0 accepted")
	}
	if _, err := NewCKMS([]Target{{Phi: 0.5, Eps: 0}}); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestQuickGKWithinGlobalBounds(t *testing.T) {
	// Property: GK's answer is always one of the inserted values, and its
	// rank error stays within 2*eps for arbitrary inputs.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		g, _ := NewGK(0.1)
		for _, v := range vals {
			g.Update(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// One rank of slack on top of the bound covers tiny streams, where
		// a single position is a large fraction of n.
		slack := 0.25 + 1.5/float64(len(vals))
		for _, phi := range []float64{0.25, 0.5, 0.75} {
			if rankError(sorted, g.Query(phi), phi) > slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGKUpdate(b *testing.B) {
	g, _ := NewGK(0.01)
	stream := gaussianStream(1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(stream[i%len(stream)])
	}
}

func BenchmarkQDigestUpdate(b *testing.B) {
	q, _ := NewQDigest(20, 500)
	for i := 0; i < b.N; i++ {
		q.Update(uint64(i)%(1<<20), 1)
	}
}

// BenchmarkQDigestSeal times what a bucket roll pays to seal a q-digest:
// Compact of an open digest whose tail holds 3 000 values, folding the
// tail into the nodes and packing them.
func BenchmarkQDigestSeal(b *testing.B) {
	q, _ := NewQDigest(20, 512)
	rng := workload.NewRNG(5)
	for i := 0; i < 3000; i++ {
		q.Update(100+rng.Uint64()%9000, 1)
	}
	if len(q.tail) != 3000 {
		b.Fatalf("the tail holds %d values, not 3000", len(q.tail))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compacted(q) == nil {
			b.Fatal("no copy")
		}
	}
}

func BenchmarkFrugal2U(b *testing.B) {
	f, _ := NewFrugal2U(0.9, 1)
	for i := 0; i < b.N; i++ {
		f.Update(float64(i % 1000))
	}
}

func TestQDigestReset(t *testing.T) {
	q, _ := NewQDigest(10, 16)
	for i := uint64(0); i < 500; i++ {
		q.Update(i%1000, 1)
	}
	q.Reset()
	if q.Count() != 0 || q.Nodes() != 0 {
		t.Fatalf("reset digest not empty: count %d, nodes %d", q.Count(), q.Nodes())
	}
	q.Update(7, 3)
	if q.Count() != 3 || q.Query(0.5) != 7 {
		t.Fatalf("post-reset digest wrong: count %d, median %d", q.Count(), q.Query(0.5))
	}
}

// A merge whose threshold n/k is at most 1 skips the compress pass: every
// count is at least 1, so no family can fall below the threshold. The
// digest it leaves marshals to the bytes the map's full sorted pass
// leaves, light or not.
func TestQDigestLightCompressMatchesSortedPass(t *testing.T) {
	rng := workload.NewRNG(9)
	light := 0
	for trial := 0; trial < 200; trial++ {
		k := uint64(1 + rng.Intn(64))
		fast, _ := NewQDigest(10, k)
		slow := newMapDigest(10, k)
		for step := 0; step < 20; step++ {
			part, _ := NewQDigest(10, k)
			ref := newMapDigest(10, k)
			for i := rng.Intn(8); i > 0; i-- {
				v, w := uint64(rng.Intn(1024)), uint64(1+rng.Intn(3))
				part.Update(v, w)
				ref.Update(v, w)
			}
			if (fast.n+part.n)/k <= 1 {
				light++
			}
			if err := fast.Merge(part); err != nil {
				t.Fatal(err)
			}
			for id, c := range ref.counts {
				slow.counts[id] += c
			}
			slow.n += ref.n
			sortedCompress(slow)
			got, _ := fast.MarshalBinary()
			want, _ := slow.MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d (n %d, k %d): digest differs from the sorted pass", trial, step, fast.n, k)
			}
		}
	}
	if light < 1000 {
		t.Fatalf("only %d merges took the light path", light)
	}
}
