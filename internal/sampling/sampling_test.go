package sampling

import (
	"math"
	"testing"
)

func TestReservoirParamValidation(t *testing.T) {
	if _, err := NewReservoir[int](0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewReservoirL[int](-1, 1); err == nil {
		t.Fatal("k=-1 accepted")
	}
	if _, err := NewBernoulli[int](0, 1); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewBernoulli[int](1.5, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
	if _, err := NewWeightedReservoir[int](0, 1); err == nil {
		t.Fatal("weighted k=0 accepted")
	}
	if _, err := NewBiasedReservoir[int](0, 1); err == nil {
		t.Fatal("biased k=0 accepted")
	}
	if _, err := NewChainSample[int](0, 10, 1); err == nil {
		t.Fatal("chain k=0 accepted")
	}
	if _, err := NewChainSample[int](5, 0, 1); err == nil {
		t.Fatal("chain window=0 accepted")
	}
}

func TestReservoirSizeBounded(t *testing.T) {
	r, _ := NewReservoir[int](100, 1)
	for i := 0; i < 10000; i++ {
		r.Update(i)
	}
	if len(r.Sample()) != 100 {
		t.Fatalf("sample size %d, want 100", len(r.Sample()))
	}
	if r.Seen() != 10000 {
		t.Fatalf("seen %d, want 10000", r.Seen())
	}
}

func TestReservoirShortStream(t *testing.T) {
	r, _ := NewReservoir[int](100, 1)
	for i := 0; i < 10; i++ {
		r.Update(i)
	}
	if len(r.Sample()) != 10 {
		t.Fatalf("short stream sample size %d, want 10", len(r.Sample()))
	}
}

// uniformityChi2 runs many independent samplings of {0..n-1} and chi-square
// tests the per-item inclusion counts against uniform.
func uniformityChi2(t *testing.T, sample func(seed uint64) []int, n, k, trials int) {
	t.Helper()
	counts := make([]float64, n)
	for s := 0; s < trials; s++ {
		for _, v := range sample(uint64(s + 1)) {
			counts[v]++
		}
	}
	expected := float64(trials*k) / float64(n)
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// df = n-1; allow 6 sigma: mean df, sd sqrt(2 df).
	df := float64(n - 1)
	if chi2 > df+6*math.Sqrt(2*df) {
		t.Fatalf("chi2 %.1f exceeds uniform bound (df %.0f)", chi2, df)
	}
}

func TestReservoirUniform(t *testing.T) {
	const n, k, trials = 50, 10, 4000
	uniformityChi2(t, func(seed uint64) []int {
		r, _ := NewReservoir[int](k, seed)
		for i := 0; i < n; i++ {
			r.Update(i)
		}
		return r.Sample()
	}, n, k, trials)
}

func TestReservoirLUniform(t *testing.T) {
	const n, k, trials = 50, 10, 4000
	uniformityChi2(t, func(seed uint64) []int {
		r, _ := NewReservoirL[int](k, seed)
		for i := 0; i < n; i++ {
			r.Update(i)
		}
		return r.Sample()
	}, n, k, trials)
}

func TestReservoirLMatchesRSize(t *testing.T) {
	r, _ := NewReservoirL[int](64, 3)
	for i := 0; i < 100000; i++ {
		r.Update(i)
	}
	if len(r.Sample()) != 64 {
		t.Fatalf("sample size %d", len(r.Sample()))
	}
	if r.Seen() != 100000 {
		t.Fatalf("seen %d", r.Seen())
	}
}

func TestBernoulliRate(t *testing.T) {
	b, _ := NewBernoulli[int](0.1, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		b.Update(i)
	}
	got := float64(len(b.Sample()))
	// Binomial(1e5, 0.1): mean 1e4, sd ~95. Allow 6 sigma.
	if math.Abs(got-n*0.1) > 600 {
		t.Fatalf("bernoulli kept %v of %d at p=0.1", got, n)
	}
}

func TestWeightedReservoirFavorsHeavy(t *testing.T) {
	// Item 0 has weight 50; items 1..999 weight 1. Over many trials item 0
	// must appear far more often than any individual light item.
	const trials = 2000
	heavyHits := 0
	lightHits := 0
	for s := 0; s < trials; s++ {
		w, _ := NewWeightedReservoir[int](10, uint64(s+1))
		for i := 0; i < 1000; i++ {
			weight := 1.0
			if i == 0 {
				weight = 50
			}
			w.Update(i, weight)
		}
		if n := len(w.Sample()); n != 10 {
			t.Fatalf("sample size %d, want 10", n)
		}
		for _, v := range w.Sample() {
			if v == 0 {
				heavyHits++
			}
			if v == 500 {
				lightHits++
			}
		}
	}
	if heavyHits < 10*lightHits {
		t.Fatalf("weighting ineffective: heavy=%d light=%d", heavyHits, lightHits)
	}
}

func TestWeightedReservoirIgnoresNonPositive(t *testing.T) {
	w, _ := NewWeightedReservoir[int](5, 1)
	w.Update(1, 0)
	w.Update(2, -3)
	if len(w.Sample()) != 0 {
		t.Fatal("non-positive weights sampled")
	}
	w.Update(3, 1)
	if len(w.Sample()) != 1 {
		t.Fatal("positive weight not sampled")
	}
}

func TestBiasedReservoirRecency(t *testing.T) {
	b, _ := NewBiasedReservoir[int](100, 7)
	const n = 100000
	for i := 0; i < n; i++ {
		b.Update(i)
	}
	// With k=100 the decay constant is ~1/k; nearly all samples should be
	// from the last ~10k items, none from the first half.
	young := 0
	for _, v := range b.Sample() {
		if v >= n/2 {
			young++
		}
	}
	if young < 95 {
		t.Fatalf("biased reservoir kept too many old items: young=%d/100", young)
	}
}

func TestBiasedReservoirCapacity(t *testing.T) {
	b, _ := NewBiasedReservoir[int](50, 7)
	for i := 0; i < 10000; i++ {
		b.Update(i)
	}
	if len(b.Sample()) > 50 {
		t.Fatalf("capacity exceeded: %d", len(b.Sample()))
	}
}

func TestChainSampleWithinWindow(t *testing.T) {
	const window = 500
	c, _ := NewChainSample[int](20, window, 9)
	const n = 20000
	for i := 0; i < n; i++ {
		c.Update(i)
		if i%1000 == 999 {
			for _, idx := range c.SampleIndexes() {
				if idx+window <= uint64(i) {
					t.Fatalf("sample index %d expired at time %d", idx, i)
				}
			}
		}
	}
	if len(c.Sample()) == 0 {
		t.Fatal("no samples produced")
	}
}

func TestChainSampleUniformOverWindow(t *testing.T) {
	// After a long run, sampled positions should be uniform over the last
	// window; test by bucketing positions into window quarters.
	const window = 400
	const trials = 1500
	quarters := [4]int{}
	for s := 0; s < trials; s++ {
		c, _ := NewChainSample[int](4, window, uint64(s+1))
		const n = 2000
		for i := 0; i < n; i++ {
			c.Update(i)
		}
		for _, idx := range c.SampleIndexes() {
			age := (2000 - 1) - int(idx) // 0..window-1
			quarters[age/(window/4)]++
		}
	}
	total := 0
	for _, q := range quarters {
		total += q
	}
	for qi, q := range quarters {
		frac := float64(q) / float64(total)
		if math.Abs(frac-0.25) > 0.05 {
			t.Fatalf("quarter %d fraction %.3f, want ~0.25 (%v)", qi, frac, quarters)
		}
	}
}

func TestChainSampleSpaceBounded(t *testing.T) {
	c, _ := NewChainSample[int](50, 1000, 11)
	for i := 0; i < 100000; i++ {
		c.Update(i)
	}
	// Expected O(k); generous constant.
	if b := c.ChainBytes(); b > 50*20 {
		t.Fatalf("chains grew too long: %d links", b)
	}
}

func BenchmarkReservoirR(b *testing.B) {
	r, _ := NewReservoir[int](1024, 1)
	for i := 0; i < b.N; i++ {
		r.Update(i)
	}
}

func BenchmarkReservoirL(b *testing.B) {
	r, _ := NewReservoirL[int](1024, 1)
	for i := 0; i < b.N; i++ {
		r.Update(i)
	}
}

func BenchmarkChainSample(b *testing.B) {
	c, _ := NewChainSample[int](64, 10000, 1)
	for i := 0; i < b.N; i++ {
		c.Update(i)
	}
}
