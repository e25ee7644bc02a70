package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/correlation"
	"repro/internal/filter"
	"repro/internal/frequency"
	"repro/internal/inversions"
	"repro/internal/moments"
	"repro/internal/quantile"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// T1_01_Sampling measures how well each sampler's sample reproduces the
// stream's mean and median, and (for window samplers) how fresh it is.
func T1_01_Sampling() Table {
	t := Table{
		ID:     "T1.1",
		Title:  "Sampling (application: A/B testing)",
		Claim:  "bounded samples represent the stream; window/biased variants favor recency",
		Header: []string{"sampler", "sample", "mean-drift", "median-drift", "frac-recent-10%"},
	}
	const n = 100000
	rng := workload.NewRNG(101)
	stream := make([]float64, n)
	for i := range stream {
		// Drifting stream: later values are larger, so recency is visible.
		stream[i] = float64(i)/n*100 + rng.NormFloat64()*5
	}
	trueMean := mean(stream)
	trueMedian := median(stream)

	evaluate := func(name string, sample []float64, recencyIdx []int) {
		md, qd := 0.0, 0.0
		if len(sample) > 0 {
			md = math.Abs(mean(sample)-trueMean) / trueMean
			qd = math.Abs(median(sample)-trueMedian) / trueMedian
		}
		recent := 0
		for _, idx := range recencyIdx {
			if idx >= n*9/10 {
				recent++
			}
		}
		fr := "n/a"
		if len(recencyIdx) > 0 {
			fr = pct(float64(recent) / float64(len(recencyIdx)))
		}
		t.AddRow(name, d(len(sample)), pct(md), pct(qd), fr)
	}

	// Reservoir R over (value, index) pairs.
	type vi struct {
		v float64
		i int
	}
	res, _ := sampling.NewReservoir[vi](1000, 1)
	resL, _ := sampling.NewReservoirL[vi](1000, 2)
	biased, _ := sampling.NewBiasedReservoir[vi](1000, 3)
	chain, _ := sampling.NewChainSample[vi](1000, n/10, 4)
	bern, _ := sampling.NewBernoulli[vi](0.01, 5)
	for i, v := range stream {
		p := vi{v: v, i: i}
		res.Update(p)
		resL.Update(p)
		biased.Update(p)
		chain.Update(p)
		bern.Update(p)
	}
	extract := func(xs []vi) ([]float64, []int) {
		vs := make([]float64, len(xs))
		is := make([]int, len(xs))
		for i, x := range xs {
			vs[i], is[i] = x.v, x.i
		}
		return vs, is
	}
	v, i := extract(res.Sample())
	evaluate("reservoir-R", v, i)
	v, i = extract(resL.Sample())
	evaluate("reservoir-L", v, i)
	v, i = extract(bern.Sample())
	evaluate("bernoulli-1%", v, i)
	v, i = extract(biased.Sample())
	evaluate("biased-reservoir", v, i)
	v, i = extract(chain.Sample())
	evaluate("chain-window-10%", v, i)
	return t
}

// T1_02_Filtering measures false-positive rate against bits-per-key for
// the filter family, at zero false negatives.
func T1_02_Filtering() Table {
	t := Table{
		ID:     "T1.2",
		Title:  "Filtering (application: set membership)",
		Claim:  "no false negatives; FPR falls with bits/key; cuckoo beats Bloom at low FPR and supports deletion",
		Header: []string{"filter", "bits/key", "FPR", "false-negatives", "deletes"},
	}
	const n = 20000
	keys := make([][]byte, n)
	probes := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("member-%d", i))
		probes[i] = []byte(fmt.Sprintf("absent-%d", i))
	}
	measure := func(name string, add func([]byte), contains func([]byte) bool, bytes int, deletes string) {
		for _, k := range keys {
			add(k)
		}
		fn := 0
		for _, k := range keys {
			if !contains(k) {
				fn++
			}
		}
		fp := 0
		for _, p := range probes {
			if contains(p) {
				fp++
			}
		}
		t.AddRow(name, f(float64(bytes*8)/n), pct(float64(fp)/n), d(fn), deletes)
	}
	for _, fpTarget := range []float64{0.05, 0.01, 0.001} {
		b, _ := filter.NewBloom(n, fpTarget, 1)
		measure(fmt.Sprintf("bloom@%.3f", fpTarget), b.Add, b.Contains, b.Bytes(), "no")
	}
	cb, _ := filter.NewCountingBloom(n*10, 5, 2)
	measure("counting-bloom", cb.Add, cb.Contains, cb.Bytes(), "yes")
	pb, _ := filter.NewPartitionedBloom(n*2, 5, 3)
	measure("partitioned", pb.Add, pb.Contains, pb.Bytes(), "no")
	ck, _ := filter.NewCuckoo(n, 4)
	measure("cuckoo-16bit", func(k []byte) { ck.Add(k) }, ck.Contains, ck.Bytes(), "yes")
	return t
}

// T1_03_Correlation plants correlated pairs among independent streams and
// measures discovery precision/recall, plus lag recovery.
func T1_03_Correlation() Table {
	t := Table{
		ID:     "T1.3",
		Title:  "Correlation (application: fraud detection)",
		Claim:  "windowed scan finds exactly the planted correlated pairs; lagged coupling recovered",
		Header: []string{"setup", "planted", "found", "precision", "recall"},
	}
	rng := workload.NewRNG(103)
	const k = 12
	const n = 3000
	for _, coupling := range []float64{0.9, 0.7, 0.5} {
		ps, _ := correlation.NewPairScanner(k, 500)
		// Plant pairs (1,4) and (7,9).
		planted := map[[2]int]bool{{1, 4}: true, {7, 9}: true}
		for i := 0; i < n; i++ {
			vals := make([]float64, k)
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			vals[4] = coupling*vals[1] + (1-coupling)*rng.NormFloat64()
			vals[9] = coupling*vals[7] + (1-coupling)*rng.NormFloat64()
			ps.Update(vals)
		}
		found := ps.Above(0.45)
		tp := 0
		for _, pr := range found {
			if planted[[2]int{pr.I, pr.J}] {
				tp++
			}
		}
		prec, rec := 1.0, float64(tp)/2
		if len(found) > 0 {
			prec = float64(tp) / float64(len(found))
		}
		t.AddRow(fmt.Sprintf("coupling=%.1f", coupling), "2", d(len(found)), pct(prec), pct(rec))
	}
	// Lag recovery row.
	x, y := workload.CorrelatedPair(rng, 5000, 0.9, 12)
	lag, corr := correlation.CrossCorrelation(x, y, 30)
	t.AddRow("lagged(true=12)", "1", fmt.Sprintf("lag=%d r=%.2f", lag, corr), "-", "-")
	return t
}

// T1_04_Cardinality sweeps distinct counts and compares estimator error
// against memory for the full sketch family. A HyperLogLog born sparse
// (NewSparseHLL) has no row: at p12 it is dense past 512 occupied
// registers, below the sweep's smallest n, and repeats hll-p12 digit for
// digit; A2 measures its bytes where it is sparse.
func T1_04_Cardinality() Table {
	t := Table{
		ID:     "T1.4",
		Title:  "Estimating Cardinality (application: site audience analysis)",
		Claim:  "HLL ~1.04/sqrt(m); LogLog worse at equal m; LC best below capacity then saturates; KMV supports set ops; born-sparse HLL is hll-p12 here (its bytes: A2)",
		Header: []string{"estimator", "n=1e3", "n=1e4", "n=1e5", "n=1e6", "bytes"},
	}
	ns := []int{1000, 10000, 100000, 1000000}
	row := func(name string, run func(stream []uint64) (est float64, bytes int)) {
		cells := []string{name}
		var lastBytes int
		for _, n := range ns {
			stream := workload.Distinct(workload.NewRNG(uint64(104+n)), n)
			est, bytes := run(stream)
			lastBytes = bytes
			cells = append(cells, pct(math.Abs(est-float64(n))/float64(n)))
		}
		cells = append(cells, d(lastBytes))
		t.AddRow(cells...)
	}
	row("linear-64KB", func(s []uint64) (float64, int) {
		lc, _ := cardinality.NewLinearCounter(1<<19, 1)
		for _, x := range s {
			lc.UpdateUint64(x)
		}
		return lc.Estimate(), lc.Bytes()
	})
	row("pcsa-256", func(s []uint64) (float64, int) {
		p, _ := cardinality.NewPCSA(256, 1)
		for _, x := range s {
			p.UpdateUint64(x)
		}
		return p.Estimate(), p.Bytes()
	})
	row("loglog-p12", func(s []uint64) (float64, int) {
		l, _ := cardinality.NewLogLog(12, 1)
		for _, x := range s {
			l.UpdateUint64(x)
		}
		return l.Estimate(), l.Bytes()
	})
	row("hll-p12", func(s []uint64) (float64, int) {
		h, _ := cardinality.NewHyperLogLog(12, 1)
		for _, x := range s {
			h.UpdateUint64(x)
		}
		return h.Estimate(), h.Bytes()
	})
	row("kmv-1024", func(s []uint64) (float64, int) {
		k, _ := cardinality.NewKMV(1024, 1)
		for _, x := range s {
			k.UpdateUint64(x)
		}
		return k.Estimate(), k.Bytes()
	})
	return t
}

// T1_05_Quantiles compares the quantile summaries' rank error and space
// against the exact baseline.
func T1_05_Quantiles() Table {
	t := Table{
		ID:     "T1.5",
		Title:  "Estimating Quantiles (application: network analysis)",
		Claim:  "GK meets eps deterministically in sublinear space; frugal uses O(1) words; CKMS cheap at targeted tails",
		Header: []string{"summary", "p50-err", "p99-err", "bytes", "vs-exact-bytes"},
	}
	const n = 200000
	rng := workload.NewRNG(105)
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = rng.ExpFloat64() * 100 // long-tailed latencies
	}
	sorted := append([]float64(nil), stream...)
	sort.Float64s(sorted)
	rankErr := func(got float64, phi float64) float64 {
		r := float64(sort.SearchFloat64s(sorted, got+1e-12))
		return math.Abs(r-phi*n) / n
	}
	exactBytes := n * 8

	gk, _ := quantile.NewGK(0.005)
	ck, _ := quantile.NewCKMS([]quantile.Target{{Phi: 0.5, Eps: 0.02}, {Phi: 0.99, Eps: 0.002}})
	f2a, _ := quantile.NewFrugal2U(0.5, 1)
	f2b, _ := quantile.NewFrugal2U(0.99, 1)
	qd, _ := quantile.NewQDigest(20, 2000)
	for _, v := range stream {
		gk.Update(v)
		ck.Update(v)
		f2a.Update(v)
		f2b.Update(v)
		qd.Update(uint64(v*100), 1)
	}
	t.AddRow("gk-eps0.005", pct(rankErr(gk.Query(0.5), 0.5)), pct(rankErr(gk.Query(0.99), 0.99)),
		d(gk.Bytes()), ratio(gk.Bytes(), exactBytes))
	t.AddRow("ckms-targeted", pct(rankErr(ck.Query(0.5), 0.5)), pct(rankErr(ck.Query(0.99), 0.99)),
		d(ck.Bytes()), ratio(ck.Bytes(), exactBytes))
	t.AddRow("frugal2u", pct(rankErr(f2a.Query(), 0.5)), pct(rankErr(f2b.Query(), 0.99)),
		"16+16", ratio(32, exactBytes))
	t.AddRow("qdigest-k2000", pct(rankErr(float64(qd.Query(0.5))/100, 0.5)),
		pct(rankErr(float64(qd.Query(0.99))/100, 0.99)), d(qd.Bytes()), ratio(qd.Bytes(), exactBytes))
	t.AddRow("exact", "0", "0", d(exactBytes), "1x")
	return t
}

// T1_06_Moments measures AMS F2 error versus sketch size and Fk sampling.
func T1_06_Moments() Table {
	t := Table{
		ID:     "T1.6",
		Title:  "Estimating Moments (application: databases / join sizes)",
		Claim:  "AMS F2 error shrinks ~1/sqrt(cols); sketch preserves skew ordering",
		Header: []string{"estimator", "config", "rel-error", "bytes"},
	}
	const n = 100000
	stream := workload.NewZipf(workload.NewRNG(106), 5000, 1.1).Stream(n)
	truth := moments.ExactMoments(stream, 2)[2]
	for _, cols := range []int{16, 64, 256, 1024} {
		a, _ := moments.NewAMSF2(5, cols, 7)
		for _, x := range stream {
			a.Update(x, 1)
		}
		t.AddRow("ams-f2", fmt.Sprintf("5x%d", cols),
			pct(math.Abs(a.Estimate()-truth)/truth), d(a.Bytes()))
	}
	fk, _ := moments.NewFkSampler(3, 400, 7)
	for _, x := range stream {
		fk.Update(x)
	}
	f3 := moments.ExactMoments(stream, 3)[3]
	t.AddRow("fk-sampler(k=3)", "400 samplers", pct(math.Abs(fk.Estimate()-f3)/f3), d(fk.Bytes()))
	return t
}

// T1_07_FrequentElements scores the heavy-hitter family on recall,
// precision and space at a Zipf workload.
func T1_07_FrequentElements() Table {
	t := Table{
		ID:     "T1.7",
		Title:  "Finding Frequent Elements (application: trending hashtags)",
		Claim:  "counter summaries: full recall above N/k in O(k) space; CM overestimates, CS two-sided; SS tracks top-k tightest",
		Header: []string{"algorithm", "recall", "precision", "avg-count-err", "bytes"},
	}
	const n = 200000
	const theta = 0.002
	stream := frequency.ZipfStrings(107, n, 20000, 1.1)
	truth := map[string]uint64{}
	for _, it := range stream {
		truth[it]++
	}
	thresh := uint64(theta * n)
	var heavy []string
	for it, c := range truth {
		if c > thresh {
			heavy = append(heavy, it)
		}
	}
	score := func(name string, est func(string) uint64, candidates []string, bytes int) {
		found := map[string]bool{}
		for _, c := range candidates {
			if est(c) > thresh/2 {
				found[c] = true
			}
		}
		tp := 0
		for _, h := range heavy {
			if found[h] {
				tp++
			}
		}
		var errSum float64
		for _, h := range heavy {
			e := est(h)
			errSum += math.Abs(float64(e) - float64(truth[h]))
		}
		prec := 1.0
		if len(found) > 0 {
			prec = float64(tp) / float64(len(found))
		}
		t.AddRow(name, pct(float64(tp)/float64(len(heavy))), pct(prec),
			f(errSum/float64(len(heavy))), d(bytes))
	}
	k := int(2 / theta)
	mg, _ := frequency.NewMisraGries(k)
	ss, _ := frequency.NewSpaceSaving(k)
	lc, _ := frequency.NewLossyCounting(theta / 2)
	st, _ := frequency.NewStickySampling(theta, theta/2, 0.01, 1)
	cm, _ := frequency.NewCountMin(2048, 5, 1)
	cs, _ := frequency.NewCountSketch(2048, 5, 1)
	for _, it := range stream {
		mg.Update(it)
		ss.Update(it)
		lc.Update(it)
		st.Update(it)
		cm.UpdateString(it, 1)
		cs.Update([]byte(it), 1)
	}
	mgCand := make([]string, 0)
	for _, c := range mg.Candidates() {
		mgCand = append(mgCand, c.Item)
	}
	score("misra-gries", mg.Estimate, mgCand, mg.Bytes())
	ssCand := make([]string, 0)
	for _, c := range ss.TopK(k) {
		ssCand = append(ssCand, c.Item)
	}
	score("space-saving", func(s string) uint64 { c, _ := ss.Estimate(s); return c }, ssCand, ss.Bytes())
	lcCand := make([]string, 0)
	for _, c := range lc.Frequent(theta) {
		lcCand = append(lcCand, c.Item)
	}
	score("lossy-counting", lc.Estimate, lcCand, lc.Bytes())
	stCand := make([]string, 0)
	for _, c := range st.Frequent(theta) {
		stCand = append(stCand, c.Item)
	}
	score("sticky-sampling", st.Estimate, stCand, st.Bytes())
	// Sketches answer point queries; candidates are the true heavy set
	// plus decoys (sketches cannot enumerate).
	decoys := heavy
	for i := 0; i < 100; i++ {
		decoys = append(decoys, fmt.Sprintf("k%d", 19000+i))
	}
	score("count-min", cm.EstimateString, decoys, cm.Bytes())
	score("count-sketch", func(s string) uint64 {
		v := cs.Estimate([]byte(s))
		if v < 0 {
			return 0
		}
		return uint64(v)
	}, decoys, cs.Bytes())
	return t
}

// T1_08_Inversions compares the streaming estimator against the exact
// Fenwick counter across sortedness levels.
func T1_08_Inversions() Table {
	t := Table{
		ID:     "T1.8",
		Title:  "Counting Inversions (application: measuring sortedness)",
		Claim:  "estimator tracks exact count across disorder levels in constant space",
		Header: []string{"stream", "exact", "estimate", "rel-err", "est-bytes", "exact-bytes"},
	}
	const n = 20000
	for _, swap := range []float64{0.001, 0.01, 0.1, 1.0} {
		stream := workload.NearSorted(workload.NewRNG(108), n, swap)
		ex, _ := inversions.NewExactCounter(n)
		est, _ := inversions.NewEstimator(600, 7)
		for _, v := range stream {
			ex.Update(v)
			est.Update(v)
		}
		rel := math.Abs(est.Estimate()-float64(ex.Count())) / math.Max(1, float64(ex.Count()))
		t.AddRow(fmt.Sprintf("swaps=%.1f%%", swap*100), d(ex.Count()),
			f(est.Estimate()), pct(rel), d(est.Bytes()), d(ex.Bytes()))
	}
	return t
}

// mean/median helpers for the sampling experiment.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func ratio(a, b int) string {
	return fmt.Sprintf("%.4fx", float64(a)/float64(b))
}
