package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/filter"
	"repro/internal/workload"
)

// A2_SparseDenseCrossover locates the cardinality at which a HyperLogLog
// born sparse (NewSparseHLL, the form every store bucket opens in) stops
// paying off versus dense registers. The sparse form has the dense
// form's precision (it is not HLL++'s higher-precision sparse encoding),
// so the error columns agree; its bytes count the entries' capacity.
func A2_SparseDenseCrossover() Table {
	t := Table{
		ID:     "A2",
		Title:  "Ablation: HyperLogLog sparse/dense crossover",
		Claim:  "sparse is smaller at low cardinality with the same estimate; dense wins past the conversion point",
		Header: []string{"n distinct", "sparse bytes", "dense bytes", "sparse err", "dense err", "mode"},
	}
	for _, n := range []int{10, 100, 500, 2000, 10000, 100000} {
		sp, _ := cardinality.NewSparseHLL(14, 1)
		dn, _ := cardinality.NewHyperLogLog(14, 1)
		for _, x := range workload.Distinct(workload.NewRNG(uint64(301+n)), n) {
			sp.UpdateUint64(x)
			dn.UpdateUint64(x)
		}
		mode := "dense"
		if sp.IsSparse() {
			mode = "sparse"
		}
		spErr := math.Abs(sp.Estimate()-float64(n)) / float64(n)
		dnErr := math.Abs(dn.Estimate()-float64(n)) / float64(n)
		t.AddRow(d(n), d(sp.Bytes()), d(dn.Bytes()), pct(spErr), pct(dnErr), mode)
	}
	return t
}

// A3_DoubleHashing verifies Kirsch–Mitzenmacher: two hashes simulate k
// with no practical FPR loss, at a fraction of the hashing cost.
func A3_DoubleHashing() Table {
	t := Table{
		ID:     "A3",
		Title:  "Ablation: Bloom double hashing vs k independent hashes",
		Claim:  "FPR is statistically identical; double hashing computes 1 hash instead of k",
		Header: []string{"k", "FPR double-hash", "FPR independent", "hash evals/op"},
	}
	const n = 20000
	keys := make([][]byte, n)
	probes := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("in-%d", i))
		probes[i] = []byte(fmt.Sprintf("out-%d", i))
	}
	fpr := func(b *filter.Bloom) float64 {
		for _, k := range keys {
			b.Add(k)
		}
		fp := 0
		for _, p := range probes {
			if b.Contains(p) {
				fp++
			}
		}
		return float64(fp) / n
	}
	for _, k := range []uint{3, 5, 8} {
		dh, _ := filter.NewBloomMK(1<<18, k, 1)
		ih, _ := filter.NewBloomMK(1<<18, k, 1)
		ih.SetIndependentHashes(true)
		t.AddRow(d(int(k)), pct(fpr(dh)), pct(fpr(ih)), fmt.Sprintf("1 vs %d", k))
	}
	return t
}

// sortFloats and searchFloats are tiny wrappers so systems.go stays free
// of a direct sort import tangle.
func sortFloats(xs []float64)                  { sort.Float64s(xs) }
func searchFloats(xs []float64, v float64) int { return sort.SearchFloat64s(xs, v+1e-12) }
