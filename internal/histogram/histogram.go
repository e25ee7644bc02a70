// Package histogram implements the synopsis histograms from Section 2 of
// the tutorial: equi-width, the V-Optimal histogram (piecewise-constant
// approximation minimizing sum of squared error, via the classic dynamic
// program of Jagadish et al. that the survey's Guha–Koudas–Shim citation
// streams), and the end-biased histogram (exact counts above a frequency
// threshold, uniform approximation below).
package histogram

import (
	"math"
	"sort"

	"repro/internal/core"
)

// Bucket is one histogram bucket over the value domain [Lo, Hi) with a
// representative (average) height.
type Bucket struct {
	Lo, Hi float64
	Height float64 // average of the values assigned to the bucket
	Count  int
}

// EquiWidth builds a fixed-bucket histogram over [lo, hi): the baseline
// whose SSE the V-optimal construction is compared against.
type EquiWidth struct {
	lo, hi float64
	counts []uint64
	sums   []float64
	n      uint64
}

// NewEquiWidth returns an equi-width histogram of b buckets over [lo, hi).
func NewEquiWidth(lo, hi float64, b int) (*EquiWidth, error) {
	if b <= 0 {
		return nil, core.Errf("EquiWidth", "buckets", "%d must be positive", b)
	}
	if !(lo < hi) {
		return nil, core.Errf("EquiWidth", "range", "lo %v must be < hi %v", lo, hi)
	}
	return &EquiWidth{lo: lo, hi: hi, counts: make([]uint64, b), sums: make([]float64, b)}, nil
}

// Update adds one value (clamped into the range).
func (e *EquiWidth) Update(v float64) {
	e.n++
	idx := e.bucketIndex(v)
	e.counts[idx]++
	e.sums[idx] += v
}

// bucketIndex returns the index of the bucket v falls into, clamping
// out-of-range values into the edge buckets.
func (e *EquiWidth) bucketIndex(v float64) int {
	idx := int((v - e.lo) / (e.hi - e.lo) * float64(len(e.counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.counts) {
		idx = len(e.counts) - 1
	}
	return idx
}

// Buckets returns the current buckets.
func (e *EquiWidth) Buckets() []Bucket {
	width := (e.hi - e.lo) / float64(len(e.counts))
	out := make([]Bucket, len(e.counts))
	for i := range e.counts {
		h := 0.0
		if e.counts[i] > 0 {
			h = e.sums[i] / float64(e.counts[i])
		}
		out[i] = Bucket{
			Lo:     e.lo + float64(i)*width,
			Hi:     e.lo + float64(i+1)*width,
			Height: h,
			Count:  int(e.counts[i]),
		}
	}
	return out
}

// Count returns the number of values added.
func (e *EquiWidth) Count() uint64 { return e.n }

// Bytes approximates the footprint.
func (e *EquiWidth) Bytes() int { return len(e.counts)*16 + 32 }

// VOptimal computes the optimal piecewise-constant approximation of a
// sequence of values with b buckets, minimizing the sum of squared errors,
// using the O(n^2 b) dynamic program. It is the offline gold standard
// synopsis; the experiments compare equi-width and end-biased against it.
func VOptimal(values []float64, b int) ([]Bucket, float64, error) {
	n := len(values)
	if b <= 0 {
		return nil, 0, core.Errf("VOptimal", "buckets", "%d must be positive", b)
	}
	if n == 0 {
		return nil, 0, nil
	}
	if b > n {
		b = n
	}
	// Prefix sums for O(1) segment SSE.
	pre := make([]float64, n+1)
	preSq := make([]float64, n+1)
	for i, v := range values {
		pre[i+1] = pre[i] + v
		preSq[i+1] = preSq[i] + v*v
	}
	sse := func(i, j int) float64 { // segment [i, j)
		cnt := float64(j - i)
		sum := pre[j] - pre[i]
		sq := preSq[j] - preSq[i]
		s := sq - sum*sum/cnt
		if s < 0 {
			s = 0
		}
		return s
	}
	const inf = math.MaxFloat64
	// dp[k][j]: min SSE of the first j values with k buckets.
	dp := make([][]float64, b+1)
	cut := make([][]int, b+1)
	for k := range dp {
		dp[k] = make([]float64, n+1)
		cut[k] = make([]int, n+1)
		for j := range dp[k] {
			dp[k][j] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= b; k++ {
		for j := k; j <= n; j++ {
			for i := k - 1; i < j; i++ {
				if dp[k-1][i] == inf {
					continue
				}
				cand := dp[k-1][i] + sse(i, j)
				if cand < dp[k][j] {
					dp[k][j] = cand
					cut[k][j] = i
				}
			}
		}
	}
	// Reconstruct bucket boundaries.
	bounds := make([]int, 0, b+1)
	j := n
	for k := b; k >= 1; k-- {
		bounds = append(bounds, j)
		j = cut[k][j]
	}
	bounds = append(bounds, 0)
	sort.Ints(bounds)
	out := make([]Bucket, 0, b)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo == hi {
			continue
		}
		sum := pre[hi] - pre[lo]
		out = append(out, Bucket{
			Lo:     float64(lo),
			Hi:     float64(hi),
			Height: sum / float64(hi-lo),
			Count:  hi - lo,
		})
	}
	return out, dp[b][n], nil
}

// SSEOfBuckets evaluates the total squared error of approximating values
// by the given index-space buckets (as produced by VOptimal, or by
// converting another histogram to index space).
func SSEOfBuckets(values []float64, buckets []Bucket) float64 {
	total := 0.0
	for _, b := range buckets {
		lo, hi := int(b.Lo), int(b.Hi)
		for i := lo; i < hi && i < len(values); i++ {
			d := values[i] - b.Height
			total += d * d
		}
	}
	return total
}

// EquiWidthIndexBuckets splits a sequence into b equal index-width buckets
// with mean heights, for SSE comparison against VOptimal on the same data.
func EquiWidthIndexBuckets(values []float64, b int) []Bucket {
	n := len(values)
	if b <= 0 || n == 0 {
		return nil
	}
	if b > n {
		b = n
	}
	out := make([]Bucket, 0, b)
	for i := 0; i < b; i++ {
		lo := i * n / b
		hi := (i + 1) * n / b
		if lo == hi {
			continue
		}
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += values[j]
		}
		out = append(out, Bucket{Lo: float64(lo), Hi: float64(hi), Height: sum / float64(hi-lo), Count: hi - lo})
	}
	return out
}

// EndBiased keeps exact counts for items with frequency above a threshold
// and models the rest with a single uniform "everything else" height — the
// end-biased histogram of Section 2, matched to Zipfian value-frequency
// data where a few values dominate.
type EndBiased struct {
	threshold uint64
	counts    map[float64]uint64
	restSum   float64
	restCount uint64
	n         uint64
}

// NewEndBiased returns an end-biased histogram tracking values whose
// frequency exceeds threshold exactly.
func NewEndBiased(threshold uint64) (*EndBiased, error) {
	if threshold == 0 {
		return nil, core.Errf("EndBiased", "threshold", "must be positive")
	}
	return &EndBiased{threshold: threshold, counts: make(map[float64]uint64)}, nil
}

// Update adds one value. (Exact counting per distinct value; the streaming
// variant would feed a Space-Saving summary — experiments use the exact
// form as the reference.)
func (eb *EndBiased) Update(v float64) {
	eb.n++
	eb.counts[v]++
}

// Model returns the frequent values (freq > threshold) with exact counts,
// plus the uniform frequency assigned to each remaining distinct value.
func (eb *EndBiased) Model() (exact map[float64]uint64, uniformFreq float64) {
	exact = make(map[float64]uint64)
	var restMass uint64
	var restDistinct uint64
	for v, c := range eb.counts {
		if c > eb.threshold {
			exact[v] = c
		} else {
			restMass += c
			restDistinct++
		}
	}
	if restDistinct == 0 {
		return exact, 0
	}
	return exact, float64(restMass) / float64(restDistinct)
}

// EstimateFreq returns the modelled frequency of value v.
func (eb *EndBiased) EstimateFreq(v float64) float64 {
	exact, uniform := eb.Model()
	if c, ok := exact[v]; ok {
		return float64(c)
	}
	return uniform
}

// Count returns the number of values added.
func (eb *EndBiased) Count() uint64 { return eb.n }
