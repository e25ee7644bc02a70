package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted. An empty
// sample answers 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the benchmark contract's spread check uses. Fewer than two
// samples have no spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// CPython: j = i*(n+1)//4 clamped to [1, n-1], delta taken
		// against the clamped j (so tiny samples extrapolate).
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness number the contract bounds.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// quiet is the mean of the lowest tenth of xs (at least one value):
// what a timing reads in the quietest windows of a run. On the shared
// reference machine, neighbours slow memory-bound code by up to 1.7x in
// bursts of under a second; the noise only ever adds, so the low end of
// the windows is the daemon's own cost and the median is the
// neighbours'. Two sets of runs of one binary agree on this value several
// times more closely than on the median (see README, "Noise rules").
func quiet(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := max(len(s)/10, 1)
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// summary is one metric's view across the windows of a run (or across
// runs): the reported value beside the median and quartiles.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64, value func([]float64) float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: value(xs), Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}
