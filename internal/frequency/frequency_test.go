package frequency

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestCountMinParamValidation(t *testing.T) {
	if _, err := NewCountMin(0, 4, 1); err == nil {
		t.Fatal("width=0 accepted")
	}
	if _, err := NewCountMin(100, 0, 1); err == nil {
		t.Fatal("depth=0 accepted")
	}
	if _, err := NewCountMinWithError(0, 0.01, 1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewCountMinWithError(0.01, 2, 1); err == nil {
		t.Fatal("delta=2 accepted")
	}
}

func TestCountMinNeverUndercounts(t *testing.T) {
	cm, _ := NewCountMin(512, 4, 7)
	stream := ZipfStrings(1, 50000, 2000, 1.1)
	truth := map[string]uint64{}
	for _, it := range stream {
		cm.UpdateString(it, 1)
		truth[it]++
	}
	for it, c := range truth {
		if est := cm.EstimateString(it); est < c {
			t.Fatalf("undercount for %s: est %d < true %d", it, est, c)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// width = e/eps with eps = 0.01 -> overestimate <= 0.01*N w.h.p.
	cm, _ := NewCountMinWithError(0.01, 0.01, 7)
	stream := ZipfStrings(2, 100000, 5000, 1.0)
	truth := map[string]uint64{}
	for _, it := range stream {
		cm.UpdateString(it, 1)
		truth[it]++
	}
	n := float64(len(stream))
	violations := 0
	for it, c := range truth {
		if float64(cm.EstimateString(it))-float64(c) > 0.01*n {
			violations++
		}
	}
	// delta = 0.01 per query: among ~5000 queries allow a generous 2%.
	if violations > len(truth)/50 {
		t.Fatalf("%d/%d error-bound violations", violations, len(truth))
	}
}

func TestCountMinConservativeTighter(t *testing.T) {
	plain, _ := NewCountMin(256, 4, 7)
	cons, _ := NewCountMin(256, 4, 7)
	cons.SetConservative(true)
	stream := ZipfStrings(3, 50000, 5000, 1.0)
	truth := map[string]uint64{}
	for _, it := range stream {
		plain.UpdateString(it, 1)
		cons.UpdateString(it, 1)
		truth[it]++
	}
	var plainErr, consErr uint64
	for it, c := range truth {
		plainErr += plain.EstimateString(it) - c
		ce := cons.EstimateString(it)
		if ce < c {
			t.Fatalf("conservative undercounted %s", it)
		}
		consErr += ce - c
	}
	if consErr >= plainErr {
		t.Fatalf("conservative (%d) not tighter than plain (%d)", consErr, plainErr)
	}
}

func TestCountMinMergeEqualsConcat(t *testing.T) {
	full, _ := NewCountMin(256, 4, 9)
	a, _ := NewCountMin(256, 4, 9)
	b, _ := NewCountMin(256, 4, 9)
	stream := ZipfStrings(4, 20000, 1000, 1.0)
	for i, it := range stream {
		full.UpdateString(it, 1)
		if i%2 == 0 {
			a.UpdateString(it, 1)
		} else {
			b.UpdateString(it, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		it := fmt.Sprintf("k%d", i)
		if a.EstimateString(it) != full.EstimateString(it) {
			t.Fatalf("merge differs from concat for %s", it)
		}
	}
	cons, _ := NewCountMin(256, 4, 9)
	cons.SetConservative(true)
	if err := a.Merge(cons); err == nil {
		t.Fatal("merged a conservative sketch")
	}
}

func TestCountMinInnerProduct(t *testing.T) {
	a, _ := NewCountMin(2048, 5, 11)
	b, _ := NewCountMin(2048, 5, 11)
	// a holds {x:3}, b holds {x:5, y:7}: true inner product 15.
	a.UpdateString("x", 3)
	b.UpdateString("x", 5)
	b.UpdateString("y", 7)
	ip, err := a.InnerProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	if ip < 15 || ip > 20 {
		t.Fatalf("inner product %d, want ~15 (never under)", ip)
	}
}

func TestCountSketchUnbiasedAndTurnstile(t *testing.T) {
	cs, _ := NewCountSketch(1024, 5, 13)
	stream := ZipfStrings(5, 50000, 2000, 1.1)
	truth := map[string]int64{}
	for _, it := range stream {
		cs.Update([]byte(it), 1)
		truth[it]++
	}
	// Deletions: remove all of k0's mass.
	k0 := "k0"
	cs.Update([]byte(k0), -truth[k0])
	truth[k0] = 0
	if est := cs.Estimate([]byte(k0)); est > 500 || est < -500 {
		t.Fatalf("turnstile deletion left estimate %d", est)
	}
	// Heavy items should be estimated within a few percent.
	for i := 1; i < 5; i++ {
		it := fmt.Sprintf("k%d", i)
		c := truth[it]
		est := cs.Estimate([]byte(it))
		if est < c*8/10 || est > c*12/10 {
			t.Fatalf("count sketch estimate for %s: %d vs true %d", it, est, c)
		}
	}
}

func TestMisraGriesGuarantee(t *testing.T) {
	mg, _ := NewMisraGries(100)
	stream := ZipfStrings(6, 100000, 10000, 1.2)
	truth := map[string]uint64{}
	for _, it := range stream {
		mg.Update(it)
		truth[it]++
	}
	n := mg.Items()
	bound := n / 100
	for it, c := range truth {
		est := mg.Estimate(it)
		// Estimates never overcount and undercount by at most N/k.
		if est > c {
			t.Fatalf("MG overcounted %s: %d > %d", it, est, c)
		}
		if c > bound && est == 0 {
			t.Fatalf("MG lost guaranteed-frequent item %s (true %d > %d)", it, c, bound)
		}
		if est > 0 && c-est > bound {
			t.Fatalf("MG undercount beyond bound for %s: %d vs %d", it, est, c)
		}
	}
}

func TestMisraGriesMergePreservesBound(t *testing.T) {
	a, _ := NewMisraGries(50)
	b, _ := NewMisraGries(50)
	sa := ZipfStrings(7, 30000, 3000, 1.1)
	sb := ZipfStrings(8, 30000, 3000, 1.1)
	truth := map[string]uint64{}
	for _, it := range sa {
		a.Update(it)
		truth[it]++
	}
	for _, it := range sb {
		b.Update(it)
		truth[it]++
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Items() != 60000 {
		t.Fatalf("merged items %d", a.Items())
	}
	bound := a.Items() / 50 * 2 // merged bound relaxes to 2N/k
	for it, c := range truth {
		est := a.Estimate(it)
		if est > c {
			t.Fatalf("merged MG overcounted %s", it)
		}
		if c > bound && est == 0 {
			t.Fatalf("merged MG lost heavy item %s (true %d)", it, c)
		}
	}
	other, _ := NewMisraGries(60)
	if err := a.Merge(other); err == nil {
		t.Fatal("merged different k")
	}
}

func TestSpaceSavingGuarantees(t *testing.T) {
	ss, _ := NewSpaceSaving(200)
	stream := ZipfStrings(9, 100000, 10000, 1.2)
	truth := map[string]uint64{}
	for _, it := range stream {
		ss.Update(it)
		truth[it]++
	}
	// Overestimate bounded by min counter; never under true count for
	// tracked items; every item above N/k is tracked.
	minC := ss.MinCount()
	bound := ss.Items() / 200
	if minC > bound {
		t.Fatalf("min counter %d exceeds N/k %d", minC, bound)
	}
	for it, c := range truth {
		est, errB := ss.Estimate(it)
		if est == 0 {
			if c > bound {
				t.Fatalf("space-saving lost heavy item %s (true %d > %d)", it, c, bound)
			}
			continue
		}
		if est < c {
			t.Fatalf("space-saving under-estimated tracked %s: %d < %d", it, est, c)
		}
		if est-c > errB {
			t.Fatalf("overestimate %d-%d exceeds tracked err %d", est, c, errB)
		}
	}
}

func TestSpaceSavingTopKOrdering(t *testing.T) {
	ss, _ := NewSpaceSaving(50)
	// Deterministic stream: k0 x 100, k1 x 50, k2 x 25, noise x 1.
	for i := 0; i < 100; i++ {
		ss.Update("h0")
	}
	for i := 0; i < 50; i++ {
		ss.Update("h1")
	}
	for i := 0; i < 25; i++ {
		ss.Update("h2")
	}
	for i := 0; i < 20; i++ {
		ss.Update(fmt.Sprintf("noise%d", i))
	}
	top := ss.TopK(3)
	if len(top) != 3 || top[0].Item != "h0" || top[1].Item != "h1" || top[2].Item != "h2" {
		t.Fatalf("bad top-3: %+v", top)
	}
	if top[0].Count != 100 || top[1].Count != 50 {
		t.Fatalf("exact counts wrong below capacity: %+v", top)
	}
	g := ss.GuaranteedTopK(3)
	if len(g) != 3 {
		t.Fatalf("guaranteed top-3 has %d entries", len(g))
	}
}

func TestSpaceSavingEviction(t *testing.T) {
	ss, _ := NewSpaceSaving(2)
	ss.Update("a")
	ss.Update("a")
	ss.Update("b")
	ss.Update("c") // evicts b (min count 1), inherits err=1
	est, errB := ss.Estimate("c")
	if est != 2 || errB != 1 {
		t.Fatalf("eviction inheritance wrong: est=%d err=%d", est, errB)
	}
	if e, _ := ss.Estimate("b"); e != 0 {
		t.Fatal("evicted item still tracked")
	}
}

func TestLossyCountingGuarantees(t *testing.T) {
	lc, _ := NewLossyCounting(0.001)
	stream := ZipfStrings(10, 200000, 20000, 1.1)
	truth := map[string]uint64{}
	for _, it := range stream {
		lc.Update(it)
		truth[it]++
	}
	theta := 0.005
	out := lc.Frequent(theta)
	reported := map[string]bool{}
	for _, c := range out {
		reported[c.Item] = true
	}
	n := float64(lc.Items())
	for it, c := range truth {
		if float64(c) > theta*n && !reported[it] {
			t.Fatalf("lossy counting missed true heavy hitter %s (%d)", it, c)
		}
		if float64(c) < (theta-0.001)*n && reported[it] {
			t.Fatalf("lossy counting reported %s below theta-eps (%d)", it, c)
		}
	}
	// Space bound: (1/eps) log(eps N) = 1000 * log(200) ~ 5300.
	if lc.Entries() > 8000 {
		t.Fatalf("lossy counting holds %d entries", lc.Entries())
	}
}

func TestStickySamplingRecall(t *testing.T) {
	theta, eps, delta := 0.01, 0.002, 0.01
	misses := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s, err := NewStickySampling(theta, eps, delta, uint64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		stream := ZipfStrings(uint64(100+trial), 100000, 5000, 1.3)
		truth := map[string]uint64{}
		for _, it := range stream {
			s.Update(it)
			truth[it]++
		}
		out := s.Frequent(theta)
		reported := map[string]bool{}
		for _, c := range out {
			reported[c.Item] = true
		}
		n := float64(s.Items())
		for it, c := range truth {
			if float64(c) > theta*n && !reported[it] {
				misses++
			}
		}
	}
	if misses > 2 {
		t.Fatalf("sticky sampling missed %d heavy hitters across %d trials", misses, trials)
	}
}

func TestStickySamplingSpaceIndependentOfN(t *testing.T) {
	s, _ := NewStickySampling(0.01, 0.002, 0.01, 3)
	stream := ZipfStrings(11, 500000, 50000, 1.05)
	for _, it := range stream {
		s.Update(it)
	}
	// 2/eps * log(1/(theta delta)) = 1000 * log(1e4) ~ 9200 worst case.
	if s.Entries() > 15000 {
		t.Fatalf("sticky sampling grew to %d entries", s.Entries())
	}
}

func TestHierarchicalHH(t *testing.T) {
	h, err := NewHierarchicalHH(3, 200, "/")
	if err != nil {
		t.Fatal(err)
	}
	// Plant: sports/soccer/epl hot (400), sports/soccer/laliga warm (200),
	// news/politics/us hot (300), diffuse noise elsewhere.
	for i := 0; i < 400; i++ {
		h.Update("sports/soccer/epl")
	}
	for i := 0; i < 200; i++ {
		h.Update("sports/soccer/laliga")
	}
	for i := 0; i < 300; i++ {
		h.Update("news/politics/us")
	}
	rng := workload.NewRNG(12)
	for i := 0; i < 100; i++ {
		h.Update(fmt.Sprintf("misc/x%d/y%d", rng.Intn(50), i))
	}
	out := h.Query(0.15) // threshold = 150
	found := map[string]uint64{}
	for _, r := range out {
		found[r.Prefix] = r.Count
	}
	if found["sports/soccer/epl"] == 0 {
		t.Fatalf("missing leaf HHH: %+v", out)
	}
	if found["sports/soccer/laliga"] == 0 {
		t.Fatalf("missing second leaf HHH: %+v", out)
	}
	if found["news/politics/us"] == 0 {
		t.Fatalf("missing news leaf: %+v", out)
	}
	// sports/soccer raw count is 600 but both children are HHHs, so its
	// discounted count (~0) must NOT appear.
	if c, ok := found["sports/soccer"]; ok && c > 100 {
		t.Fatalf("parent not discounted: sports/soccer=%d", c)
	}
}

func TestWindowTopKSlidesOut(t *testing.T) {
	w, _ := NewWindowTopK(100)
	for i := 0; i < 100; i++ {
		w.Update("old")
	}
	for i := 0; i < 100; i++ {
		w.Update("new")
	}
	if w.Count("old") != 0 {
		t.Fatalf("old item still counted: %d", w.Count("old"))
	}
	if w.Count("new") != 100 {
		t.Fatalf("new count %d", w.Count("new"))
	}
	top := w.TopK(1)
	if len(top) != 1 || top[0].Item != "new" {
		t.Fatalf("bad top-1: %+v", top)
	}
	if w.WindowLen() != 100 {
		t.Fatalf("window len %d", w.WindowLen())
	}
}

func TestWindowTopKMatchesExactOverWindow(t *testing.T) {
	const window = 1000
	w, _ := NewWindowTopK(window)
	stream := ZipfStrings(13, 10000, 200, 1.0)
	for _, it := range stream {
		w.Update(it)
	}
	tail := stream[len(stream)-window:]
	exact := ExactTopK(tail, 10)
	got := w.TopK(10)
	for i := range exact {
		if got[i].Count != exact[i].Count {
			t.Fatalf("window top-k counts diverge at %d: %+v vs %+v", i, got[i], exact[i])
		}
	}
}

func TestQuickCountMinMonotone(t *testing.T) {
	// Property: Count-Min estimates never undercount, on any input.
	f := func(items []uint8) bool {
		cm, _ := NewCountMin(64, 3, 5)
		truth := map[string]uint64{}
		for _, b := range items {
			it := fmt.Sprintf("i%d", b%32)
			cm.UpdateString(it, 1)
			truth[it]++
		}
		for it, c := range truth {
			if cm.EstimateString(it) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSpaceSavingNeverUnder(t *testing.T) {
	f := func(items []uint8) bool {
		ss, _ := NewSpaceSaving(8)
		truth := map[string]uint64{}
		for _, b := range items {
			it := fmt.Sprintf("i%d", b%16)
			ss.Update(it)
			truth[it]++
		}
		for it, c := range truth {
			if est, _ := ss.Estimate(it); est != 0 && est < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	cm, _ := NewCountMin(2048, 5, 1)
	key := []byte("benchmark-key")
	for i := 0; i < b.N; i++ {
		cm.Update(key, 1)
	}
}

func BenchmarkSpaceSavingUpdate(b *testing.B) {
	ss, _ := NewSpaceSaving(1000)
	keys := ZipfStrings(1, 100000, 10000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Update(keys[i%len(keys)])
	}
}

func BenchmarkMisraGriesUpdate(b *testing.B) {
	mg, _ := NewMisraGries(1000)
	keys := ZipfStrings(1, 100000, 10000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Update(keys[i%len(keys)])
	}
}

func TestMisraGriesDecrementPath(t *testing.T) {
	// Force constant decrement churn: k=3 counters, 4 rotating keys.
	mg, _ := NewMisraGries(3)
	for i := 0; i < 1000; i++ {
		mg.Update(fmt.Sprintf("r%d", i%4))
	}
	// No key exceeds N/k = 333... but none is guaranteed either; the
	// invariant is only that estimates never overcount.
	for i := 0; i < 4; i++ {
		if est := mg.Estimate(fmt.Sprintf("r%d", i)); est > 250 {
			t.Fatalf("rotating key overcounted: %d", est)
		}
	}
}

func TestSpaceSavingSingleCounter(t *testing.T) {
	ss, _ := NewSpaceSaving(1)
	ss.Update("a")
	ss.Update("b") // evicts a
	ss.Update("b")
	est, errB := ss.Estimate("b")
	if est != 3 || errB != 1 {
		t.Fatalf("k=1 estimate %d err %d", est, errB)
	}
	if len(ss.TopK(5)) != 1 {
		t.Fatal("k=1 tracks more than one item")
	}
}

func TestCountSketchMedianDepthEven(t *testing.T) {
	// Even depth exercises the two-middle-average branch.
	cs, _ := NewCountSketch(256, 4, 3)
	for i := 0; i < 1000; i++ {
		cs.Update([]byte("x"), 1)
	}
	if est := cs.Estimate([]byte("x")); est < 900 || est > 1100 {
		t.Fatalf("even-depth estimate %d", est)
	}
}

func TestHierarchicalHHDepthClamp(t *testing.T) {
	h, _ := NewHierarchicalHH(2, 50, "/")
	// Deeper keys than maxDepth are clamped, not dropped.
	for i := 0; i < 100; i++ {
		h.Update("a/b/c/d/e")
	}
	out := h.Query(0.5)
	found := false
	for _, r := range out {
		if r.Prefix == "a/b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("clamped prefix missing: %+v", out)
	}
}

func TestWindowTopKPartialWindow(t *testing.T) {
	w, _ := NewWindowTopK(1000)
	w.Update("only")
	if w.WindowLen() != 1 || w.Count("only") != 1 {
		t.Fatal("partial window miscounted")
	}
	top := w.TopK(10)
	if len(top) != 1 || top[0].Item != "only" {
		t.Fatalf("partial window top-k %+v", top)
	}
}

func TestExactTopKTieBreak(t *testing.T) {
	items := []string{"b", "a", "c", "a", "b", "c"}
	top := ExactTopK(items, 3)
	// Equal counts break ties lexicographically for determinism.
	if top[0].Item != "a" || top[1].Item != "b" || top[2].Item != "c" {
		t.Fatalf("tie-break order %+v", top)
	}
}

func TestCountMinSerializationRoundTrip(t *testing.T) {
	cm, _ := NewCountMin(128, 4, 77)
	for i := 0; i < 5000; i++ {
		cm.UpdateString(fmt.Sprintf("k%d", i%100), 1)
	}
	data, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCountMin(data, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		if back.EstimateString(k) != cm.EstimateString(k) {
			t.Fatalf("round trip changed estimate for %s", k)
		}
	}
	if back.Items() != cm.Items() {
		t.Fatal("round trip changed item count")
	}
	// Decoded sketch must keep merging with same-seed peers.
	peer, _ := NewCountMin(128, 4, 77)
	peer.UpdateString("k0", 10)
	if err := back.Merge(peer); err != nil {
		t.Fatal(err)
	}
	if back.EstimateString("k0") < cm.EstimateString("k0")+10 {
		t.Fatal("merge after decode lost counts")
	}
}

func TestCountMinSerializationRejectsBadInput(t *testing.T) {
	cm, _ := NewCountMin(32, 3, 5)
	cm.UpdateString("x", 1)
	data, _ := cm.MarshalBinary()
	if _, err := UnmarshalCountMin(data[:10], 5); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, err := UnmarshalCountMin(data, 6); err == nil {
		t.Fatal("wrong seed accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := UnmarshalCountMin(bad, 5); err == nil {
		t.Fatal("bad magic accepted")
	}
	cons, _ := NewCountMin(32, 3, 5)
	cons.SetConservative(true)
	cons.UpdateString("x", 1)
	cdata, _ := cons.MarshalBinary()
	cback, err := UnmarshalCountMin(cdata, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cback.Merge(cm); err == nil {
		t.Fatal("conservative flag lost in round trip")
	}
}

func TestSpaceSavingMergeEqualsConcat(t *testing.T) {
	a, _ := NewSpaceSaving(200)
	b, _ := NewSpaceSaving(200)
	sa := ZipfStrings(21, 50000, 5000, 1.2)
	sb := ZipfStrings(22, 50000, 5000, 1.2)
	truth := map[string]uint64{}
	for _, it := range sa {
		a.Update(it)
		truth[it]++
	}
	for _, it := range sb {
		b.Update(it)
		truth[it]++
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Items() != 100000 {
		t.Fatalf("merged items %d", a.Items())
	}
	if len(a.elem) > 200 {
		t.Fatalf("merged summary exceeds k: %d", len(a.elem))
	}
	// Estimates stay overestimates bounded by Err, and every item above
	// 2N/k in the concatenated stream is still tracked.
	for _, c := range a.TopK(len(a.elem)) {
		if tc := truth[c.Item]; c.Count < tc {
			t.Fatalf("merged SS undercounted %s: %d < %d", c.Item, c.Count, tc)
		} else if c.Count-c.Err > tc {
			t.Fatalf("merged SS error bound violated for %s: %d-%d > %d", c.Item, c.Count, c.Err, tc)
		}
	}
	bound := a.Items() / 200 * 2
	for it, tc := range truth {
		if tc > bound {
			if c, _ := a.Estimate(it); c == 0 {
				t.Fatalf("merged SS lost heavy item %s (true %d > %d)", it, tc, bound)
			}
		}
	}
	// The internal Stream-Summary structure must survive the rebuild:
	// further updates and min lookups keep working.
	for _, it := range ZipfStrings(23, 10000, 5000, 1.2) {
		a.Update(it)
	}
	if a.MinCount() == 0 {
		t.Fatal("min count zero after post-merge updates on a full summary")
	}
	other, _ := NewSpaceSaving(100)
	if err := a.Merge(other); err == nil {
		t.Fatal("merged different k")
	}
}

func TestSpaceSavingMergeIntoEmptyPreservesCounts(t *testing.T) {
	src, _ := NewSpaceSaving(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			src.Update(string(rune('a' + i)))
		}
	}
	dst, _ := NewSpaceSaving(8)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	// Neither side was full, so the merge is exact.
	for i := 0; i < 5; i++ {
		c, e := dst.Estimate(string(rune('a' + i)))
		if c != uint64(i+1) || e != 0 {
			t.Fatalf("item %c: got (%d,%d), want (%d,0)", 'a'+i, c, e, i+1)
		}
	}
	if dst.Items() != src.Items() {
		t.Fatalf("items %d != %d", dst.Items(), src.Items())
	}
}

// Reset must return a summary to its freshly-constructed behavior while
// reusing allocations.
func TestSpaceSavingReset(t *testing.T) {
	ss, _ := NewSpaceSaving(8)
	for i := 0; i < 500; i++ {
		ss.Update(fmt.Sprintf("i%d", i%20))
	}
	ss.Reset()
	if ss.Items() != 0 || ss.MinCount() != 0 || len(ss.TopK(8)) != 0 {
		t.Fatalf("reset summary not empty: items %d, min %d", ss.Items(), ss.MinCount())
	}
	// Behaves exactly like a fresh summary afterwards.
	fresh, _ := NewSpaceSaving(8)
	for i := 0; i < 300; i++ {
		item := fmt.Sprintf("j%d", i%10)
		ss.Update(item)
		fresh.Update(item)
	}
	got, want := ss.TopK(8), fresh.TopK(8)
	if len(got) != len(want) {
		t.Fatalf("topk sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestCountMinReset(t *testing.T) {
	cm, _ := NewCountMin(64, 3, 9)
	for i := 0; i < 200; i++ {
		cm.UpdateString(fmt.Sprintf("i%d", i%10), 2)
	}
	cm.Reset()
	if cm.Items() != 0 {
		t.Fatalf("items %d after reset", cm.Items())
	}
	for i := 0; i < 10; i++ {
		if c := cm.EstimateString(fmt.Sprintf("i%d", i)); c != 0 {
			t.Fatalf("count %d after reset", c)
		}
	}
	cm.UpdateString("x", 3)
	if c := cm.EstimateString("x"); c != 3 {
		t.Fatalf("post-reset update counted %d, want 3", c)
	}
}

// A header claiming width 2^31 x depth 2^30 wraps an int size check to
// zero, so 29 bytes used to pass it and UnmarshalCountMin went on to
// allocate the claimed matrix. The size is checked in uint64 against the
// bytes present, before anything is allocated.
func TestCountMinUnmarshalRejectsWrappingGeometry(t *testing.T) {
	hostile := make([]byte, cmHeaderSize)
	binary.LittleEndian.PutUint32(hostile[0:], cmMagic)
	binary.LittleEndian.PutUint32(hostile[4:], 1<<31)
	binary.LittleEndian.PutUint32(hostile[8:], 1<<30)
	if _, err := UnmarshalCountMin(hostile, 1); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("UnmarshalCountMin of a wrapping header: %v, want ErrCorrupt", err)
	}
	cm, _ := NewCountMin(4, 2, 1)
	if err := cm.UnmarshalBinary(hostile); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("UnmarshalBinary of a wrapping header: %v, want ErrCorrupt", err)
	}
	// A body that is not a whole number of counters is corrupt too.
	good, _ := cm.MarshalBinary()
	if err := cm.UnmarshalBinary(good[:len(good)-3]); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("ragged body: %v, want ErrCorrupt", err)
	}
}

// The flags byte has one bit, conservative. A payload with any other
// bit set used to decode with the bit dropped and re-marshal to other
// bytes; it is corrupt.
func TestCountMinUnmarshalRejectsUnknownFlags(t *testing.T) {
	cm, _ := NewCountMin(8, 2, 1)
	cm.UpdateString("x", 3)
	good, _ := cm.MarshalBinary()
	for bit := 1; bit < 8; bit++ {
		bad := append([]byte(nil), good...)
		bad[12] |= 1 << bit
		if err := cm.UnmarshalBinary(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("flags %#02x: %v, want ErrCorrupt", bad[12], err)
		}
		if _, err := UnmarshalCountMin(bad, 1); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("UnmarshalCountMin, flags %#02x: %v, want ErrCorrupt", bad[12], err)
		}
	}
}

// FuzzCountMinUnmarshal: the Count-Min decoder on bytes it did not write
// never panics, allocates within a bound of the input's size, and
// accepts only what re-marshals to the same bytes — decoded into a
// sparse receiver and into a dense one, which accept the same inputs.
func FuzzCountMinUnmarshal(f *testing.F) {
	const seed = 7
	add := func(width, depth int, conservative bool, items []string) {
		cm, _ := NewSparseCountMin(width, depth, seed)
		cm.SetConservative(conservative)
		for _, it := range items {
			cm.UpdateString(it, 1)
		}
		b, _ := cm.MarshalBinary()
		f.Add(b)
	}
	add(8, 2, false, nil)                               // empty
	add(8, 2, false, []string{"a", "b", "a"})           // sparse
	add(16, 3, false, ZipfStrings(1, 400, 50, 1.1))     // dense
	add(16, 3, true, []string{"a", "b", "c", "a", "a"}) // conservative
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode into receivers of the body's own geometry when it is a
		// small one, so the counters are reached.
		width, depth := 8, 2
		if w, d, err := cmGeometry(data); err == nil && w*d <= 1<<12 {
			width, depth = w, d
		}
		var accepted []bool
		for _, fresh := range []func() *CountMin{
			func() *CountMin { cm, _ := NewSparseCountMin(width, depth, seed); return cm },
			func() *CountMin { cm, _ := NewCountMin(width, depth, seed); return cm },
		} {
			// TotalAlloc is process-wide and the fuzz engine allocates
			// beside the target, so the bound holds the least of three
			// decodes, each into a fresh receiver.
			var cm *CountMin
			var err error
			grew := uint64(math.MaxUint64)
			for range 3 {
				cm = fresh()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = cm.UnmarshalBinary(data)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > uint64(8*len(data)+8192) {
				t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
			}
			if accepted = append(accepted, err == nil); err != nil {
				continue
			}
			if got, _ := cm.MarshalBinary(); !bytes.Equal(got, data) {
				t.Fatalf("accepted bytes re-marshal differently (sparse receiver: %v)", cm.IsSparse())
			}
		}
		if accepted[0] != accepted[1] {
			t.Fatalf("the sparse receiver accepted: %v, the dense one: %v", accepted[0], accepted[1])
		}
	})
}

// compacted returns cm's Compact copy, or nil when cm offers none,
// in which case Compact must have left its destination alone.
func compacted(cm *CountMin) *CountMin {
	var c CountMin
	if !cm.Compact(&c) {
		if !reflect.DeepEqual(c, CountMin{}) {
			panic("Compact refused a copy yet wrote its destination")
		}
		return nil
	}
	return &c
}

// The sparse form is a representation, not a different sketch: what the
// store's property tests pin through its adapters (bytes, estimates,
// merges) holds here for the operations only this package reaches —
// InnerProduct, in-place updates, Reset and decode into a sparse receiver.
func TestCountMinSparseForm(t *testing.T) {
	dense, _ := NewCountMin(64, 4, 9)
	for i := 0; i < 6; i++ {
		dense.UpdateString(fmt.Sprintf("k%d", i), uint64(1+i))
	}
	sparse := compacted(dense)
	if sparse == nil || compacted(sparse) != nil {
		t.Fatal("a 6-item 64x4 sketch must compact exactly once")
	}
	if 2*sparse.Bytes() >= dense.Bytes() {
		t.Fatalf("sparse form %d bytes of %d", sparse.Bytes(), dense.Bytes())
	}
	other, _ := NewCountMin(64, 4, 9)
	other.UpdateString("k1", 5)
	other.UpdateString("zz", 2)
	cross, _ := dense.InnerProduct(other)
	self, _ := dense.InnerProduct(dense)
	for _, c := range []struct {
		name string
		a, b *CountMin
		want uint64
	}{
		{"sparse.dense", sparse, other, cross},
		{"dense.sparse", other, sparse, cross},
		{"sparse.sparse", sparse, compacted(dense), self},
	} {
		if got, err := c.a.InnerProduct(c.b); err != nil || got != c.want {
			t.Fatalf("%s inner product %d (%v), want %d", c.name, got, err, c.want)
		}
	}
	// An update counts on in place, in the sparse form while it fits.
	sparse.UpdateString("k0", 10)
	dense.UpdateString("k0", 10)
	a, _ := sparse.MarshalBinary()
	b, _ := dense.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("update of a sparse sketch diverged from the dense one")
	}
	// Decode into a sparse receiver, and Reset of one.
	recv := compacted(dense)
	if err := recv.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got, _ := recv.MarshalBinary(); !bytes.Equal(got, b) {
		t.Fatal("decode into a sparse receiver lost counters")
	}
	empty := compacted(dense)
	held := empty.Bytes()
	empty.Reset()
	if empty.Items() != 0 || empty.EstimateString("k0") != 0 {
		t.Fatal("Reset left counts in a sparse sketch")
	}
	// Bytes counts the entries' allocation, which Reset keeps.
	if empty.Bytes() != held {
		t.Fatalf("a reset sparse sketch reports %d bytes, its allocation is %d", empty.Bytes(), held)
	}
	// Too full to pay: a quarter of the cells occupied is the limit.
	full, _ := NewCountMin(8, 2, 9)
	for i := 0; i < 40; i++ {
		full.UpdateString(fmt.Sprintf("k%d", i), 1)
	}
	if compacted(full) != nil {
		t.Fatal("a saturated sketch compacted")
	}
}

// nonZero counts a dense sketch's non-zero counters.
func nonZero(cm *CountMin) int {
	n := 0
	for _, row := range cm.counts {
		for _, c := range row {
			if c != 0 {
				n++
			}
		}
	}
	return n
}

// probeItems returns the items i0 .. i(n-1).
func probeItems(n int) []string {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("i%d", i)
	}
	return items
}

// sameSketch fails unless a and b marshal to the same bytes, count the
// same items and estimate every probe item alike.
func sameSketch(t *testing.T, what string, a, b *CountMin, probes []string) {
	t.Helper()
	ab, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("%s: MarshalBinary bytes differ", what)
	}
	if a.Items() != b.Items() {
		t.Fatalf("%s: items %d != %d", what, a.Items(), b.Items())
	}
	for _, item := range probes {
		if x, y := a.EstimateString(item), b.EstimateString(item); x != y {
			t.Fatalf("%s: estimate[%s] %d != %d", what, item, x, y)
		}
	}
}

// A sketch born sparse is the dense sketch in another form: fed the same
// weighted stream across the quarter-occupancy crossover, it answers
// every estimate, item count and MarshalBinary byte alike after every
// update; it turns dense exactly when its non-zero counters stop
// fitting; and a decode into a sparse receiver restores its form and
// footprint.
func TestSparseCountMinMatchesDense(t *testing.T) {
	const width, depth, universe = 64, 4, 120
	rng := workload.NewRNG(17)
	items := probeItems(universe + 3) // three items never observed
	for trial := 0; trial < 8; trial++ {
		sparse, err := NewSparseCountMin(width, depth, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.IsSparse() || sparse.Bytes() != 32 {
			t.Fatalf("trial %d: a new sparse sketch is %d bytes, sparse %v", trial, sparse.Bytes(), sparse.IsSparse())
		}
		dense, _ := NewCountMin(width, depth, 3)
		flipped := false
		for step := 0; step < 2*universe; step++ {
			item := items[rng.Uint64()%universe]
			w := 1 + rng.Uint64()%5
			sparse.UpdateString(item, w)
			dense.UpdateString(item, w)
			what := fmt.Sprintf("trial %d step %d", trial, step)
			sameSketch(t, what, sparse, dense, items)
			if want := sparse.sparseFits(nonZero(dense)); sparse.IsSparse() != want {
				t.Fatalf("%s: sparse %v with %d non-zero counters", what, sparse.IsSparse(), nonZero(dense))
			}
			flipped = flipped || !sparse.IsSparse()
			raw, _ := dense.MarshalBinary()
			recv, _ := NewSparseCountMin(width, depth, 3)
			if err := recv.UnmarshalBinary(raw); err != nil {
				t.Fatal(err)
			}
			if recv.IsSparse() != sparse.IsSparse() || recv.Bytes() != sparse.Bytes() {
				t.Fatalf("%s: decoded sparse %v in %d bytes, live %v in %d", what, recv.IsSparse(), recv.Bytes(), sparse.IsSparse(), sparse.Bytes())
			}
			sameSketch(t, what+" decoded", recv, dense, items)
		}
		if !flipped {
			t.Fatalf("trial %d: the stream never crossed into the dense form", trial)
		}
	}
}

// Merging gives the dense <- dense bytes in all four form pairings, and
// a sparse receiver stays sparse exactly while the sum fits.
func TestSparseCountMinMergePairings(t *testing.T) {
	const width, depth = 64, 4
	rng := workload.NewRNG(23)
	items := probeItems(200)
	build := func(n int) (sparse, dense *CountMin) {
		sparse, _ = NewSparseCountMin(width, depth, 5)
		dense, _ = NewCountMin(width, depth, 5)
		for i := 0; i < n; i++ {
			item := items[rng.Uint64()%200]
			w := 1 + rng.Uint64()%5
			sparse.UpdateString(item, w)
			dense.UpdateString(item, w)
		}
		return sparse, dense
	}
	// copyAs decodes src's bytes into a fresh receiver of the given form.
	copyAs := func(src *CountMin, sparseForm bool) *CountMin {
		recv, _ := NewCountMin(width, depth, 5)
		if sparseForm {
			recv, _ = NewSparseCountMin(width, depth, 5)
		}
		raw, _ := src.MarshalBinary()
		if err := recv.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		return recv
	}
	sawSparse, sawDense := false, false
	for trial := 0; trial < 60; trial++ {
		xs, xd := build(int(rng.Uint64() % 24))
		ys, yd := build(int(rng.Uint64() % 24))
		want := copyAs(xd, false)
		if err := want.Merge(yd); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			recv *CountMin
			arg  *CountMin
		}{
			{"dense<-sparse", copyAs(xd, false), ys},
			{"sparse<-dense", copyAs(xs, true), yd},
			{"sparse<-sparse", copyAs(xs, true), ys},
		} {
			wasSparse := c.recv.IsSparse()
			before, _ := c.arg.MarshalBinary()
			if err := c.recv.Merge(c.arg); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d %s", trial, c.name)
			sameSketch(t, what, c.recv, want, items)
			if after, _ := c.arg.MarshalBinary(); !bytes.Equal(before, after) {
				t.Fatalf("%s: merge mutated its argument", what)
			}
			if wasSparse && c.arg.IsSparse() {
				if fits := c.recv.sparseFits(nonZero(want)); c.recv.IsSparse() != fits {
					t.Fatalf("%s: sparse %v with %d non-zero counters", what, c.recv.IsSparse(), nonZero(want))
				}
				sawSparse = sawSparse || c.recv.IsSparse()
				sawDense = sawDense || !c.recv.IsSparse()
			}
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("sparse<-sparse merges stayed sparse %v, turned dense %v: both must be exercised", sawSparse, sawDense)
	}
}

// Conservative update reads every row before it writes; a sparse-born
// sketch switched to it, from birth or part-way through a stream,
// answers like a dense conservative one.
func TestSparseCountMinConservative(t *testing.T) {
	for _, switchAt := range []int{0, 5} {
		sparse, _ := NewSparseCountMin(32, 4, 8)
		dense, _ := NewCountMin(32, 4, 8)
		rng := workload.NewRNG(4)
		items := probeItems(53)
		for i := 0; i < 300; i++ {
			if i == switchAt {
				if !sparse.IsSparse() {
					t.Fatalf("switch at %d: already dense", switchAt)
				}
				sparse.SetConservative(true)
				dense.SetConservative(true)
			}
			item := items[rng.Uint64()%50]
			w := 1 + rng.Uint64()%3
			sparse.UpdateString(item, w)
			dense.UpdateString(item, w)
			sameSketch(t, fmt.Sprintf("switch at %d, update %d", switchAt, i), sparse, dense, items)
		}
		if err := sparse.Merge(dense); err == nil {
			t.Fatal("a conservative sparse-born sketch merged")
		}
	}
}

// A payload stands for its sketch: merged into a dense or a sparse
// receiver it gives the bytes Merge of the sketch gives, its binary form
// is the sketch's MarshalBinary, and only a sparse, non-conservative
// sketch has one. Counts up to 2^40 and sketches from one cell to the
// sparse form's limit make deltas and counts take one to six bytes.
func TestCountMinPayloadStandsForSketch(t *testing.T) {
	for _, n := range []int{0, 1, 9, 40, 500} {
		for _, weight := range []uint64{1, 200, 1 << 40} {
			src, _ := NewSparseCountMin(512, 4, 9)
			for i := 0; i < n; i++ {
				src.UpdateString(fmt.Sprintf("item-%d", i%37), weight+uint64(i))
			}
			payload, ok := src.AppendPayload([]byte{0xa5})
			if ok != src.IsSparse() {
				t.Fatalf("n=%d: AppendPayload reports %v for a sketch sparse %v", n, ok, src.IsSparse())
			}
			if !ok {
				continue
			}
			payload = payload[1:]
			want, _ := src.MarshalBinary()
			if got := AppendCountMinPayloadBinary([]byte{0xa5}, 512, 4, 9, payload); !bytes.Equal(got[1:], want) {
				t.Fatalf("n=%d weight %d: AppendCountMinPayloadBinary differs from MarshalBinary", n, weight)
			}
			for _, sparse := range []bool{false, true} {
				viaSketch, viaPayload := new(CountMin), new(CountMin)
				for _, cm := range []*CountMin{viaSketch, viaPayload} {
					if err := cm.Init(512, 4, 9, sparse); err != nil {
						t.Fatal(err)
					}
					cm.UpdateString("already-there", 3)
				}
				if err := viaSketch.Merge(src); err != nil {
					t.Fatal(err)
				}
				if err := viaPayload.MergePayload(payload); err != nil {
					t.Fatal(err)
				}
				a, _ := viaSketch.MarshalBinary()
				b, _ := viaPayload.MarshalBinary()
				if !bytes.Equal(a, b) || viaSketch.IsSparse() != viaPayload.IsSparse() || viaSketch.Bytes() != viaPayload.Bytes() {
					t.Fatalf("n=%d weight %d sparse receiver %v: MergePayload differs from Merge", n, weight, sparse)
				}
			}
		}
	}
	// A sparse receiver near its limit (511 cells at 512x4) turns dense
	// partway through a payload of 100 items: the cells after the switch
	// take the dense branch, which finds each one's row from the running
	// cell.
	src, _ := NewSparseCountMin(512, 4, 9)
	for i := 0; i < 100; i++ {
		src.UpdateString(fmt.Sprintf("item-%d", i), uint64(i+1))
	}
	payload, ok := src.AppendPayload(nil)
	if !ok {
		t.Fatal("100 items left a 512x4 sketch dense")
	}
	for _, held := range []int{50, 75, 100} {
		viaSketch, viaPayload := new(CountMin), new(CountMin)
		for _, cm := range []*CountMin{viaSketch, viaPayload} {
			if err := cm.Init(512, 4, 9, true); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < held; i++ {
				cm.UpdateString(fmt.Sprintf("held-%d", i), 7)
			}
		}
		if !viaPayload.IsSparse() {
			t.Fatalf("held %d: the receiver is dense before the merge", held)
		}
		if err := viaSketch.Merge(src); err != nil {
			t.Fatal(err)
		}
		if err := viaPayload.MergePayload(payload); err != nil {
			t.Fatal(err)
		}
		if viaPayload.IsSparse() {
			t.Fatalf("held %d: the receiver stayed sparse, so the switch was not crossed", held)
		}
		a, _ := viaSketch.MarshalBinary()
		b, _ := viaPayload.MarshalBinary()
		if !bytes.Equal(a, b) || viaSketch.IsSparse() || viaSketch.Bytes() != viaPayload.Bytes() {
			t.Fatalf("held %d: MergePayload across the switch to dense differs from Merge", held)
		}
	}
	dense, _ := NewCountMin(512, 4, 9)
	if b, ok := dense.AppendPayload(nil); ok || len(b) != 0 {
		t.Fatal("a dense sketch has a payload")
	}
	cons, _ := NewSparseCountMin(512, 4, 9)
	cons.SetConservative(true)
	if _, ok := cons.AppendPayload(nil); ok {
		t.Fatal("a conservative sketch has a payload")
	}
	if err := cons.MergePayload([]byte{0}); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("a conservative receiver took a payload: %v", err)
	}
}
