// Property tests for the Synopsis merge laws. Every bucket synopsis the
// store serves must satisfy, for random streams:
//
//   - commutativity:   merge(A, B) answers like merge(B, A)
//   - associativity:   merge(merge(A, B), C) answers like merge(A, merge(B, C))
//   - split/unsplit:   merging the synopses of a randomly split stream
//     answers like one synopsis fed the whole stream
//
// within each family's error model. HyperLogLog (register max) and
// Count-Min (counter addition) are *exactly* invariant — the laws are
// checked with equality. Space-Saving and q-digest reorganize state on
// merge, so their laws are checked against each sketch's published
// guarantee (overestimate bounded by Err; rank error bounded by
// logU/k per constituent). The split/unsplit property is the invariant
// every range query leans on: a series' buckets are a stream split by
// time, and the cluster's scatter-gather and the Lambda batch/speed merge
// split it again by partition and by log offset.
//
// The two exactly-invariant families, and top-k, also have a compact form
// that sealed buckets are held in; TestCompactEqualsDense pins that
// compact(x) cannot be told from x by any read, by its bytes, or as either
// side of a merge.
package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/workload"
)

const propTrials = 20

// splitStream deals a stream into n parts using the rng, returning the
// parts; every element lands in exactly one part.
func splitStream[T any](rng *workload.RNG, stream []T, n int) [][]T {
	parts := make([][]T, n)
	for _, x := range stream {
		i := int(rng.Uint64() % uint64(n))
		parts[i] = append(parts[i], x)
	}
	return parts
}

func mustMerge(t *testing.T, dst, src Synopsis) {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
}

// copyOf clones a synopsis by merging it into a fresh prototype instance.
func copyOf(t *testing.T, proto Prototype, s Synopsis) Synopsis {
	t.Helper()
	c := proto.New()
	mustMerge(t, c, s)
	return c
}

func TestDistinctMergeLaws(t *testing.T) {
	proto, err := NewDistinctProto(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(1)
	for trial := 0; trial < propTrials; trial++ {
		n := 200 + int(rng.Uint64()%2000)
		universe := 1 + int(rng.Uint64()%1500)
		stream := make([]string, n)
		for i := range stream {
			stream[i] = fmt.Sprintf("u%d", rng.Uint64()%uint64(universe))
		}
		whole := proto.New()
		parts := splitStream(rng, stream, 3)
		abc := []Synopsis{proto.New(), proto.New(), proto.New()}
		for i, part := range parts {
			for _, item := range part {
				abc[i].Observe(item, 1)
			}
		}
		for _, item := range stream {
			whole.Observe(item, 1)
		}
		a, b, c := abc[0], abc[1], abc[2]

		// Commutativity, exactly: register-wise max has no order.
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		if ab.(*Distinct).Estimate() != ba.(*Distinct).Estimate() {
			t.Fatalf("trial %d: merge not commutative: %f != %f",
				trial, ab.(*Distinct).Estimate(), ba.(*Distinct).Estimate())
		}
		// Associativity, exactly.
		abThenC := copyOf(t, proto, ab)
		mustMerge(t, abThenC, c)
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		if abThenC.(*Distinct).Estimate() != aThenBC.(*Distinct).Estimate() {
			t.Fatalf("trial %d: merge not associative", trial)
		}
		// Split stream == unsplit stream, exactly.
		if got, want := abThenC.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
			t.Fatalf("trial %d: split-merge %f != whole %f", trial, got, want)
		}
		if abThenC.Items() != whole.Items() {
			t.Fatalf("trial %d: items %d != %d", trial, abThenC.Items(), whole.Items())
		}
	}
}

func TestFreqMergeLaws(t *testing.T) {
	proto, err := NewFreqProto(256, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(2)
	for trial := 0; trial < propTrials; trial++ {
		n := 200 + int(rng.Uint64()%2000)
		z := workload.NewZipf(rng, 100, 1.2)
		type wobs struct {
			item string
			w    uint64
		}
		stream := make([]wobs, n)
		for i := range stream {
			stream[i] = wobs{item: fmt.Sprintf("i%d", z.Draw()), w: 1 + rng.Uint64()%5}
		}
		whole := proto.New()
		for _, o := range stream {
			whole.Observe(o.item, o.w)
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto.New()
			for _, o := range part {
				syns[i].Observe(o.item, o.w)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]
		probe := func(s Synopsis, item string) uint64 { return s.(*Freq).Count(item) }

		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		abThenC := copyOf(t, proto, ab)
		mustMerge(t, abThenC, c)
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		for u := 0; u < 100; u++ {
			item := fmt.Sprintf("i%d", u)
			if probe(ab, item) != probe(ba, item) {
				t.Fatalf("trial %d: count-min merge not commutative on %s", trial, item)
			}
			if probe(abThenC, item) != probe(aThenBC, item) {
				t.Fatalf("trial %d: count-min merge not associative on %s", trial, item)
			}
			// Counter addition is linear: split == unsplit, exactly.
			if probe(abThenC, item) != probe(whole, item) {
				t.Fatalf("trial %d: split-merge count %d != whole %d on %s",
					trial, probe(abThenC, item), probe(whole, item), item)
			}
		}
		if abThenC.Items() != whole.Items() {
			t.Fatalf("trial %d: items %d != %d", trial, abThenC.Items(), whole.Items())
		}
	}
}

func TestTopKMergeLaws(t *testing.T) {
	const k = 24
	proto, err := NewTopKProto(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(3)
	for trial := 0; trial < propTrials; trial++ {
		n := 500 + int(rng.Uint64()%3000)
		z := workload.NewZipf(rng, 200, 1.3)
		stream := make([]string, n)
		exact := map[string]uint64{}
		for i := range stream {
			stream[i] = fmt.Sprintf("i%d", z.Draw())
			exact[stream[i]]++
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto.New()
			for _, item := range part {
				syns[i].Observe(item, 1)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]

		// checkGuarantees asserts the Space-Saving contract on a merged
		// summary over the full stream: every tracked estimate brackets
		// the true count (count-err <= true <= count), the stream length
		// is exact, and every item with true count > n/k is tracked.
		checkGuarantees := func(s Synopsis, label string) {
			t.Helper()
			tk := s.(*TopK)
			if tk.Items() != uint64(n) {
				t.Fatalf("trial %d %s: items %d != %d", trial, label, tk.Items(), n)
			}
			tracked := map[string]bool{}
			for _, cand := range tk.Top(k) {
				tracked[cand.Item] = true
				truth := exact[cand.Item]
				if cand.Count < truth {
					t.Fatalf("trial %d %s: %s underestimated: %d < true %d",
						trial, label, cand.Item, cand.Count, truth)
				}
				if cand.Count-cand.Err > truth {
					t.Fatalf("trial %d %s: %s over error bound: %d - err %d > true %d",
						trial, label, cand.Item, cand.Count, cand.Err, truth)
				}
			}
			for item, cnt := range exact {
				if cnt > uint64(n)/uint64(k) && !tracked[item] {
					t.Fatalf("trial %d %s: heavy hitter %s (count %d > n/k) untracked",
						trial, label, item, cnt)
				}
			}
		}
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		mustMerge(t, ab, c)
		checkGuarantees(ab, "(a+b)+c")
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		mustMerge(t, ba, c)
		checkGuarantees(ba, "(b+a)+c")
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		checkGuarantees(aThenBC, "a+(b+c)")
	}
}

func TestQuantilesMergeLaws(t *testing.T) {
	const (
		logU = 12
		kq   = 64
	)
	proto, err := NewQuantileProto(logU, kq)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(4)
	for trial := 0; trial < propTrials; trial++ {
		n := 500 + int(rng.Uint64()%3000)
		stream := make([]uint64, n)
		for i := range stream {
			stream[i] = rng.Uint64() % (1 << logU)
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto.New()
			for _, v := range part {
				syns[i].Observe("", v)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]

		// rankOf counts stream values <= v — the exact rank the q-digest
		// answer is judged against.
		rankOf := func(v uint64) int {
			r := 0
			for _, x := range stream {
				if x <= v {
					r++
				}
			}
			return r
		}
		// A q-digest answers phi with rank error <= logU/k * n; merging
		// adds the constituents' errors, so three parts allow 3x that,
		// plus one more bound for the compression of the merge target.
		tol := float64(4) * float64(logU) / float64(kq) * float64(n)
		checkRanks := func(s Synopsis, label string) {
			t.Helper()
			qs := s.(*Quantiles)
			if qs.Items() != uint64(n) {
				t.Fatalf("trial %d %s: items %d != %d", trial, label, qs.Items(), n)
			}
			for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				v := qs.Quantile(phi)
				rank := float64(rankOf(v))
				want := phi * float64(n)
				if rank < want-tol || rank > want+tol {
					t.Fatalf("trial %d %s: phi=%.2f answered %d with rank %f, want %f +/- %f",
						trial, label, phi, v, rank, want, tol)
				}
			}
		}
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		mustMerge(t, ab, c)
		checkRanks(ab, "(a+b)+c")
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		mustMerge(t, ba, c)
		checkRanks(ba, "(b+a)+c")
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		checkRanks(aThenBC, "a+(b+c)")
	}
}

// Cross-family merges must fail for every adapter pair, not silently
// absorb — the store's copy-on-write and drain paths rely on it.
func TestCrossFamilyMergeRejected(t *testing.T) {
	hll, _ := NewDistinctProto(10, 1)
	cm, _ := NewFreqProto(64, 2, 1)
	tk, _ := NewTopKProto(4)
	qd, _ := NewQuantileProto(8, 16)
	protos := []Prototype{hll, cm, tk, qd}
	for i, pa := range protos {
		for j, pb := range protos {
			if i == j {
				continue
			}
			if err := pa.New().Merge(pb.New()); err == nil {
				t.Fatalf("adapter %d absorbed adapter %d", i, j)
			}
		}
	}
}

// TestCombineSnapshotsMatchesManualMerge pins the scatter-gather combiner:
// combining a split stream's per-part synopses must answer exactly like
// one synopsis fed the whole stream (HLL is exactly merge-invariant), the
// inputs must come back untouched, and nil parts must combine as empties.
func TestCombineSnapshotsMatchesManualMerge(t *testing.T) {
	proto, err := NewDistinctProto(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(77)
	stream := make([]string, 5000)
	for i := range stream {
		stream[i] = fmt.Sprintf("u%d", rng.Uint64()%3000)
	}
	whole := proto.New()
	for _, it := range stream {
		whole.Observe(it, 0)
	}
	parts := splitStream(rng, stream, 4)
	syns := make([]Synopsis, len(parts))
	for i, p := range parts {
		syns[i] = proto.New()
		for _, it := range p {
			syns[i].Observe(it, 0)
		}
	}
	before := make([]uint64, len(syns))
	for i, s := range syns {
		before[i] = s.Items()
	}

	combined, err := CombineSnapshots(proto, syns...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := combined.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
		t.Fatalf("combined estimate %v != whole-stream estimate %v", got, want)
	}
	for i, s := range syns {
		if s.Items() != before[i] {
			t.Fatalf("CombineSnapshots mutated input %d: items %d -> %d", i, before[i], s.Items())
		}
	}

	withNils, err := CombineSnapshots(proto, nil, syns[0], nil, syns[1], syns[2], syns[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withNils.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
		t.Fatalf("nil-tolerant combine %v != %v", got, want)
	}

	empty, err := CombineSnapshots(proto)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Items() != 0 {
		t.Fatalf("empty combine absorbed %d items", empty.Items())
	}
}

// TestCombineSnapshotsErrors pins the failure surface: the zero prototype
// and cross-family parts must error, not panic or silently drop.
func TestCombineSnapshotsErrors(t *testing.T) {
	if _, err := CombineSnapshots(Prototype{}); err == nil {
		t.Fatal("zero prototype accepted")
	}
	hll, err := NewDistinctProto(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewFreqProto(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineSnapshots(hll, hll.New(), cm.New()); err == nil {
		t.Fatal("cross-family combine accepted")
	}
}

// compact(x) equals x: for random streams over both sparse-born families
// and top-k, the compact copy returns the dense (for top-k: Stream-Summary)
// synopsis' AppendBinary bytes, its estimates and its item count, and
// merging gives the same bytes in every dense/compact pairing
// of receiver and argument. Every top-k synopsis compacts, full or not,
// into less than its source's bytes; the sketches compact only when
// sparse, into less than half.
func TestCompactEqualsDense(t *testing.T) {
	distinct, err := NewDistinctProto(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := NewFreqProto(64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := NewTopKProto(8)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name   string
		proto  Prototype
		probe  func(Synopsis, int) float64 // estimate for probe item i
		shrink int                         // a compact copy holds under 1/shrink of the source's bytes
	}{
		{"distinct", distinct, func(s Synopsis, _ int) float64 { return s.(*Distinct).Estimate() }, 2},
		{"freq", freq, func(s Synopsis, i int) float64 { return float64(s.(*Freq).Count(fmt.Sprintf("i%d", i))) }, 2},
		{"topk", topk, func(s Synopsis, i int) float64 { return float64(s.(*TopK).Count(fmt.Sprintf("i%d", i))) }, 1},
	}
	rng := workload.NewRNG(5)
	for _, fam := range families {
		// build returns a dense synopsis of a random stream; small universes
		// compact, large ones are too full to.
		build := func(universe int) Synopsis {
			syn := fam.proto.New()
			for i, n := 0, 1+int(rng.Uint64()%uint64(4*universe)); i < n; i++ {
				syn.Observe(fmt.Sprintf("i%d", rng.Uint64()%uint64(universe)), 1+rng.Uint64()%5)
			}
			return syn
		}
		compacted, full := 0, 0
		for trial := 0; trial < 4*propTrials; trial++ {
			universe := 1 + int(rng.Uint64()%12)
			if trial%4 == 3 {
				universe = 400
			}
			x := build(universe)
			cx := x.compacted()
			if cx == nil {
				full++
				continue
			}
			compacted++
			if cx.compacted() != nil {
				t.Fatalf("%s trial %d: a compact synopsis compacted again", fam.name, trial)
			}
			if !bytes.Equal(marshal(t, cx), marshal(t, x)) {
				t.Fatalf("%s trial %d: compact form marshals differently", fam.name, trial)
			}
			if cx.Items() != x.Items() {
				t.Fatalf("%s trial %d: items %d != %d", fam.name, trial, cx.Items(), x.Items())
			}
			if fam.shrink*cx.Bytes() >= x.Bytes() {
				t.Fatalf("%s trial %d: compact form is %d bytes of %d dense", fam.name, trial, cx.Bytes(), x.Bytes())
			}
			for i := 0; i < universe+3; i++ { // three items never observed
				if g, w := fam.probe(cx, i), fam.probe(x, i); g != w {
					t.Fatalf("%s trial %d: estimate[%d] %v != %v", fam.name, trial, i, g, w)
				}
			}
			// Merge, all four pairings, against dense <- dense. The other
			// operand is compact when it can be, so both sizes are merged in.
			y := build(1 + int(rng.Uint64()%12))
			cy := y.compacted()
			if cy == nil {
				t.Fatalf("%s trial %d: small stream did not compact", fam.name, trial)
			}
			want := copyOf(t, fam.proto, x)
			mustMerge(t, want, y)
			for name, pair := range map[string][2]Synopsis{
				"dense<-compact":   {copyOf(t, fam.proto, x), cy},
				"compact<-dense":   {x.compacted(), y},
				"compact<-compact": {x.compacted(), cy},
			} {
				mustMerge(t, pair[0], pair[1])
				if !bytes.Equal(marshal(t, pair[0]), marshal(t, want)) {
					t.Fatalf("%s trial %d: %s merge differs from dense<-dense", fam.name, trial, name)
				}
			}
			if !bytes.Equal(marshal(t, cy), marshal(t, y)) || !bytes.Equal(marshal(t, cx), marshal(t, x)) {
				t.Fatalf("%s trial %d: merging mutated a compact argument", fam.name, trial)
			}
		}
		if fam.name == "topk" {
			if full != 0 {
				t.Fatalf("topk: %d streams did not compact", full)
			}
			continue
		}
		if compacted == 0 || full == 0 {
			t.Fatalf("%s: %d streams compacted, %d too full — both sides of the rule must be exercised", fam.name, compacted, full)
		}
	}
}
