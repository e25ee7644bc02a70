package frequency

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// The differential tests: the one-shot k-way merge (Merger) of full
// Space-Saving summaries against the exact counts of the concatenated
// stream (ExactTopK over every item), and against itself under every
// order of its parts.

const (
	oracleK     = 8
	oracleParts = 64
)

// fullParts builds parts full summaries of k counters over Zipf
// (s = 1.1) items from a 200-item universe, 40–199 items each, and
// returns them with the concatenated stream.
func fullParts(t *testing.T, seed uint64, parts, k int) ([]*SpaceSaving, []string) {
	t.Helper()
	rng := workload.NewRNG(seed)
	zipf := workload.NewZipf(rng, 200, 1.1)
	var all []string
	out := make([]*SpaceSaving, parts)
	for p := range out {
		out[p], _ = NewSpaceSaving(k)
		for i, n := 0, 40+rng.Intn(160); i < n; i++ {
			item := fmt.Sprintf("i%03d", zipf.Draw())
			out[p].Update(item)
			all = append(all, item)
		}
		if out[p].size() != k {
			t.Fatalf("seed %d part %d holds %d counters, not the %d of a full summary", seed, p, out[p].size(), k)
		}
	}
	return out, all
}

// mergeOnce is the k-way merge of parts, in the order given.
func mergeOnce(t *testing.T, parts []*SpaceSaving) *SpaceSaving {
	t.Helper()
	var m Merger
	for _, p := range parts {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return m.Result()
}

// fold merges parts pairwise, left to right, into an empty summary.
func fold(t *testing.T, parts []*SpaceSaving) *SpaceSaving {
	t.Helper()
	acc, _ := NewSpaceSaving(parts[0].k)
	for _, p := range parts {
		if err := acc.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

func marshalSS(t *testing.T, ss *SpaceSaving) []byte {
	t.Helper()
	b, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGuarantees fails the test unless got, a merge over a stream of
// exact counts and length n, keeps the guarantees Merger states: counts
// overestimate by at most Err, Err at most maxErr (the floors' sum) and
// N/k, every item above N/k held, every unheld item at most got's floor,
// every Err at most that floor, and the counts summing to at most n.
func checkGuarantees(t *testing.T, what string, got *SpaceSaving, exact map[string]uint64, n, maxErr uint64) {
	t.Helper()
	k := uint64(got.k)
	if got.Items() != n || got.size() > got.k {
		t.Fatalf("%s: %d items in %d counters, want %d in at most %d", what, got.Items(), got.size(), n, got.k)
	}
	floor := got.floor()
	var sum uint64
	held := map[string]bool{}
	for _, c := range got.TopK(got.k) {
		held[c.Item] = true
		sum += c.Count
		if x := exact[c.Item]; c.Count < x || c.Count-c.Err > x {
			t.Fatalf("%s: %s counted %d (err %d), exact %d", what, c.Item, c.Count, c.Err, x)
		}
		if c.Err > maxErr || c.Err*k > n || c.Err > floor {
			t.Fatalf("%s: %s err %d past the floors' sum %d, N/k = %d/%d or the floor %d", what, c.Item, c.Err, maxErr, n, k, floor)
		}
	}
	if sum > n {
		t.Fatalf("%s: counts sum to %d > n %d", what, sum, n)
	}
	for item, x := range exact {
		if held[item] {
			continue
		}
		if x*k > n {
			t.Fatalf("%s: lost %s, exact %d > N/k = %d/%d", what, item, x, n, k)
		}
		if x > floor {
			t.Fatalf("%s: unheld %s has exact count %d above the floor %d", what, item, x, floor)
		}
	}
}

func TestSpaceSavingMergeMatchesExactOracle(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		parts, stream := fullParts(t, seed, oracleParts, oracleK)
		exact := map[string]uint64{}
		for _, c := range ExactTopK(stream, math.MaxInt) {
			exact[c.Item] = c.Count
		}
		n := uint64(len(stream))
		var floors uint64
		for _, p := range parts {
			floors += p.floor()
		}
		if floors*oracleK > n {
			t.Fatalf("seed %d: the parts' floors sum to %d > N/k = %d/%d", seed, floors, n, oracleK)
		}
		rng := workload.NewRNG(seed)
		for _, i := range rng.Perm(len(parts)) {
			parts[0], parts[i] = parts[i], parts[0]
		}
		once := mergeOnce(t, parts)
		checkGuarantees(t, fmt.Sprintf("seed %d one-shot", seed), once, exact, n, floors)

		// Merging merged results again keeps the guarantees: eight groups
		// of eight, then the eight results; and the pairwise fold, whose
		// every step is a two-part merge.
		groups := make([]*SpaceSaving, 0, 8)
		var groupFloors uint64
		for g := 0; g < len(parts); g += 8 {
			r := mergeOnce(t, parts[g:g+8])
			groupFloors += r.floor()
			groups = append(groups, r)
		}
		checkGuarantees(t, fmt.Sprintf("seed %d two-level", seed), mergeOnce(t, groups), exact, n, groupFloors)
		checkGuarantees(t, fmt.Sprintf("seed %d fold", seed), fold(t, parts), exact, n, n/oracleK)
	}
}

// A two-part merge is SpaceSaving.Merge, byte for byte; a k-way merge
// gives the same bytes under every order of its parts. The pairwise fold
// does not on these parts, so this test tells the two apart.
func TestSpaceSavingMergeOrderIndependent(t *testing.T) {
	foldDiffered := false
	for seed := uint64(1); seed <= 4; seed++ {
		parts, _ := fullParts(t, seed, oracleParts, oracleK)
		a, b := parts[0], parts[1]
		pair := fold(t, []*SpaceSaving{a})
		if err := pair.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalSS(t, mergeOnce(t, parts[:2])), marshalSS(t, pair)) {
			t.Fatalf("seed %d: a two-part k-way merge differs from SpaceSaving.Merge", seed)
		}

		want := marshalSS(t, mergeOnce(t, parts))
		foldWant := marshalSS(t, fold(t, parts))
		rng := workload.NewRNG(seed)
		shuffled := append([]*SpaceSaving(nil), parts...)
		for trial := 0; trial < 50; trial++ {
			for i, j := range rng.Perm(len(shuffled)) {
				shuffled[i] = parts[j]
			}
			if got := marshalSS(t, mergeOnce(t, shuffled)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d shuffle %d: the k-way merge depends on the order of its parts", seed, trial)
			}
			foldDiffered = foldDiffered || !bytes.Equal(marshalSS(t, fold(t, shuffled)), foldWant)
		}

		// Every order of five parts, mixing flat and Stream-Summary forms.
		five := []*SpaceSaving{parts[2].Compact(), parts[3], parts[4].Compact(), parts[5], parts[6]}
		want = marshalSS(t, mergeOnce(t, five))
		permute(five, 0, func(order []*SpaceSaving) {
			if got := marshalSS(t, mergeOnce(t, order)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: a permutation of five parts merges differently", seed)
			}
		})
	}
	if !foldDiffered {
		t.Fatal("the pairwise fold gave one answer under every shuffle: these parts do not tell an order-dependent merge apart")
	}
}

// permute calls fn with every permutation of xs[i:] behind xs[:i].
func permute(xs []*SpaceSaving, i int, fn func([]*SpaceSaving)) {
	if i == len(xs) {
		fn(xs)
		return
	}
	for j := i; j < len(xs); j++ {
		xs[i], xs[j] = xs[j], xs[i]
		permute(xs, i+1, fn)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func TestMergerRefusesMismatch(t *testing.T) {
	var m Merger
	if m.Result() != nil {
		t.Fatal("a merge of no parts has a result")
	}
	a, _ := NewSpaceSaving(4)
	b, _ := NewSpaceSaving(5)
	a.Update("x")
	if err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(b); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("a part of another k: %v", err)
	}
	if err := m.Add(nil); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("a nil part: %v", err)
	}
	if r := m.Result(); r.Items() != 1 || r.TopK(4)[0] != (Counted{Item: "x", Count: 1}) {
		t.Fatalf("a refused part changed the merge: %+v", r.TopK(4))
	}
	if err := m.Add(b); err != nil {
		t.Fatalf("Result did not empty the merger: %v", err)
	}
}

// The flat copy reads as its source: every reader, its bytes, and as
// either side of a merge; a writer on it unpacks it first and then
// behaves as on the source.
func TestSpaceSavingCompactReadsAlike(t *testing.T) {
	rng := workload.NewRNG(3)
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(12)
		universe := 1 + rng.Intn(30)
		src, _ := NewSpaceSaving(k)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			src.Update(fmt.Sprintf("i%d", rng.Intn(universe)))
		}
		c := src.Compact()
		if c == nil || c.Compact() != nil {
			t.Fatalf("trial %d: Compact of a summary gave %v; of a flat one it must be nil", trial, c)
		}
		if !bytes.Equal(marshalSS(t, c), marshalSS(t, src)) {
			t.Fatalf("trial %d: the flat copy marshals differently", trial)
		}
		if c.Items() != src.Items() || c.MinCount() != src.MinCount() || c.size() != src.size() {
			t.Fatalf("trial %d: items, min or size differ", trial)
		}
		if src.size() > 0 && c.Bytes() >= src.Bytes() {
			t.Fatalf("trial %d: the flat copy takes %d bytes of the source's %d", trial, c.Bytes(), src.Bytes())
		}
		for j := 0; j <= k+1; j++ {
			if fmt.Sprint(c.TopK(j)) != fmt.Sprint(src.TopK(j)) || fmt.Sprint(c.GuaranteedTopK(j)) != fmt.Sprint(src.GuaranteedTopK(j)) {
				t.Fatalf("trial %d: TopK(%d) or GuaranteedTopK(%d) differ", trial, j, j)
			}
		}
		for j := 0; j < universe+2; j++ {
			item := fmt.Sprintf("i%d", j)
			gc, ge := c.Estimate(item)
			wc, we := src.Estimate(item)
			if gc != wc || ge != we {
				t.Fatalf("trial %d: Estimate(%s) = (%d, %d), source (%d, %d)", trial, item, gc, ge, wc, we)
			}
		}

		// Merge in all four pairings against mutable <- mutable.
		other, _ := NewSpaceSaving(k)
		for i, n := 0, rng.Intn(100); i < n; i++ {
			other.Update(fmt.Sprintf("i%d", rng.Intn(universe)))
		}
		want := fold(t, []*SpaceSaving{src, other})
		for name, pair := range map[string][2]*SpaceSaving{
			"mutable<-flat": {fold(t, []*SpaceSaving{src}), other.Compact()},
			"flat<-mutable": {src.Compact(), other},
			"flat<-flat":    {src.Compact(), other.Compact()},
		} {
			if err := pair[0].Merge(pair[1]); err != nil {
				t.Fatal(err)
			}
			if pair[0].flat {
				t.Fatalf("trial %d: %s: a merge left its receiver flat", trial, name)
			}
			if !bytes.Equal(marshalSS(t, pair[0]), marshalSS(t, want)) {
				t.Fatalf("trial %d: %s merge differs", trial, name)
			}
		}
		if !bytes.Equal(marshalSS(t, c), marshalSS(t, src)) {
			t.Fatalf("trial %d: merging changed a flat argument", trial)
		}

		// Writers: updates on the flat copy go as on the summary its
		// bytes decode to. (Not always as on the source: which of the
		// counters tied at the minimum an update evicts depends on the
		// order they were attached in, and the bytes do not carry it.)
		u, dec := src.Compact(), fold(t, []*SpaceSaving{src})
		if err := dec.UnmarshalBinary(marshalSS(t, src)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			item := fmt.Sprintf("i%d", rng.Intn(universe+5))
			u.Update(item)
			dec.Update(item)
		}
		if !bytes.Equal(marshalSS(t, u), marshalSS(t, dec)) {
			t.Fatalf("trial %d: updates on a flat copy went differently", trial)
		}
		r := src.Compact()
		r.Reset()
		if r.flat || r.Items() != 0 || r.size() != 0 {
			t.Fatalf("trial %d: Reset left a flat summary non-empty", trial)
		}
		d := src.Compact()
		if err := d.UnmarshalBinary(marshalSS(t, other)); err != nil || !bytes.Equal(marshalSS(t, d), marshalSS(t, other)) {
			t.Fatalf("trial %d: decoding into a flat receiver: %v", trial, err)
		}
	}
}

// ssBody encodes a Space-Saving body by hand: k, n and (count, err, item)
// entries, as they are given.
func ssBody(k uint32, n uint64, entries ...Counted) []byte {
	b := binary.LittleEndian.AppendUint32(nil, ssMagic)
	b = binary.LittleEndian.AppendUint32(b, k)
	b = binary.LittleEndian.AppendUint64(b, n)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, e.Count)
		b = binary.LittleEndian.AppendUint64(b, e.Err)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Item)))
		b = append(b, e.Item...)
	}
	return b
}

func TestSpaceSavingUnmarshalRejectsNonCanonical(t *testing.T) {
	for name, data := range map[string][]byte{
		"ties by item ascending": ssBody(4, 4, Counted{Item: "a", Count: 2}, Counted{Item: "b", Count: 2}),
		"a duplicate item":       ssBody(4, 4, Counted{Item: "a", Count: 1}, Counted{Item: "a", Count: 3}),
		"counts descending":      ssBody(4, 4, Counted{Item: "b", Count: 3}, Counted{Item: "a", Count: 1}),
		"err above its count":    ssBody(4, 4, Counted{Item: "a", Count: 2, Err: 3}),
		"counts sum past n":      ssBody(4, 3, Counted{Item: "b", Count: 2}, Counted{Item: "a", Count: 2}),
		"counts sum wraps":       ssBody(4, 3, Counted{Item: "b", Count: 2}, Counted{Item: "a", Count: math.MaxUint64}),
		"more entries than k":    ssBody(1, 4, Counted{Item: "b", Count: 1}, Counted{Item: "a", Count: 1}),
		"trailing bytes":         append(ssBody(4, 4, Counted{Item: "a", Count: 1}), 0),
	} {
		k := int(binary.LittleEndian.Uint32(data[4:]))
		ss, _ := NewSpaceSaving(k)
		if err := ss.UnmarshalBinary(data); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	ok := ssBody(4, 5, Counted{Item: "b", Count: 2, Err: 1}, Counted{Item: "a", Count: 2})
	ss, _ := NewSpaceSaving(4)
	if err := ss.UnmarshalBinary(ok); err != nil || !bytes.Equal(marshalSS(t, ss), ok) {
		t.Fatalf("canonical body: %v", err)
	}
}

// FuzzSpaceSavingUnmarshal: the Space-Saving decoder on bytes it did not
// write never panics, allocates within a bound of the input's size, and
// accepts only what re-marshals to the same bytes — from the decoded
// summary and from its flat copy.
func FuzzSpaceSavingUnmarshal(f *testing.F) {
	add := func(k int, items []string) {
		ss, _ := NewSpaceSaving(k)
		for _, it := range items {
			ss.Update(it)
		}
		b, _ := ss.MarshalBinary()
		f.Add(b)
	}
	add(8, nil)                                    // empty
	add(8, []string{"a", "b", "a", "c", "a", "b"}) // not full
	add(4, ZipfStrings(1, 300, 50, 1.1))           // full, with errors
	add(1, []string{"x", "y", "x", "z", "z", "z"}) // k = 1
	f.Add(ssBody(4, 4, Counted{Item: "a", Count: 2}, Counted{Item: "b", Count: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode into a receiver of the body's own k when it is a small
		// one, so the entry checks are reached.
		k := 8
		if len(data) >= 8 {
			if bk := binary.LittleEndian.Uint32(data[4:]); bk >= 1 && bk <= 64 {
				k = int(bk)
			}
		}
		// TotalAlloc is process-wide and the fuzz engine allocates beside
		// the target, so the bound holds the least of three decodes, each
		// into a fresh receiver.
		var ss *SpaceSaving
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			ss, _ = NewSpaceSaving(k)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = ss.UnmarshalBinary(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > uint64(8*len(data)+8192) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if got := marshalSS(t, ss); !bytes.Equal(got, data) {
			t.Fatalf("accepted bytes re-marshal differently")
		}
		if got := marshalSS(t, ss.Compact()); !bytes.Equal(got, data) {
			t.Fatalf("the flat copy of accepted bytes re-marshals differently")
		}
		var m Merger
		m.Add(ss)
		m.Add(ss.Compact())
		if r := m.Result(); r.Items() != 2*ss.Items() || r.size() != ss.size() {
			t.Fatalf("merging the decoded summary with its copy: %d items in %d counters", r.Items(), r.size())
		}
	})
}
