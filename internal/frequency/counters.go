package frequency

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/core"
	"repro/internal/workload"
)

// Counted is one item with its (estimated) count, as returned by the top-k
// queries of the counter-based summaries.
type Counted struct {
	Item  string
	Count uint64
	// Err is the maximum possible overestimate of Count, where the
	// algorithm tracks it (Space-Saving, Lossy Counting); zero otherwise.
	Err uint64
}

// MisraGries maintains k-1 counters and guarantees every item with true
// frequency > N/k is retained (the "Frequent" algorithm; Karp–Shenker–
// Papadimitriou rediscovery cited by the survey). Estimates undercount by
// at most N/k.
type MisraGries struct {
	k        int
	counters map[string]uint64
	n        uint64
}

// NewMisraGries returns a summary with capacity k (tracks items above N/k).
func NewMisraGries(k int) (*MisraGries, error) {
	if k < 2 {
		return nil, core.Errf("MisraGries", "k", "%d must be >= 2", k)
	}
	return &MisraGries{k: k, counters: make(map[string]uint64, k)}, nil
}

// Update adds one occurrence of item.
func (mg *MisraGries) Update(item string) {
	mg.n++
	if _, ok := mg.counters[item]; ok {
		mg.counters[item]++
		return
	}
	if len(mg.counters) < mg.k-1 {
		mg.counters[item] = 1
		return
	}
	// Decrement-all step; delete exhausted counters.
	for it, c := range mg.counters {
		if c == 1 {
			delete(mg.counters, it)
		} else {
			mg.counters[it] = c - 1
		}
	}
}

// Estimate returns the (under-)estimate for item; zero if untracked.
func (mg *MisraGries) Estimate(item string) uint64 { return mg.counters[item] }

// Candidates returns the tracked items sorted by descending count.
func (mg *MisraGries) Candidates() []Counted {
	out := make([]Counted, 0, len(mg.counters))
	for it, c := range mg.counters {
		out = append(out, Counted{Item: it, Count: c})
	}
	sortCounted(out)
	return out
}

// Items returns the stream length so far.
func (mg *MisraGries) Items() uint64 { return mg.n }

// Bytes approximates the counter-map footprint.
func (mg *MisraGries) Bytes() int { return len(mg.counters)*48 + 16 }

// Merge folds another Misra–Gries summary into mg (Agarwal et al. mergeable
// summaries construction: add counters, then subtract the (k)th largest
// count from all and discard non-positive).
func (mg *MisraGries) Merge(other *MisraGries) error {
	if other == nil || mg.k != other.k {
		return core.ErrIncompatible
	}
	for it, c := range other.counters {
		mg.counters[it] += c
	}
	mg.n += other.n
	if len(mg.counters) < mg.k {
		return nil
	}
	counts := make([]uint64, 0, len(mg.counters))
	for _, c := range mg.counters {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	pivot := counts[mg.k-1]
	for it, c := range mg.counters {
		if c <= pivot {
			delete(mg.counters, it)
		} else {
			mg.counters[it] = c - pivot
		}
	}
	return nil
}

// SpaceSaving maintains exactly k counters (Metwally–Agrawal–El Abbadi
// "Efficient computation of frequent and top-k elements"): a new item takes
// over the minimum counter, inheriting its count as the error bound. It
// guarantees count overestimates by at most the smallest counter, and any
// item with true count > N/k is tracked.
//
// A copy taken by Compact, and the result of a Merger, holds its counters
// flat instead: one exact-size slice in TopK order, with no map and no
// per-counter pointers. Readers (Estimate, TopK, MinCount, Items,
// AppendBinary, Merge's argument) answer from it as they would from the
// Stream-Summary; a writer (Update, Merge as the receiver, Reset,
// UnmarshalBinary) unpacks it first.
type SpaceSaving struct {
	k    int
	n    uint64
	elem map[string]*ssNode
	// buckets of equal count, doubly linked in ascending count order
	// (the "Stream-Summary" structure), giving O(1) min lookup.
	head *ssBucket
	// flat marks a flat summary, whose counters are in counters — in
	// TopK order: count descending, then item ascending — with elem and
	// head empty.
	flat     bool
	counters []Counted
}

type ssNode struct {
	item   string
	err    uint64
	bucket *ssBucket
	prev   *ssNode
	next   *ssNode
}

type ssBucket struct {
	count uint64
	nodes *ssNode // any node in this bucket (circular list)
	prev  *ssBucket
	next  *ssBucket
}

// NewSpaceSaving returns a Space-Saving summary with k counters.
func NewSpaceSaving(k int) (*SpaceSaving, error) {
	if k < 1 {
		return nil, core.Errf("SpaceSaving", "k", "%d must be >= 1", k)
	}
	return &SpaceSaving{k: k, elem: make(map[string]*ssNode, k)}, nil
}

// NewFlatSpaceSaving returns an empty flat summary with k counters (see
// SpaceSaving), which must be at least 1: one allocation, with no
// counter map until its first write unpacks it.
func NewFlatSpaceSaving(k int) *SpaceSaving { return &SpaceSaving{k: k, flat: true} }

func (ss *SpaceSaving) detach(n *ssNode) {
	b := n.bucket
	if n.next == n {
		b.nodes = nil
	} else {
		n.prev.next = n.next
		n.next.prev = n.prev
		if b.nodes == n {
			b.nodes = n.next
		}
	}
	if b.nodes == nil {
		// Unlink empty bucket.
		if b.prev != nil {
			b.prev.next = b.next
		} else {
			ss.head = b.next
		}
		if b.next != nil {
			b.next.prev = b.prev
		}
	}
	n.bucket, n.prev, n.next = nil, nil, nil
}

func (ss *SpaceSaving) attach(n *ssNode, count uint64, after *ssBucket) {
	// Find or create the bucket with the given count, searching forward
	// from `after` (nil means from head).
	var prev *ssBucket
	cur := ss.head
	if after != nil {
		prev, cur = after, after.next
	}
	for cur != nil && cur.count < count {
		prev, cur = cur, cur.next
	}
	var b *ssBucket
	if cur != nil && cur.count == count {
		b = cur
	} else {
		b = &ssBucket{count: count, prev: prev, next: cur}
		if prev != nil {
			prev.next = b
		} else {
			ss.head = b
		}
		if cur != nil {
			cur.prev = b
		}
	}
	if b.nodes == nil {
		b.nodes = n
		n.prev, n.next = n, n
	} else {
		tail := b.nodes.prev
		tail.next = n
		n.prev = tail
		n.next = b.nodes
		b.nodes.prev = n
	}
	n.bucket = b
}

// Update adds one occurrence of item.
func (ss *SpaceSaving) Update(item string) {
	ss.unpack()
	ss.n++
	if n, ok := ss.elem[item]; ok {
		after := n.bucket.prev
		count := n.bucket.count + 1
		ss.detach(n)
		// Re-attach starting from the old predecessor bucket to keep the
		// search O(1) amortized.
		if after != nil && after.count >= count {
			after = nil
		}
		ss.attach(n, count, after)
		return
	}
	if len(ss.elem) < ss.k {
		n := &ssNode{item: item}
		ss.elem[item] = n
		ss.attach(n, 1, nil)
		return
	}
	// Evict from the minimum bucket.
	minB := ss.head
	victim := minB.nodes
	delete(ss.elem, victim.item)
	newCount := minB.count + 1
	victim.item = item
	victim.err = minB.count
	ss.elem[item] = victim
	ss.detach(victim)
	ss.attach(victim, newCount, nil)
}

// Estimate returns the overestimate for item (zero if untracked) and the
// maximum error of that estimate.
func (ss *SpaceSaving) Estimate(item string) (count, err uint64) {
	if ss.flat {
		for _, c := range ss.counters {
			if c.Item == item {
				return c.Count, c.Err
			}
		}
		return 0, 0
	}
	n, ok := ss.elem[item]
	if !ok {
		return 0, 0
	}
	return n.bucket.count, n.err
}

// TopK returns the k' <= k tracked items in descending count order.
func (ss *SpaceSaving) TopK(k int) []Counted {
	if ss.flat {
		return slices.Clone(ss.counters[:min(k, len(ss.counters))])
	}
	out := make([]Counted, 0, len(ss.elem))
	for it, n := range ss.elem {
		out = append(out, Counted{Item: it, Count: n.bucket.count, Err: n.err})
	}
	sortCounted(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// GuaranteedTopK returns only the prefix of TopK whose membership is
// provably correct: item i is guaranteed when count_i - err_i >= count_{i+1}.
func (ss *SpaceSaving) GuaranteedTopK(k int) []Counted {
	all := ss.TopK(ss.size())
	out := make([]Counted, 0, k)
	for i := 0; i < len(all) && i < k; i++ {
		if i+1 < len(all) && all[i].Count-all[i].Err < all[i+1].Count {
			break
		}
		out = append(out, all[i])
	}
	return out
}

// Items returns the stream length so far.
func (ss *SpaceSaving) Items() uint64 { return ss.n }

// Bytes approximates the summary footprint. A flat summary counts what
// it retains: its struct, the capacity of its counter slice and the
// bytes of its items.
func (ss *SpaceSaving) Bytes() int {
	if !ss.flat {
		return len(ss.elem)*96 + 32
	}
	n := int(unsafe.Sizeof(*ss)) + cap(ss.counters)*int(unsafe.Sizeof(Counted{}))
	for _, c := range ss.counters {
		n += len(c.Item)
	}
	return n
}

// Merge folds another Space-Saving summary into ss, following the
// mergeable-summaries construction (Agarwal et al.): it is the two-part
// case of a Merger, whose comment states the rule and the guarantees
// that survive it. other is only read; it may be flat.
func (ss *SpaceSaving) Merge(other *SpaceSaving) error {
	if other == nil || ss.k != other.k {
		return core.ErrIncompatible
	}
	var m Merger
	m.Add(ss)
	m.Add(other)
	ss.load(m.merged())
	ss.n = m.n
	return nil
}

// load replaces the counters by cs, given in TopK order, as a
// Stream-Summary; n is left alone. Attaching in ascending count order
// keeps each attach search at the current tail, O(1) amortized.
func (ss *SpaceSaving) load(cs []Counted) {
	ss.flat, ss.counters, ss.head = false, nil, nil
	if ss.elem == nil {
		ss.elem = make(map[string]*ssNode, ss.k)
	}
	clear(ss.elem)
	var after *ssBucket
	for i := len(cs) - 1; i >= 0; i-- {
		c := cs[i]
		n := &ssNode{item: c.Item, err: c.Err}
		ss.elem[c.Item] = n
		hint := after
		if hint != nil && hint.count >= c.Count {
			// attach searches strictly forward; equal counts must re-find
			// the existing bucket from an earlier position.
			hint = hint.prev
		}
		ss.attach(n, c.Count, hint)
		after = n.bucket
	}
}

// unpack turns a flat summary back into the Stream-Summary, so that a
// writer can change it.
func (ss *SpaceSaving) unpack() {
	if ss.flat {
		ss.load(ss.counters)
	}
}

// Compact returns an immutable flat copy of ss (see SpaceSaving): its
// counters in one slice of exactly their number, in TopK order, or nil
// when ss is itself flat. The copy shares nothing with ss and reads
// exactly as ss does; a writer called on it unpacks it first.
func (ss *SpaceSaving) Compact() *SpaceSaving {
	if ss.flat {
		return nil
	}
	cs := make([]Counted, 0, len(ss.elem))
	for it, n := range ss.elem {
		cs = append(cs, Counted{Item: it, Count: n.bucket.count, Err: n.err})
	}
	sortCounted(cs)
	return newFlat(ss.k, ss.n, cs)
}

// newFlat returns a flat summary of cs, which it takes, in TopK order and
// exact size, and whose items it copies into one string: so the summary
// pins neither the strings it was handed — each a small allocation that
// may share its memory block with others — nor the summaries they came
// from.
func newFlat(k int, n uint64, cs []Counted) *SpaceSaving {
	size := 0
	for _, c := range cs {
		size += len(c.Item)
	}
	var b strings.Builder
	b.Grow(size)
	for _, c := range cs {
		b.WriteString(c.Item)
	}
	items := b.String()
	for i := range cs {
		cs[i].Item, items = items[:len(cs[i].Item)], items[len(cs[i].Item):]
	}
	if len(cs) == 0 {
		cs = nil
	}
	return &SpaceSaving{k: k, n: n, flat: true, counters: cs}
}

// Reset returns the summary to its freshly-constructed state, reusing the
// counter map's allocation. UnmarshalBinary decodes into a reset summary,
// and callers that reuse one summary across windows reset it instead of
// reallocating.
func (ss *SpaceSaving) Reset() {
	ss.load(nil)
	ss.n = 0
}

// size returns how many counters the summary holds.
func (ss *SpaceSaving) size() int {
	if ss.flat {
		return len(ss.counters)
	}
	return len(ss.elem)
}

// MinCount returns the smallest tracked count — the global error bound.
func (ss *SpaceSaving) MinCount() uint64 {
	if ss.flat {
		if n := len(ss.counters); n > 0 {
			return ss.counters[n-1].Count
		}
		return 0
	}
	if ss.head == nil {
		return 0
	}
	return ss.head.count
}

// floor is how often an item the summary does not hold may have
// occurred: its minimum count when it is full, since it may have evicted
// the item, else 0, since a summary that never filled up has counted
// every item it saw exactly.
func (ss *SpaceSaving) floor() uint64 {
	if ss.size() == ss.k {
		return ss.MinCount()
	}
	return 0
}

// cmpCounted orders by count descending, then item ascending: a total
// order over distinct items, so a sort by it has one outcome.
func cmpCounted(a, b Counted) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Item, b.Item))
}

func sortCounted(xs []Counted) { slices.SortFunc(xs, cmpCounted) }

// ExactTopK computes the true top-k of a stream of string items — the
// ground truth the experiments score summaries against.
func ExactTopK(items []string, k int) []Counted {
	counts := map[string]uint64{}
	for _, it := range items {
		counts[it]++
	}
	out := make([]Counted, 0, len(counts))
	for it, c := range counts {
		out = append(out, Counted{Item: it, Count: c})
	}
	sortCounted(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ZipfStrings is a convenience bridging workload's integer Zipf streams to
// the string domain the counter summaries operate on.
func ZipfStrings(seed uint64, n, universe int, s float64) []string {
	rng := workload.NewRNG(seed)
	z := workload.NewZipf(rng, universe, s)
	return workload.Keys(z.Stream(n))
}
