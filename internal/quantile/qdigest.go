package quantile

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/freelist"
)

// QDigest is the Shrivastava–Buragohain–Agrawal–Suri q-digest ("Medians and
// beyond", designed for sensor networks, cited by the survey): a compressed
// binary tree over a fixed integer universe [0, 2^logU) in which each node
// holds a count, maintained so that every non-root node's family
// (node+parent+sibling) carries at least n/k mass. It answers rank queries
// with error at most log(U)/k * n and — its defining property — merges by
// simple counter addition, which is why sensor aggregation trees use it.
//
// The tree is held as one slice of (id, count) nodes in ascending id
// order, so merging is a linear two-way merge and compressing one
// descending pass. A unit-weight update appends its value, 4 bytes, to an
// unsorted tail that is sorted and merged in ("folded") only when the
// node count could exceed the compression bound; a heavier one folds the
// tail and merges its leaf at once. Only writers (Update, Merge as the
// receiver, Compress, Reset, UnmarshalBinary) fold; every read, including
// Merge's argument, sees the tail folded in without changing the digest,
// so concurrent readers need no more than a read lock.
//
// A copy taken by Compact holds its nodes packed instead (see packNodes):
// a few bytes per node where the slice takes 16. Readers decode the
// packed nodes into shared scratch, and Merge into the receiver's spare
// capacity; a writer unpacks them first.
type QDigest struct {
	logU   uint8
	packed bool   // the nodes are in enc, not in nodes and tail
	k      uint64 // compression factor
	n      uint64
	nodes  []node   // ascending id (1-based heap order); counts never zero
	tail   []uint32 // unit-weight updates' values, not yet folded; arrival order
	enc    []byte   // the packed nodes, when packed
}

// node is a tree node id (1-based heap order) and its count.
type node struct{ id, cnt uint64 }

// NewQDigest returns a q-digest over the universe [0, 2^logU) with
// compression factor k.
func NewQDigest(logU uint8, k uint64) (*QDigest, error) {
	q := new(QDigest)
	if err := q.Init(logU, k); err != nil {
		return nil, err
	}
	return q, nil
}

// Init is NewQDigest in place, for a holder of the digest by value.
func (q *QDigest) Init(logU uint8, k uint64) error {
	if logU == 0 || logU > 32 {
		return core.Errf("QDigest", "logU", "%d not in [1,32]", logU)
	}
	if k == 0 {
		return core.Errf("QDigest", "k", "must be positive")
	}
	*q = QDigest{logU: logU, k: k}
	return nil
}

// leafID returns the heap-order id of the leaf for value v.
func (q *QDigest) leafID(v uint64) uint64 {
	return (uint64(1) << q.logU) + v
}

// Update inserts value v (clamped to the universe), with weight w. A zero
// weight changes nothing.
func (q *QDigest) Update(v uint64, w uint64) {
	if w == 0 {
		return
	}
	q.unpack()
	maxV := (uint64(1) << q.logU) - 1
	if v > maxV {
		v = maxV
	}
	q.n += w
	if w == 1 {
		// The tail may repeat values, so the node count is at most the
		// sum; fold only when that could exceed 6k. A first tail of 4
		// values is not a tiny object: the runtime packs smaller ones into
		// shared 16-byte blocks, where a sealed digest's packed nodes kept
		// a block of tails dropped at their seals alive.
		if q.tail == nil {
			q.tail = make([]uint32, 0, 4)
		}
		q.tail = append(q.tail, uint32(v))
		if uint64(len(q.nodes)+len(q.tail)) <= 6*q.k {
			return
		}
	}
	s := getScratch()
	q.fold(s)
	if w > 1 {
		leaf := [1]node{{q.leafID(v), w}}
		q.nodes = mergeNodes(q.nodes, leaf[:])
	}
	// Compress when the folded count exceeds 6k — exactly when a digest
	// without a tail would.
	if uint64(len(q.nodes)) > 6*q.k {
		q.compress(s)
	}
	scratchList.Put(s)
}

// scratch holds the transient buffers of one fold, merge, compress or
// query. One is kept between calls (a range query merges once per
// bucket, and no digest keeps any of it afterwards); a call that
// overlaps another gets a fresh one, dropped after, so how many are
// held never depends on whether two calls happened to overlap.
type scratch struct {
	nodes  []node   // a folded or unpacked view of a digest
	vals   []uint32 // a tail's copy, radix-sorted...
	spare  []uint32 // ...through this second buffer
	leaves []node   // the sorted tail as leaves, one per value
	pend   []node   // parents a compress pass created, in creation order
	order  []ranked // nodes in value order (Query)
}

var scratchList = freelist.List[scratch]{New: func() *scratch { return new(scratch) }, Max: 1}

func getScratch() *scratch { return scratchList.Get() }

// sortedTail returns q's tail as leaves in ascending id order, each
// counting its value's updates, in s. q is not modified. The values are
// ordered by a least-significant-digit radix sort, one byte per pass,
// skipping a byte every value shares. It is linear in the tail, which a
// comparison sort of thousands of values at a bucket seal is not.
func (q *QDigest) sortedTail(s *scratch) []node {
	a := append(s.vals[:0], q.tail...)
	b := slices.Grow(s.spare[:0], len(a))[:len(a)]
	for shift := uint8(0); shift < q.logU; shift += 8 {
		var at [256]int
		for _, v := range a {
			at[byte(v>>shift)]++
		}
		if at[byte(a[0]>>shift)] == len(a) {
			continue
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, v := range a {
			d := byte(v >> shift)
			b[at[d]] = v
			at[d]++
		}
		a, b = b, a
	}
	s.vals, s.spare = a, b
	out := s.leaves[:0]
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j] == a[i] {
			j++
		}
		out = append(out, node{q.leafID(uint64(a[i])), uint64(j - i)})
		i = j
	}
	s.leaves = out
	return out
}

// fold merges the tail into the sorted nodes.
func (q *QDigest) fold(s *scratch) {
	if len(q.tail) == 0 {
		return
	}
	q.nodes = mergeNodes(q.nodes, q.sortedTail(s))
	q.tail = q.tail[:0]
}

// view returns q's nodes with the tail folded in, without changing q: its
// own slice when it is unpacked and the tail is empty, an unpacked or
// merged copy in s otherwise.
func (q *QDigest) view(s *scratch) []node {
	switch {
	case q.packed:
		s.nodes = unpackNodes(s.nodes[:0], q.enc)
		return s.nodes
	case len(q.tail) == 0:
		return q.nodes
	}
	s.nodes = mergeNodes(append(s.nodes[:0], q.nodes...), q.sortedTail(s))
	return s.nodes
}

// unpack turns a packed digest back into its node slice, so that a writer
// can change it.
func (q *QDigest) unpack() {
	if q.packed {
		q.nodes, q.packed, q.enc = unpackNodes(nil, q.enc), false, nil
	}
}

// packNodes appends the packed form of the ascending nodes to b: per node,
// the uvarint of its id less the previous node's id (the first node's
// less 0), then the uvarint of its count. Ids ascend in heap order and a
// bucket's counts are small, so most nodes take two bytes.
func packNodes(b []byte, nodes []node) []byte {
	var prev uint64
	for _, nd := range nodes {
		if d := nd.id - prev; d|nd.cnt < 0x80 {
			b = append(b, byte(d), byte(nd.cnt))
		} else {
			b = binary.AppendUvarint(b, d)
			b = binary.AppendUvarint(b, nd.cnt)
		}
		prev = nd.id
	}
	return b
}

// packedSize returns the length of the packed form of the ascending nodes.
func packedSize(nodes []node) int {
	size, prev := 0, uint64(0)
	for _, nd := range nodes {
		size += uvarintLen(nd.id-prev) + uvarintLen(nd.cnt)
		prev = nd.id
	}
	return size
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// unpackNodes appends the nodes packed in enc (see packNodes) to dst. A
// node takes at least two bytes, so dst grows at most once.
func unpackNodes(dst []node, enc []byte) []node {
	dst = slices.Grow(dst, len(enc)/2)
	var id uint64
	for i := 0; i < len(enc); {
		d, c := uint64(enc[i]), uint64(0)
		if d < 0x80 && i+1 < len(enc) && enc[i+1] < 0x80 {
			c = uint64(enc[i+1])
			i += 2
		} else {
			var m int
			d, m = binary.Uvarint(enc[i:])
			i += m
			c, m = binary.Uvarint(enc[i:])
			i += m
		}
		id += d
		dst = append(dst, node{id, c})
	}
	return dst
}

// packedNodes returns how many nodes enc packs: each uvarint ends in its
// one byte below 0x80, and a node is two uvarints.
func packedNodes(enc []byte) int {
	n := 0
	for _, b := range enc {
		if b < 0x80 {
			n++
		}
	}
	return n / 2
}

// mergeNodes adds the ascending nodes b into the ascending nodes a,
// summing the counts of equal ids, and returns the result. It merges
// backwards in place, so it allocates only to grow a.
func mergeNodes(a, b []node) []node {
	na, nb := len(a), len(b)
	if nb == 0 {
		return a
	}
	a = slices.Grow(a, nb)[:na+nb]
	i, j, w := na-1, nb-1, na+nb
	for ; j >= 0; j-- {
		// The nodes of a above b[j] move up as one run.
		lo := i
		for lo >= 0 && a[lo].id > b[j].id {
			lo--
		}
		if lo < i {
			w -= i - lo
			copy(a[w:], a[lo+1:i+1])
			i = lo
		}
		w--
		if i >= 0 && a[i].id == b[j].id {
			a[w] = node{a[i].id, a[i].cnt + b[j].cnt}
			i--
		} else {
			a[w] = b[j]
		}
	}
	// a[:i+1] never moved; equal ids left a gap between them and the
	// merged run starting at w.
	if gap := w - (i + 1); gap > 0 {
		copy(a[i+1:], a[w:])
		a = a[:na+nb-gap]
	}
	return a
}

// mergePacked adds the nodes packed in enc into the ascending nodes a. It
// unpacks them into a's own spare capacity, past where the merged result
// ends, so a merge of packed buckets needs no buffer beside a.
func mergePacked(a []node, enc []byte) []node {
	na, m := len(a), len(enc)/2 // enc packs at most m nodes
	a = slices.Grow(a, 2*m)
	return mergeNodes(a, unpackNodes(a[na+m:na+m], enc))
}

// Compress restores the q-digest invariant by pushing small counts upward.
func (q *QDigest) Compress() {
	q.unpack()
	s := getScratch()
	q.fold(s)
	q.compress(s)
	scratchList.Put(s)
}

// compress is one bottom-up pass over the folded nodes, deepest first
// (descending id). Each node present when the pass begins is visited once,
// with its count as the pass has left it: if its family (node, sibling,
// parent) holds less than n/k, the family's mass moves into the parent and
// node and sibling go. A parent the pass creates is read as a sibling later
// in the pass but is not itself visited.
//
// Visiting descending ids means reading the nodes from the back, and the
// nodes the pass keeps are written from the back too, behind the read
// position; created parents wait in s.pend (descending) until the read
// position reaches them, and a parent already present is found by a
// cursor that only moves down, since parents come up in descending order.
func (q *QDigest) compress(s *scratch) {
	threshold := q.n / q.k
	if threshold <= 1 {
		// Every count is at least 1, so no family falls below the
		// threshold: nothing moves. This is the common case for range
		// merges of lightly loaded buckets.
		return
	}
	nodes := q.nodes
	pend, head := s.pend[:0], 0
	r, w := len(nodes), len(nodes) // nodes[:r] unread, nodes[w:] kept
	pc := len(nodes) - 1           // parent cursor
	for r > 0 || head < len(pend) {
		// The next node in descending order comes from the unread nodes
		// or the created parents; only the former are visited.
		var nd node
		visit := r > 0 && (head == len(pend) || nodes[r-1].id > pend[head].id)
		if visit {
			r--
			nd = nodes[r]
		} else {
			nd = pend[head]
			head++
		}
		// An odd id's sibling (id-1) comes next, if present; an even id
		// has no sibling left, or it would have come first. The root has
		// neither sibling nor parent.
		sib := node{id: nd.id - 1}
		if nd.id&1 == 1 && nd.id > 1 {
			if r > 0 && nodes[r-1].id == sib.id {
				r--
				sib.cnt, visit = nodes[r].cnt, true
			} else if head < len(pend) && pend[head].id == sib.id {
				sib.cnt = pend[head].cnt
				head++
			}
		}
		if visit && nd.id > 1 {
			p := nd.id / 2
			pc = min(pc, r-1)
			for pc >= 0 && nodes[pc].id > p {
				pc--
			}
			found := pc >= 0 && nodes[pc].id == p
			var parent uint64
			if found {
				parent = nodes[pc].cnt
			}
			if family := nd.cnt + sib.cnt + parent; family < threshold {
				if found {
					nodes[pc].cnt = family
				} else {
					pend = append(pend, node{p, family})
				}
				continue
			}
		}
		w--
		nodes[w] = nd
		if sib.cnt != 0 {
			w--
			nodes[w] = sib
		}
	}
	q.nodes = nodes[:copy(nodes, nodes[w:])]
	s.pend = pend[:0]
}

// ranked is a node in value order: key sorts by the node's right edge,
// then deeper (narrower) nodes first.
type ranked struct{ key, count uint64 }

// Query returns a value whose rank approximates phi*n with error at most
// logU/k * n.
func (q *QDigest) Query(phi float64) uint64 {
	phis, out := [1]float64{phi}, [1]uint64{}
	q.QueryAll(phis[:], out[:])
	return out[0]
}

// QueryAll sets out[i] to Query(phis[i]) for every i, ordering the nodes
// once for all of them. out must be at least as long as phis.
func (q *QDigest) QueryAll(phis []float64, out []uint64) {
	if q.n == 0 {
		clear(out[:len(phis)])
		return
	}
	s := getScratch()
	// Postorder traversal in increasing value order: sort nodes by
	// (rightmost leaf, depth) so that accumulating counts respects the
	// value order, per the q-digest query rule.
	order := s.order[:0]
	for _, nd := range q.view(s) {
		depthBelow := q.logU - uint8(bits.Len64(nd.id)-1)
		hi := ((nd.id+1)<<depthBelow - 1) - uint64(1)<<q.logU
		order = append(order, ranked{key: hi<<6 | uint64(depthBelow), count: nd.cnt})
	}
	slices.SortFunc(order, func(a, b ranked) int { return cmp.Compare(a.key, b.key) })
	for i, phi := range phis {
		if phi < 0 {
			phi = 0
		}
		if phi > 1 {
			phi = 1
		}
		target := phi * float64(q.n)
		out[i] = order[len(order)-1].key >> 6
		var acc float64
		for _, nd := range order {
			acc += float64(nd.count)
			if acc >= target {
				out[i] = nd.key >> 6
				break
			}
		}
	}
	s.order = order
	scratchList.Put(s)
}

// Merge adds another q-digest's counters into q and recompresses. This is
// the sensor-tree aggregation path: error bounds add, space stays O(k).
// other is only read.
func (q *QDigest) Merge(other *QDigest) error {
	if other == nil || q.logU != other.logU || q.k != other.k {
		return core.ErrIncompatible
	}
	q.unpack()
	s := getScratch()
	q.fold(s)
	if other.packed {
		q.nodes = mergePacked(q.nodes, other.enc)
	} else {
		q.nodes = mergeNodes(q.nodes, other.view(s))
	}
	q.n += other.n
	q.compress(s)
	scratchList.Put(s)
	return nil
}

// Compact fills dst with an immutable copy of q with the tail folded in
// and the nodes packed (see packNodes) in one allocation of exactly their
// size, and reports true; it reports false and leaves dst alone when q is
// itself such a copy. The copy shares nothing with q and reads exactly as
// q does; a writer called on it unpacks it first. dst may be a field of
// the holder's own struct, so the copy costs that one allocation.
func (q *QDigest) Compact(dst *QDigest) bool {
	if q.packed {
		return false
	}
	s := getScratch()
	nodes := q.view(s)
	var enc []byte
	if len(nodes) > 0 {
		enc = packNodes(make([]byte, 0, packedSize(nodes)), nodes)
	}
	scratchList.Put(s)
	*dst = QDigest{logU: q.logU, packed: true, k: q.k, n: q.n, enc: enc}
	return true
}

// A payload is the packed form as bytes, for a holder that keeps sealed
// digests in one byte arena (the sketch store's sealed history) rather
// than as objects: the uvarint of the total weight n, then the nodes
// packed (see packNodes). The universe and compression factor are not in
// it: the holder knows them.

// AppendPayload appends q's payload, with the tail folded in, to b.
func (q *QDigest) AppendPayload(b []byte) []byte {
	b = binary.AppendUvarint(b, q.n)
	if q.packed {
		return append(b, q.enc...)
	}
	s := getScratch()
	b = packNodes(b, q.view(s))
	scratchList.Put(s)
	return b
}

// MergePayload merges the digest that p, from AppendPayload of a digest
// with q's universe and compression factor, encodes into q, exactly as
// Merge merges that digest, and recompresses. Like Merge of a packed
// digest, it unpacks the nodes into q's own spare capacity.
func (q *QDigest) MergePayload(p []byte) {
	n, w := binary.Uvarint(p)
	q.unpack()
	s := getScratch()
	q.fold(s)
	q.nodes = mergePacked(q.nodes, p[w:])
	q.n += n
	q.compress(s)
	scratchList.Put(s)
}

// Count returns the total inserted weight.
func (q *QDigest) Count() uint64 { return q.n }

// Reset returns the digest to its freshly-constructed state, reusing its
// allocations.
func (q *QDigest) Reset() {
	q.nodes, q.tail = q.nodes[:0], q.tail[:0]
	q.packed, q.enc = false, nil
	q.n = 0
}

// Nodes returns the number of stored tree nodes.
func (q *QDigest) Nodes() int {
	switch {
	case q.packed:
		return packedNodes(q.enc)
	case len(q.tail) == 0:
		return len(q.nodes)
	}
	s := getScratch()
	n := len(q.view(s))
	scratchList.Put(s)
	return n
}

// Bytes approximates the footprint: the packed bytes of a Compact copy,
// else 16 bytes per node and 4 per pending update.
func (q *QDigest) Bytes() int { return len(q.enc) + len(q.nodes)*16 + len(q.tail)*4 + 32 }
