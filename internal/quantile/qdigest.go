package quantile

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
)

// QDigest is the Shrivastava–Buragohain–Agrawal–Suri q-digest ("Medians and
// beyond", designed for sensor networks, cited by the survey): a compressed
// binary tree over a fixed integer universe [0, 2^logU) in which each node
// holds a count, maintained so that every non-root node's family
// (node+parent+sibling) carries at least n/k mass. It answers rank queries
// with error at most log(U)/k * n and — its defining property — merges by
// simple counter addition, which is why sensor aggregation trees use it.
//
// The tree is held as two parallel slices in ascending node-id order, so
// merging is a linear two-way merge and compressing one descending pass.
// Updates append to an unsorted tail that is sorted and merged in
// ("folded") only when the node count could exceed the compression bound.
// Only writers (Update, Merge as the receiver, Compress, Reset,
// UnmarshalBinary) fold; every read, including Merge's argument, sees the
// tail folded in without changing the digest, so concurrent readers need
// no more than a read lock.
type QDigest struct {
	logU uint8
	k    uint64 // compression factor
	n    uint64
	ids  []uint64 // node ids (1-based heap order), strictly ascending
	cnts []uint64 // cnts[i] is the count of ids[i]; never zero
	tail []leaf   // updates not yet folded into ids/cnts, in arrival order
}

// leaf is one pending Update: a leaf node id and its weight.
type leaf struct{ id, w uint64 }

// NewQDigest returns a q-digest over the universe [0, 2^logU) with
// compression factor k.
func NewQDigest(logU uint8, k uint64) (*QDigest, error) {
	if logU == 0 || logU > 32 {
		return nil, core.Errf("QDigest", "logU", "%d not in [1,32]", logU)
	}
	if k == 0 {
		return nil, core.Errf("QDigest", "k", "must be positive")
	}
	return &QDigest{logU: logU, k: k}, nil
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
	maxV := (uint64(1) << q.logU) - 1
	if v > maxV {
		v = maxV
	}
	q.tail = append(q.tail, leaf{q.leafID(v), w})
	q.n += w
	// The tail may repeat ids, so the node count is at most the sum; fold
	// only when that could exceed 6k, and compress when the folded count
	// does — exactly when a digest without a tail would.
	if uint64(len(q.ids)+len(q.tail)) > 6*q.k {
		s := getScratch()
		q.fold(s)
		if uint64(len(q.ids)) > 6*q.k {
			q.compress(s)
		}
		scratchPool.Put(s)
	}
}

// scratch holds the transient buffers of one fold, merge, compress or
// query. Pooled: a range query merges once per bucket, and no digest keeps
// any of it afterwards.
type scratch struct {
	ids, cnts   []uint64 // a folded view of a digest with a tail
	tids, tcnts []uint64 // a tail, sorted and with equal ids summed
	leaves      []leaf   // a tail's copy, radix-sorted...
	spare       []leaf   // ...through this second buffer
	pend        []leaf   // parents a compress pass created, in creation order
	order       []ranked // nodes in value order (Query)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// sortedTail returns q's tail as ascending ids with summed weights, in s.
// q is not modified. A tail holds leaves only, so it is ordered by value:
// a least-significant-digit radix sort, one byte of the value per pass,
// skipping a byte every leaf shares. It is linear in the tail, which a
// comparison sort of thousands of leaves at a bucket seal is not.
func (q *QDigest) sortedTail(s *scratch) (ids, cnts []uint64) {
	base := uint64(1) << q.logU
	a := append(s.leaves[:0], q.tail...)
	b := slices.Grow(s.spare[:0], len(a))[:len(a)]
	for shift := uint8(0); shift < q.logU; shift += 8 {
		var at [256]int
		for _, l := range a {
			at[byte((l.id-base)>>shift)]++
		}
		if at[byte((a[0].id-base)>>shift)] == len(a) {
			continue
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, l := range a {
			d := byte((l.id - base) >> shift)
			b[at[d]] = l
			at[d]++
		}
		a, b = b, a
	}
	s.leaves, s.spare = a, b
	ids, cnts = s.tids[:0], s.tcnts[:0]
	for _, l := range a {
		if n := len(ids); n > 0 && ids[n-1] == l.id {
			cnts[n-1] += l.w
		} else {
			ids, cnts = append(ids, l.id), append(cnts, l.w)
		}
	}
	s.tids, s.tcnts = ids, cnts
	return ids, cnts
}

// fold merges the tail into the sorted nodes.
func (q *QDigest) fold(s *scratch) {
	if len(q.tail) == 0 {
		return
	}
	tids, tcnts := q.sortedTail(s)
	q.ids, q.cnts = mergeNodes(q.ids, q.cnts, tids, tcnts)
	q.tail = q.tail[:0]
}

// view returns q's nodes with the tail folded in, without changing q: its
// own slices when the tail is empty, a merged copy in s otherwise.
func (q *QDigest) view(s *scratch) (ids, cnts []uint64) {
	if len(q.tail) == 0 {
		return q.ids, q.cnts
	}
	s.ids = append(s.ids[:0], q.ids...)
	s.cnts = append(s.cnts[:0], q.cnts...)
	tids, tcnts := q.sortedTail(s)
	s.ids, s.cnts = mergeNodes(s.ids, s.cnts, tids, tcnts)
	return s.ids, s.cnts
}

// mergeNodes adds the ascending nodes (bids, bcnts) into the ascending
// nodes (ids, cnts), summing the counts of equal ids, and returns the
// result. It merges backwards in place, so it allocates only to grow ids
// and cnts.
func mergeNodes(ids, cnts, bids, bcnts []uint64) ([]uint64, []uint64) {
	na, nb := len(ids), len(bids)
	if nb == 0 {
		return ids, cnts
	}
	ids = slices.Grow(ids, nb)[:na+nb]
	cnts = slices.Grow(cnts, nb)[:na+nb]
	i, j, w := na-1, nb-1, na+nb
	for j >= 0 {
		w--
		switch {
		case i >= 0 && ids[i] > bids[j]:
			ids[w], cnts[w] = ids[i], cnts[i]
			i--
		case i >= 0 && ids[i] == bids[j]:
			ids[w], cnts[w] = ids[i], cnts[i]+bcnts[j]
			i--
			j--
		default:
			ids[w], cnts[w] = bids[j], bcnts[j]
			j--
		}
	}
	// ids[:i+1] never moved; equal ids left a gap between them and the
	// merged run starting at w.
	if gap := w - (i + 1); gap > 0 {
		copy(ids[i+1:], ids[w:])
		copy(cnts[i+1:], cnts[w:])
		ids, cnts = ids[:na+nb-gap], cnts[:na+nb-gap]
	}
	return ids, cnts
}

// Compress restores the q-digest invariant by pushing small counts upward.
func (q *QDigest) Compress() {
	s := getScratch()
	q.fold(s)
	q.compress(s)
	scratchPool.Put(s)
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
	ids, cnts := q.ids, q.cnts
	pend, head := s.pend[:0], 0
	r, w := len(ids), len(ids) // ids[:r] unread, ids[w:] kept
	pc := len(ids) - 1         // parent cursor
	for r > 0 || head < len(pend) {
		// The next node in descending order comes from the unread nodes
		// or the created parents; only the former are visited.
		var id, c uint64
		visit := r > 0 && (head == len(pend) || ids[r-1] > pend[head].id)
		if visit {
			r--
			id, c = ids[r], cnts[r]
		} else {
			id, c = pend[head].id, pend[head].w
			head++
		}
		// An odd id's sibling (id-1) comes next, if present; an even id
		// has no sibling left, or it would have come first. The root has
		// neither sibling nor parent.
		sib, sc := id-1, uint64(0)
		if id&1 == 1 && id > 1 {
			if r > 0 && ids[r-1] == sib {
				r--
				sc, visit = cnts[r], true
			} else if head < len(pend) && pend[head].id == sib {
				sc = pend[head].w
				head++
			}
		}
		if visit && id > 1 {
			p := id / 2
			pc = min(pc, r-1)
			for pc >= 0 && ids[pc] > p {
				pc--
			}
			found := pc >= 0 && ids[pc] == p
			var parent uint64
			if found {
				parent = cnts[pc]
			}
			if family := c + sc + parent; family < threshold {
				if found {
					cnts[pc] = family
				} else {
					pend = append(pend, leaf{p, family})
				}
				continue
			}
		}
		w--
		ids[w], cnts[w] = id, c
		if sc != 0 {
			w--
			ids[w], cnts[w] = sib, sc
		}
	}
	n := copy(ids, ids[w:])
	copy(cnts, cnts[w:])
	q.ids, q.cnts = ids[:n], cnts[:n]
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
	ids, cnts := q.view(s)
	// Postorder traversal in increasing value order: sort nodes by
	// (rightmost leaf, depth) so that accumulating counts respects the
	// value order, per the q-digest query rule.
	order := s.order[:0]
	for i, id := range ids {
		depthBelow := q.logU - uint8(bits.Len64(id)-1)
		hi := ((id+1)<<depthBelow - 1) - uint64(1)<<q.logU
		order = append(order, ranked{key: hi<<6 | uint64(depthBelow), count: cnts[i]})
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
	scratchPool.Put(s)
}

// Merge adds another q-digest's counters into q and recompresses. This is
// the sensor-tree aggregation path: error bounds add, space stays O(k).
// other is only read.
func (q *QDigest) Merge(other *QDigest) error {
	if other == nil || q.logU != other.logU || q.k != other.k {
		return core.ErrIncompatible
	}
	s := getScratch()
	q.fold(s)
	oids, ocnts := other.view(s)
	q.ids, q.cnts = mergeNodes(q.ids, q.cnts, oids, ocnts)
	q.n += other.n
	q.compress(s)
	scratchPool.Put(s)
	return nil
}

// Compact returns a copy of q with the tail folded in and the nodes held in
// exactly as much memory as they take, or nil when q is already held so.
// The copy shares nothing with q.
func (q *QDigest) Compact() *QDigest {
	if len(q.tail) == 0 && cap(q.ids) == len(q.ids) && cap(q.cnts) == len(q.cnts) {
		return nil
	}
	s := getScratch()
	ids, cnts := q.view(s)
	n := len(ids)
	buf := make([]uint64, 2*n)
	c := &QDigest{logU: q.logU, k: q.k, n: q.n, ids: buf[:n:n], cnts: buf[n:]}
	copy(c.ids, ids)
	copy(c.cnts, cnts)
	scratchPool.Put(s)
	return c
}

// Count returns the total inserted weight.
func (q *QDigest) Count() uint64 { return q.n }

// Reset returns the digest to its freshly-constructed state, reusing its
// allocations.
func (q *QDigest) Reset() {
	q.ids, q.cnts, q.tail = q.ids[:0], q.cnts[:0], q.tail[:0]
	q.n = 0
}

// Nodes returns the number of stored tree nodes.
func (q *QDigest) Nodes() int {
	if len(q.tail) == 0 {
		return len(q.ids)
	}
	s := getScratch()
	ids, _ := q.view(s)
	n := len(ids)
	scratchPool.Put(s)
	return n
}

// Bytes approximates the footprint: 16 bytes per node and per pending
// update.
func (q *QDigest) Bytes() int { return (len(q.ids)+len(q.tail))*16 + 32 }
