package quantile

import (
	"cmp"
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
type QDigest struct {
	logU   uint8
	k      uint64 // compression factor
	n      uint64
	counts map[uint64]uint64 // node id (1-based heap order) -> count
}

// NewQDigest returns a q-digest over the universe [0, 2^logU) with
// compression factor k.
func NewQDigest(logU uint8, k uint64) (*QDigest, error) {
	if logU == 0 || logU > 32 {
		return nil, core.Errf("QDigest", "logU", "%d not in [1,32]", logU)
	}
	if k == 0 {
		return nil, core.Errf("QDigest", "k", "must be positive")
	}
	return &QDigest{logU: logU, k: k, counts: make(map[uint64]uint64)}, nil
}

// leafID returns the heap-order id of the leaf for value v.
func (q *QDigest) leafID(v uint64) uint64 {
	return (uint64(1) << q.logU) + v
}

// Update inserts value v (clamped to the universe), with weight w.
func (q *QDigest) Update(v uint64, w uint64) {
	maxV := (uint64(1) << q.logU) - 1
	if v > maxV {
		v = maxV
	}
	q.counts[q.leafID(v)] += w
	q.n += w
	if uint64(len(q.counts)) > 6*q.k {
		q.Compress()
	}
}

// idScratch recycles the node-id slices Compress sorts: a range query
// compresses its merge target once per bucket, and the target keeps
// nothing of the slice afterwards.
var idScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Compress restores the q-digest invariant by pushing small counts upward.
func (q *QDigest) Compress() {
	if q.n == 0 {
		return
	}
	threshold := q.n / q.k
	if threshold <= 1 {
		// A family holding a non-zero count reaches the threshold, so
		// nothing moves up the tree: only zero-count nodes (never the
		// root) go, and their order does not matter. This is the common
		// case for range merges of lightly loaded buckets, which would
		// otherwise sort every node id once per merged bucket.
		for id, c := range q.counts {
			if c == 0 && id > 1 {
				delete(q.counts, id)
			}
		}
		return
	}
	// Process nodes from deepest level upward: descending id order.
	scratch := idScratch.Get().(*[]uint64)
	defer idScratch.Put(scratch)
	ids := (*scratch)[:0]
	for id := range q.counts {
		ids = append(ids, id)
	}
	*scratch = ids
	slices.Sort(ids)
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		if id <= 1 {
			continue
		}
		c := q.counts[id]
		if c == 0 {
			delete(q.counts, id)
			continue
		}
		sib := id ^ 1
		parent := id / 2
		family := c + q.counts[sib] + q.counts[parent]
		if family < threshold {
			q.counts[parent] = family
			delete(q.counts, id)
			delete(q.counts, sib)
		}
	}
}

// Query returns a value whose rank approximates phi*n with error at most
// logU/k * n.
func (q *QDigest) Query(phi float64) uint64 {
	if q.n == 0 {
		return 0
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * float64(q.n)
	// Postorder traversal in increasing value order: sort nodes by
	// (rightmost leaf, depth) so that accumulating counts respects the
	// value order, per the q-digest query rule.
	type nodeRange struct {
		id    uint64
		lo    uint64
		hi    uint64
		count uint64
	}
	nodes := make([]nodeRange, 0, len(q.counts))
	for id, c := range q.counts {
		lo, hi := q.spanOf(id)
		nodes = append(nodes, nodeRange{id: id, lo: lo, hi: hi, count: c})
	}
	slices.SortFunc(nodes, func(a, b nodeRange) int {
		// Smaller span (deeper node) first when right edges tie.
		return cmp.Or(cmp.Compare(a.hi, b.hi), cmp.Compare(b.lo, a.lo))
	})
	var acc float64
	for _, nd := range nodes {
		acc += float64(nd.count)
		if acc >= target {
			return nd.hi
		}
	}
	return nodes[len(nodes)-1].hi
}

// spanOf returns the leaf-value range [lo, hi] covered by node id.
func (q *QDigest) spanOf(id uint64) (uint64, uint64) {
	level := uint8(0)
	for i := id; i > 1; i /= 2 {
		level++
	}
	depthBelow := q.logU - level
	firstLeaf := id << depthBelow
	lastLeaf := firstLeaf + (uint64(1) << depthBelow) - 1
	base := uint64(1) << q.logU
	return firstLeaf - base, lastLeaf - base
}

// Merge adds another q-digest's counters into q and recompresses. This is
// the sensor-tree aggregation path: error bounds add, space stays O(k).
func (q *QDigest) Merge(other *QDigest) error {
	if other == nil || q.logU != other.logU || q.k != other.k {
		return core.ErrIncompatible
	}
	for id, c := range other.counts {
		q.counts[id] += c
	}
	q.n += other.n
	q.Compress()
	return nil
}

// Count returns the total inserted weight.
func (q *QDigest) Count() uint64 { return q.n }

// Reset returns the digest to its freshly-constructed state, reusing the
// node map's allocation.
func (q *QDigest) Reset() {
	clear(q.counts)
	q.n = 0
}

// Nodes returns the number of stored tree nodes.
func (q *QDigest) Nodes() int { return len(q.counts) }

// Bytes approximates the footprint.
func (q *QDigest) Bytes() int { return len(q.counts)*16 + 32 }
