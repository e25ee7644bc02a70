package quantile

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// mapDigest is the q-digest as it was held before the sorted-slice form:
// a (node id -> count) map, compressed by sorting every id on each pass.
// It is the reference the differential tests hold QDigest to, byte for
// byte and answer for answer.
type mapDigest struct {
	logU   uint8
	k      uint64
	n      uint64
	counts map[uint64]uint64
}

func newMapDigest(logU uint8, k uint64) *mapDigest {
	return &mapDigest{logU: logU, k: k, counts: make(map[uint64]uint64)}
}

func (q *mapDigest) Update(v uint64, w uint64) {
	maxV := (uint64(1) << q.logU) - 1
	if v > maxV {
		v = maxV
	}
	q.counts[(uint64(1)<<q.logU)+v] += w
	q.n += w
	if uint64(len(q.counts)) > 6*q.k {
		q.Compress()
	}
}

func (q *mapDigest) Compress() {
	if q.n == 0 {
		return
	}
	threshold := q.n / q.k
	if threshold <= 1 {
		for id, c := range q.counts {
			if c == 0 && id > 1 {
				delete(q.counts, id)
			}
		}
		return
	}
	sortedCompress(q)
}

// sortedCompress is the map's full bottom-up pass over every node id,
// deepest first.
func sortedCompress(q *mapDigest) {
	if q.n == 0 {
		return
	}
	threshold := q.n / q.k
	ids := make([]uint64, 0, len(q.counts))
	for id := range q.counts {
		ids = append(ids, id)
	}
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
		sib, parent := id^1, id/2
		if family := c + q.counts[sib] + q.counts[parent]; family < threshold {
			q.counts[parent] = family
			delete(q.counts, id)
			delete(q.counts, sib)
		}
	}
}

func (q *mapDigest) Query(phi float64) uint64 {
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
	type nodeRange struct{ lo, hi, count uint64 }
	nodes := make([]nodeRange, 0, len(q.counts))
	for id, c := range q.counts {
		lo, hi := q.spanOf(id)
		nodes = append(nodes, nodeRange{lo: lo, hi: hi, count: c})
	}
	slices.SortFunc(nodes, func(a, b nodeRange) int {
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

func (q *mapDigest) spanOf(id uint64) (uint64, uint64) {
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

func (q *mapDigest) Merge(other *mapDigest) {
	for id, c := range other.counts {
		q.counts[id] += c
	}
	q.n += other.n
	q.Compress()
}

func (q *mapDigest) Count() uint64 { return q.n }

func (q *mapDigest) Reset() {
	clear(q.counts)
	q.n = 0
}

func (q *mapDigest) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, qdHeaderSize+len(q.counts)*16)
	out = binary.LittleEndian.AppendUint32(out, qdMagic)
	out = append(out, q.logU)
	out = binary.LittleEndian.AppendUint64(out, q.k)
	out = binary.LittleEndian.AppendUint64(out, q.n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(q.counts)))
	ids := make([]uint64, 0, len(q.counts))
	for id := range q.counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, id)
		out = binary.LittleEndian.AppendUint64(out, q.counts[id])
	}
	return out, nil
}

// MapDigest and NewMapDigest expose the reference to the package's
// external tests, which hold store answers to it.
type MapDigest = mapDigest

var NewMapDigest = newMapDigest
