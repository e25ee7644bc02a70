// history.go holds a series' sealed history as payload bytes. A bucket
// sealed in a compact form — a sparse HyperLogLog, a sparse Count-Min, a
// q-digest — leaves its slot: its payload (the family's AppendPayload
// layout) is appended to the series' one byte arena, found through a
// small index, and the synopsis object goes to the collector. The arena
// holds no pointers, so the collector never scans it, and a sealed bucket
// costs its payload and one index word instead of an object and a slot.
//
// Rules. Arena bytes below len are never written again: readers take
// payload slices under the shard's read lock and merge them after
// releasing it, while writers append. Retention drops a prefix of the
// index, and a late write drops the one bucket it clones; the records
// they leave are dead bytes, and once those pass half the arena the live
// records are copied into a new array (readers keep the old one). The
// index is in ascending bucket order, and every sealed q-digest is in the
// arena, so a range merges its q-digest parts in ascending bucket order
// as it always has; HyperLogLog and Count-Min merges are max and add, so
// their order does not matter.
package store

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// ref locates one bucket of a history: the bucket's index less the
// history's base in the high refBktBits bits, and the arena offset of its
// record in the rest. A record is the uvarint length of the payload, then
// the payload.
type ref uint64

const (
	refBktBits = 24
	refOffBits = 64 - refBktBits
	refOffMask = 1<<refOffBits - 1
	refSize    = 8 // bytes of index a bucket costs

	// maxHistoryRing is the widest retention window whose buckets a
	// ref can tell apart, and so the widest a store accepts (New).
	maxHistoryRing = 1 << refBktBits
)

func (r ref) off() int { return int(r & refOffMask) }

// history is one series' sealed compact buckets.
type history struct {
	arena []byte // records, in the order they were sealed
	index []ref  // one per bucket, ascending bucket order
	base  int64  // the bucket index refs count from
	dead  int    // arena bytes no ref points at
}

// bkt returns the bucket index r locates.
func (h *history) bkt(r ref) int64 { return h.base + int64(r>>refOffBits) }

// newest returns the highest bucket index held, or -1 when none is.
func (h *history) newest() int64 {
	if n := len(h.index); n > 0 {
		return h.bkt(h.index[n-1])
	}
	return -1
}

// bytes is what the history accounts for: its live records and its index.
func (h *history) bytes() int { return len(h.arena) - h.dead + refSize*len(h.index) }

// record returns the payload r locates and the length of its record.
func (h *history) record(r ref) (payload []byte, size int) {
	off := r.off()
	n, w := binary.Uvarint(h.arena[off:])
	return h.arena[off+w : off+w+int(n)], w + int(n)
}

// find returns the position of bucket bkt in the index and whether it is
// held; when it is not, the position is where it would be inserted.
func (h *history) find(bkt int64) (int, bool) {
	switch {
	case len(h.index) == 0 || bkt < h.base:
		return 0, false
	case bkt-h.base >= maxHistoryRing:
		return len(h.index), false
	}
	rel := ref(bkt - h.base)
	i, _ := slices.BinarySearchFunc(h.index, rel, func(r, rel ref) int { return cmp.Compare(r>>refOffBits, rel) })
	return i, i < len(h.index) && h.index[i]>>refOffBits == rel
}

// add seals bucket bkt into the history when syn has a compact payload
// and reports whether it did, with the bytes the history grew by; the
// caller then drops syn. bkt is not held, and lies within the retention
// window, of at most maxHistoryRing buckets, behind the series' newest.
func (h *history) add(bkt int64, syn Synopsis) (int, bool) {
	off := len(h.arena)
	a, ok := syn.appendPayload(h.arena)
	if !ok {
		return 0, false
	}
	var pre [binary.MaxVarintLen64]byte
	h.arena = slices.Insert(a, off, pre[:binary.PutUvarint(pre[:], uint64(len(a)-off))]...)
	if len(h.index) == 0 {
		h.base = bkt
	} else if bkt < h.base || bkt-h.base >= maxHistoryRing {
		// Count from the lowest bucket held: every held bucket lies
		// within the window behind the newest, so every offset fits.
		base := min(bkt, h.bkt(h.index[0]))
		for i, r := range h.index {
			h.index[i] = ref(h.bkt(r)-base)<<refOffBits | r&refOffMask
		}
		h.base = base
	}
	i, _ := h.find(bkt)
	h.index = slices.Insert(h.index, i, ref(bkt-h.base)<<refOffBits|ref(off))
	return len(h.arena) - off + refSize, true
}

// remove drops the bucket at index position i, returning the bytes the
// history shrank by. Its record stays in the arena as dead bytes.
func (h *history) remove(i int) int {
	_, size := h.record(h.index[i])
	h.dead += size
	h.index = slices.Delete(h.index, i, i+1)
	return size + refSize
}

// expire drops every bucket at or below horizon, returning the bytes the
// history shrank by, and copies the live records into a new arena once
// dead bytes pass half of it.
func (h *history) expire(horizon int64) int {
	before := h.bytes()
	n := 0
	for n < len(h.index) && h.bkt(h.index[n]) <= horizon {
		_, size := h.record(h.index[n])
		h.dead += size
		n++
	}
	h.index = slices.Delete(h.index, 0, n)
	switch {
	case len(h.index) == 0:
		h.arena, h.dead = nil, 0
	case 2*h.dead > len(h.arena):
		live := make([]byte, 0, len(h.arena)-h.dead)
		for i, r := range h.index {
			off := r.off()
			_, size := h.record(r)
			h.index[i] = r&^refOffMask | ref(len(live))
			live = append(live, h.arena[off:off+size]...)
		}
		h.arena, h.dead = live, 0
	}
	return before - h.bytes()
}
