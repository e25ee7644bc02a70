package cardinality

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// sparse.go is the HyperLogLog's second representation: while few
// registers are occupied, the sketch holds only those, as sorted packed
// index<<8|rank entries — the dense/sparse crossover the survey cites
// from "HyperLogLog in practice" (Heule et al.). A sketch is held sparse
// only while that costs under half the dense register array; the form is
// chosen from the occupancy alone, never by the caller. The ablation
// experiment A2 measures where the crossover pays off.

// sparseEntryBytes is the footprint of one sparse entry.
const sparseEntryBytes = 4

// sparseFits reports whether n occupied registers are worth holding
// sparse: the entries must take less than half the dense array.
func (h *HyperLogLog) sparseFits(n int) bool { return 2*sparseEntryBytes*n < h.m() }

// SparseHLL is a HyperLogLog that starts in the sparse form and converts
// to dense registers by itself once the sparse form stops paying off.
type SparseHLL = HyperLogLog

// NewSparseHLL returns an empty HLL with 2^precision registers in the
// sparse form: near-exact counting at a fraction of the dense footprint
// for small cardinalities. Precision must be in [4, 18].
func NewSparseHLL(precision uint8, seed uint64) (*SparseHLL, error) {
	h := new(HyperLogLog)
	if err := h.Init(precision, seed, true); err != nil {
		return nil, err
	}
	return h, nil
}

// Compact fills dst with a sparse-form copy of a dense sketch whose
// occupancy is low enough for it (see sparseFits) and reports true; it
// reports false and leaves dst alone otherwise — for a sketch that is
// already sparse, too. The copy shares nothing with h, so a holder of
// history can keep the copy and reuse h. dst may be a field of the
// holder's own struct, so the copy costs one allocation: its entries.
func (h *HyperLogLog) Compact(dst *HyperLogLog) bool {
	if h.registers == nil {
		return false
	}
	// Both passes take eight registers per step, free of per-register
	// branches: at the occupancies that compact a register-by-register
	// test mispredicts.
	n := occupiedCount(h.registers)
	if !h.sparseFits(n) {
		return false
	}
	sparse := make([]uint32, 0, n)
	for base := 0; base < len(h.registers); base += 8 {
		word := binary.LittleEndian.Uint64(h.registers[base:])
		for occ := occupied(word); occ != 0; occ &= occ - 1 {
			i := bits.TrailingZeros64(occ) / 8
			sparse = append(sparse, uint32(base+i)<<8|uint32(uint8(word>>(8*i))))
		}
	}
	*dst = HyperLogLog{precision: h.precision, seed: h.seed, items: h.items, sparse: sparse}
	return true
}

// occupiedCount returns how many of the registers are non-zero; their
// count is a multiple of eight.
func occupiedCount(registers []uint8) int {
	n := 0
	for base := 0; base < len(registers); base += 8 {
		n += bits.OnesCount64(occupied(binary.LittleEndian.Uint64(registers[base:])))
	}
	return n
}

// occupied marks the non-zero bytes of word: bit 8i+7 of the result is set
// exactly when byte i of word is non-zero.
func occupied(word uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ((word&low7 + low7) | word) &^ low7
}

// IsSparse reports whether the sketch is in its sparse representation.
func (h *HyperLogLog) IsSparse() bool { return h.registers == nil }

// raiseSparse is the sparse form's register update: raise register idx to
// rank, inserting it in order if it was empty, and convert to the dense
// form when the entries stop fitting.
func (h *HyperLogLog) raiseSparse(idx uint32, rank uint8) {
	// Ranks are at least 1, so idx<<8 sorts just before idx's own entry.
	i, _ := slices.BinarySearch(h.sparse, idx<<8)
	if i < len(h.sparse) && h.sparse[i]>>8 == idx {
		if rank > uint8(h.sparse[i]) {
			h.sparse[i] = idx<<8 | uint32(rank)
		}
		return
	}
	h.sparse = slices.Insert(h.sparse, i, idx<<8|uint32(rank))
	if !h.sparseFits(len(h.sparse)) {
		h.expand()
	}
}

// expand converts the sparse form to dense registers in place.
func (h *HyperLogLog) expand() {
	h.registers = make([]uint8, h.m())
	for _, e := range h.sparse {
		h.registers[e>>8] = uint8(e)
	}
	h.sparse = nil
}

// SparseEntry is one occupied register in sparse mode.
type SparseEntry struct {
	Index uint32
	Rank  uint8
}

// SortedEntries returns the sparse entries in register order, for tests
// and inspection. Returns nil once dense.
func (h *HyperLogLog) SortedEntries() []SparseEntry {
	if h.registers != nil {
		return nil
	}
	out := make([]SparseEntry, len(h.sparse))
	for i, e := range h.sparse {
		out[i] = SparseEntry{Index: e >> 8, Rank: uint8(e)}
	}
	return out
}

// A payload is the sparse form as bytes, for a holder that keeps sealed
// sketches in one byte arena (the sketch store's sealed history) rather
// than as objects. Precision and seed are not in it: the holder knows
// them. Layout:
//
//	uvarint items, then per occupied register, in ascending index order,
//	uvarint(index - previous index) and the rank byte
//
// where the first index is less 0. Most deltas are under 128, so an
// occupied register takes two bytes where the sparse form takes four.

// AppendPayload appends h's payload to b and reports true when h is in
// the sparse form; a dense h appends nothing and reports false.
func (h *HyperLogLog) AppendPayload(b []byte) ([]byte, bool) {
	if h.registers != nil {
		return b, false
	}
	b = binary.AppendUvarint(b, h.items)
	prev := uint32(0)
	for _, e := range h.sparse {
		b = binary.AppendUvarint(b, uint64(e>>8-prev))
		b = append(b, uint8(e))
		prev = e >> 8
	}
	return b, true
}

// MergePayload folds the sketch that p, from AppendPayload of a sketch
// with h's precision and seed, encodes into h, exactly as Merge folds
// that sketch: register-wise max, in whichever form h is in. It
// allocates only where Merge would.
func (h *HyperLogLog) MergePayload(p []byte) {
	items, i := binary.Uvarint(p)
	idx := uint32(0)
	for i < len(p) {
		// Deltas under 2^14, one or two bytes, are read without the
		// decoder; a rank byte follows every delta.
		d := uint32(p[i])
		switch {
		case d < 0x80:
			i++
		case p[i+1] < 0x80:
			d, i = d&0x7f|uint32(p[i+1])<<7, i+2
		default:
			v, w := binary.Uvarint(p[i:])
			d, i = uint32(v), i+w
		}
		idx += d
		h.raise(idx, p[i])
		i++
	}
	h.items += items
}

// AppendPayloadBinary appends to b the MarshalBinary encoding of the
// sketch with the given precision and seed that p, from AppendPayload,
// encodes: the bytes the sketch itself would marshal to.
func AppendPayloadBinary(b []byte, precision uint8, seed uint64, p []byte) []byte {
	items, n := binary.Uvarint(p)
	b = append(b, precision)
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, items)
	m := 1 << precision
	start := len(b)
	b = slices.Grow(b, m)[:start+m]
	regs := b[start:]
	clear(regs)
	idx := 0
	for i := n; i < len(p); {
		d, w := binary.Uvarint(p[i:])
		idx += int(d)
		regs[idx] = p[i+w]
		i += w + 1
	}
	return b
}
