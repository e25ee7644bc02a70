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
