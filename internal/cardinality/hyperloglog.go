// Package cardinality implements the distinct-counting sketches surveyed in
// the tutorial's "Estimating Cardinality" row of Table 1: Linear Counting,
// Flajolet–Martin probabilistic counting (PCSA), Durand–Flajolet LogLog,
// HyperLogLog (with a sparse small-cardinality form following HLL++), KMV
// bottom-k estimation, and a sliding-window HyperLogLog.
//
// All sketches hash items themselves (callers pass raw bytes or uint64
// keys), are mergeable where the underlying mathematics permits, and report
// their memory footprint so experiments can plot error against bytes — the
// axis on which the paper's site-audience-analysis application compares
// them.
package cardinality

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/hashutil"
)

// HyperLogLog estimates the number of distinct items in a stream using
// Flajolet–Fuss–Gandouet–Meunier's estimator over 2^precision registers.
// The standard error is about 1.04/sqrt(2^precision).
//
// Small cardinalities use linear counting over the same registers (the
// standard bias correction), which is the practically important regime for
// per-key audience counters; this mirrors the "HyperLogLog in practice"
// engineering the survey cites. The same regime has a second
// representation, the sparse form (sparse.go): only the occupied
// registers, sorted. Every method answers identically in either form.
type HyperLogLog struct {
	precision uint8
	registers []uint8  // dense form: one rank per register; nil while sparse
	sparse    []uint32 // sparse form: occupied registers as index<<8|rank, ascending
	seed      uint64
	items     uint64
}

// NewHyperLogLog returns an HLL with 2^precision registers.
// Precision must be in [4, 18].
func NewHyperLogLog(precision uint8, seed uint64) (*HyperLogLog, error) {
	if precision < 4 || precision > 18 {
		return nil, core.Errf("HyperLogLog", "precision", "%d not in [4,18]", precision)
	}
	return &HyperLogLog{
		precision: precision,
		registers: make([]uint8, 1<<precision),
		seed:      seed,
	}, nil
}

// Update adds an item.
func (h *HyperLogLog) Update(item []byte) {
	h.UpdateHash(hashutil.Sum64(item, h.seed))
}

// UpdateString adds a string item.
func (h *HyperLogLog) UpdateString(s string) {
	h.UpdateHash(hashutil.Sum64String(s, h.seed))
}

// UpdateUint64 adds an integer item.
func (h *HyperLogLog) UpdateUint64(x uint64) {
	h.UpdateHash(hashutil.Sum64Uint64(x, h.seed))
}

// UpdateHash adds a pre-hashed item. The top precision bits select the
// register; the rank of the remaining bits' leading zeros updates it.
func (h *HyperLogLog) UpdateHash(hv uint64) {
	h.items++
	idx := hv >> (64 - h.precision)
	rest := hv<<h.precision | 1<<(h.precision-1) // guard bit bounds the rank
	h.raise(uint32(idx), uint8(bits.LeadingZeros64(rest))+1)
}

// raise lifts register idx to at least rank, in whichever form h is in.
func (h *HyperLogLog) raise(idx uint32, rank uint8) {
	if h.registers == nil {
		h.raiseSparse(idx, rank)
	} else if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// alpha is the bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Estimate returns the estimated number of distinct items. It is computed
// from the histogram of register ranks alone, so the dense and the sparse
// form of the same registers return the same float64.
func (h *HyperLogLog) Estimate() float64 {
	var hist [256]int // a rank is one byte
	if h.registers != nil {
		// Eight registers at a time: the merged result of a few small
		// buckets is mostly zero words, and counting those one by one
		// would chain every increment of hist[0] on the one before.
		for base := 0; base < len(h.registers); base += 8 {
			if binary.LittleEndian.Uint64(h.registers[base:]) == 0 {
				hist[0] += 8
				continue
			}
			for _, r := range h.registers[base : base+8] {
				hist[r]++
			}
		}
	} else {
		for _, e := range h.sparse {
			hist[uint8(e)]++
		}
		hist[0] = h.m() - len(h.sparse)
	}
	m := float64(h.m())
	sum := 0.0
	for r, n := range hist {
		if n > 0 {
			sum += math.Ldexp(float64(n), -r)
		}
	}
	zeros := hist[0]
	raw := alpha(h.m()) * m * m / sum
	// Small-range correction: linear counting when many registers are empty.
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// Items returns the number of updates absorbed.
func (h *HyperLogLog) Items() uint64 { return h.items }

// Precision returns log2 of the register count.
func (h *HyperLogLog) Precision() uint8 { return h.precision }

// Seed returns the hash seed; sketches merge only under equal seeds.
func (h *HyperLogLog) Seed() uint64 { return h.seed }

// Reset empties the sketch in its current form, reusing the register
// array. Zeroing 2^precision bytes in place is far cheaper than
// allocating (and later garbage-collecting) a replacement, which is what
// makes recycling HLL buckets worthwhile for high-churn callers like the
// sketch store's bucket rings.
func (h *HyperLogLog) Reset() {
	clear(h.registers)
	h.sparse = h.sparse[:0]
	h.items = 0
}

// m is the register count.
func (h *HyperLogLog) m() int { return 1 << h.precision }

// Bytes returns the footprint of the form the sketch is in: the register
// array, or the sparse entries.
func (h *HyperLogLog) Bytes() int { return len(h.registers) + sparseEntryBytes*len(h.sparse) + 16 }

// Merge folds another HLL into h. Both must share precision and seed;
// merging is register-wise max and is exactly equivalent to having streamed
// the union. A sparse other costs its occupied registers, not 2^precision;
// other is only read, whichever form it is in.
func (h *HyperLogLog) Merge(other *HyperLogLog) error {
	if other == nil || h.precision != other.precision || h.seed != other.seed {
		return core.ErrIncompatible
	}
	if other.registers == nil {
		for _, e := range other.sparse {
			h.raise(e>>8, uint8(e))
		}
	} else {
		if h.registers == nil {
			h.expand()
		}
		for i, r := range other.registers {
			if r > h.registers[i] {
				h.registers[i] = r
			}
		}
	}
	h.items += other.items
	return nil
}

// MarshalBinary encodes the sketch: [precision][seed][items][registers...].
// The layout is the dense one in either form, so equal sketches marshal
// to equal bytes however they are held.
func (h *HyperLogLog) MarshalBinary() ([]byte, error) {
	return h.AppendBinary(make([]byte, 0, 1+8+8+h.m()))
}

// AppendBinary appends the MarshalBinary encoding to b.
func (h *HyperLogLog) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, h.precision)
	b = binary.LittleEndian.AppendUint64(b, h.seed)
	b = binary.LittleEndian.AppendUint64(b, h.items)
	if h.registers != nil {
		return append(b, h.registers...), nil
	}
	n := len(b)
	b = slices.Grow(b, h.m())[:n+h.m()]
	regs := b[n:]
	clear(regs)
	for _, e := range h.sparse {
		regs[e>>8] = uint8(e)
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch previously encoded with MarshalBinary
// into the dense form, reusing the receiver's register array when it
// already has the encoded size.
func (h *HyperLogLog) UnmarshalBinary(data []byte) error {
	if len(data) < 17 {
		return core.ErrCorrupt
	}
	p := data[0]
	if p < 4 || p > 18 || len(data) != 17+(1<<p) {
		return core.ErrCorrupt
	}
	h.precision = p
	h.seed = binary.LittleEndian.Uint64(data[1:])
	h.items = binary.LittleEndian.Uint64(data[9:])
	if len(h.registers) != 1<<p {
		h.registers = make([]uint8, 1<<p)
	}
	h.sparse = nil
	copy(h.registers, data[17:])
	return nil
}

// StdError returns the theoretical relative standard error 1.04/sqrt(m).
func (h *HyperLogLog) StdError() float64 {
	return 1.04 / math.Sqrt(float64(h.m()))
}
