// Package frequency implements the "Finding Frequent Elements" row of the
// tutorial's Table 1 — the trending-hashtags problem — with the standard
// algorithm families the survey cites:
//
//   - counter-based: Misra–Gries Frequent, Lossy Counting, Sticky Sampling,
//     Space-Saving (Metwally et al.),
//   - sketch-based: Count-Min (Cormode–Muthukrishnan), with optional
//     conservative update, and Count Sketch (Charikar–Chen–Farach-Colton),
//   - structured: hierarchical heavy hitters over dotted keys,
//   - windowed: sliding-window top-k.
//
// Counter algorithms bound deterministic error by stream length; sketches
// bound probabilistic error by stream L1/L2 mass. The T1.7 experiment
// regenerates the recall/precision/space comparison across all of them.
package frequency

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hashutil"
)

// CountMin is the Count-Min sketch: a depth x width counter matrix where
// each row hashes items independently; a point query returns the minimum
// across rows, overestimating the true count by at most eps*N with
// probability 1-delta for width=e/eps, depth=ln(1/delta).
//
// A sketch that has absorbed little holds mostly zeros, so it has a
// second representation holding only the non-zero cells, sorted: a sketch
// from NewSparseCountMin starts in it and turns dense by itself once the
// entries stop fitting (see sparseFits), and Compact makes such a copy
// of a dense sketch. Every method answers identically in either form.
type CountMin struct {
	width        int
	depth        int
	counts       [][]uint64 // dense form: depth rows of width counters; nil while sparse
	sparse       []cmCell   // sparse form: the non-zero counters, ascending by cell
	fam          hashutil.Family
	n            uint64
	conservative bool
}

// cmCell is one non-zero counter of the sparse form; cell is the
// counter's row-major position, row*width + column.
type cmCell struct {
	cell  uint64
	count uint64
}

// cmCellBytes is the footprint of one sparse entry.
const cmCellBytes = 16

// sparseFits reports whether n non-zero counters are worth holding
// sparse: the entries must take less than half the counter matrix.
func (cm *CountMin) sparseFits(n int) bool { return 2*cmCellBytes*n < 8*cm.width*cm.depth }

// NewCountMin returns a sketch with the given width and depth.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	cm := new(CountMin)
	if err := cm.Init(width, depth, seed, false); err != nil {
		return nil, err
	}
	return cm, nil
}

// NewSparseCountMin returns an empty sketch with the given width and
// depth in the sparse form: it allocates no counter matrix until its
// non-zero counters stop fitting the sparse entries, then converts
// itself to dense in place.
func NewSparseCountMin(width, depth int, seed uint64) (*CountMin, error) {
	cm := new(CountMin)
	if err := cm.Init(width, depth, seed, true); err != nil {
		return nil, err
	}
	return cm, nil
}

// Init makes cm an empty sketch with the given width and depth, in the
// sparse form when sparse is set: NewCountMin or NewSparseCountMin in
// place, for a holder of the sketch by value.
func (cm *CountMin) Init(width, depth int, seed uint64, sparse bool) error {
	if width <= 0 {
		return core.Errf("CountMin", "width", "%d must be positive", width)
	}
	if depth <= 0 {
		return core.Errf("CountMin", "depth", "%d must be positive", depth)
	}
	*cm = CountMin{width: width, depth: depth, fam: hashutil.NewFamily(seed)}
	if !sparse {
		cm.counts = cm.newRows()
	}
	return nil
}

func (cm *CountMin) newRows() [][]uint64 {
	counts := make([][]uint64, cm.depth)
	for i := range counts {
		counts[i] = make([]uint64, cm.width)
	}
	return counts
}

// Compact fills dst with a sparse-form copy of a dense sketch when that
// copy takes less than half the counter matrix, and reports true; it
// reports false and leaves dst alone otherwise — for a sketch that is
// already sparse, too. The copy shares nothing with cm, so a holder of
// history can keep the copy and reuse cm. dst may be a field of the
// holder's own struct, so the copy costs one allocation: its entries.
func (cm *CountMin) Compact(dst *CountMin) bool {
	if cm.counts == nil {
		return false
	}
	// Count first, row by row, so a busy sketch is turned away without
	// allocating.
	n := 0
	for _, row := range cm.counts {
		for _, c := range row {
			n += int((c | -c) >> 63) // 1 when c != 0, branch-free
		}
		if !cm.sparseFits(n) {
			return false
		}
	}
	sparse := make([]cmCell, 0, n)
	for d, row := range cm.counts {
		for w, c := range row {
			if c != 0 {
				sparse = append(sparse, cmCell{cell: uint64(d*cm.width + w), count: c})
			}
		}
	}
	*dst = CountMin{width: cm.width, depth: cm.depth, fam: cm.fam, n: cm.n, conservative: cm.conservative, sparse: sparse}
	return true
}

// rows returns the counter matrix: the sketch's own in the dense form, a
// temporary one built from the entries in the sparse form. cm is only
// read.
func (cm *CountMin) rows() [][]uint64 {
	if cm.counts != nil {
		return cm.counts
	}
	counts := cm.newRows()
	for _, e := range cm.sparse {
		counts[e.cell/uint64(cm.width)][e.cell%uint64(cm.width)] = e.count
	}
	return counts
}

// expand converts the sparse form to the dense one in place.
func (cm *CountMin) expand() {
	if cm.counts == nil {
		cm.counts, cm.sparse = cm.rows(), nil
	}
}

// IsSparse reports whether the sketch is in its sparse representation.
func (cm *CountMin) IsSparse() bool { return cm.counts == nil }

// findCell returns the position of cell in the sparse entries, or where
// it would be inserted, and whether it is there.
func (cm *CountMin) findCell(cell uint64) (int, bool) {
	return slices.BinarySearchFunc(cm.sparse, cell, func(e cmCell, c uint64) int { return cmp.Compare(e.cell, c) })
}

// addSparse is the sparse form's counter update: add count to cell,
// inserting it in order if it was zero, and convert to the dense form
// when the entries stop fitting.
func (cm *CountMin) addSparse(cell, count uint64) {
	i, ok := cm.findCell(cell)
	if ok {
		cm.sparse[i].count += count
		return
	}
	cm.sparse = slices.Insert(cm.sparse, i, cmCell{cell: cell, count: count})
	if !cm.sparseFits(len(cm.sparse)) {
		cm.expand()
	}
}

// NewCountMinWithError returns a sketch sized for additive error eps*N with
// failure probability delta (width = ceil(e/eps), depth = ceil(ln(1/delta))).
func NewCountMinWithError(eps, delta float64, seed uint64) (*CountMin, error) {
	if eps <= 0 || eps >= 1 {
		return nil, core.Errf("CountMin", "eps", "%v not in (0,1)", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, core.Errf("CountMin", "delta", "%v not in (0,1)", delta)
	}
	width := int(2.718281828/eps) + 1
	depth := 1
	for p := 1.0; p > delta; p /= 2.718281828 {
		depth++
	}
	return NewCountMin(width, depth, seed)
}

// SetConservative enables conservative update: an increment only raises the
// cells that currently equal the item's point estimate, tightening the
// overestimate at the cost of losing mergeability. The T1.7 ablation
// measures the accuracy gain.
func (cm *CountMin) SetConservative(on bool) { cm.conservative = on }

// Update adds count occurrences of the item.
func (cm *CountMin) Update(item []byte, count uint64) {
	h1, h2 := hashutil.Sum128(item, cm.fam.Seed(0))
	cm.updateHashed(h1, h2, count)
}

// UpdateString adds count occurrences of a string item.
func (cm *CountMin) UpdateString(item string, count uint64) {
	cm.Update([]byte(item), count)
}

func (cm *CountMin) updateHashed(h1, h2 uint64, count uint64) {
	if count == 0 {
		return // a sparse entry is never zero; the dense form adds nothing
	}
	cm.n += count
	if !cm.conservative {
		for d := 0; d < cm.depth; d++ {
			idx := hashutil.DoubleHash(h1, h2, uint(d)) % uint64(cm.width)
			if cm.counts != nil {
				cm.counts[d][idx] += count
			} else {
				cm.addSparse(uint64(d*cm.width)+idx, count)
			}
		}
		return
	}
	// Conservative update: new value is max(cell, estimate+count). It
	// reads every row's cell before it writes any, on the dense form.
	cm.expand()
	est := ^uint64(0)
	idxs := make([]uint64, cm.depth)
	for d := 0; d < cm.depth; d++ {
		idxs[d] = hashutil.DoubleHash(h1, h2, uint(d)) % uint64(cm.width)
		if v := cm.counts[d][idxs[d]]; v < est {
			est = v
		}
	}
	target := est + count
	for d := 0; d < cm.depth; d++ {
		if cm.counts[d][idxs[d]] < target {
			cm.counts[d][idxs[d]] = target
		}
	}
}

// Estimate returns the point estimate for item. It never undercounts.
func (cm *CountMin) Estimate(item []byte) uint64 {
	h1, h2 := hashutil.Sum128(item, cm.fam.Seed(0))
	est := ^uint64(0)
	for d := 0; d < cm.depth; d++ {
		idx := hashutil.DoubleHash(h1, h2, uint(d)) % uint64(cm.width)
		var v uint64
		if cm.counts != nil {
			v = cm.counts[d][idx]
		} else if i, ok := cm.findCell(uint64(d*cm.width) + idx); ok {
			v = cm.sparse[i].count
		}
		if v < est {
			est = v
		}
	}
	return est
}

// EstimateString returns the point estimate for a string item.
func (cm *CountMin) EstimateString(item string) uint64 { return cm.Estimate([]byte(item)) }

// Items returns the total count mass absorbed.
func (cm *CountMin) Items() uint64 { return cm.n }

// Reset empties the sketch in its current form, reusing the counter
// matrix, so epoch- or bucket-scoped callers can recycle sketches instead
// of reallocating width x depth counters.
func (cm *CountMin) Reset() {
	for i := range cm.counts {
		clear(cm.counts[i])
	}
	cm.sparse = cm.sparse[:0]
	cm.n = 0
}

// Bytes returns the footprint of the form the sketch is in: the counter
// matrix, or the sparse entries' allocation — its capacity, which updates
// grow by append, not just the entries in use.
func (cm *CountMin) Bytes() int {
	if cm.counts == nil {
		return cap(cm.sparse)*cmCellBytes + 32
	}
	return cm.width*cm.depth*8 + 32
}

// Merge adds another sketch cell-wise. Conservative sketches refuse to
// merge: cell-wise addition would overstate their tightened counts. A
// sparse other costs its non-zero cells, not width x depth, and a sparse
// receiver stays sparse while the sum fits; other is only read,
// whichever form it is in.
func (cm *CountMin) Merge(other *CountMin) error {
	if other == nil || cm.width != other.width || cm.depth != other.depth || cm.fam != other.fam {
		return core.ErrIncompatible
	}
	if cm.conservative || other.conservative {
		return core.ErrIncompatible
	}
	if other.counts == nil {
		d, base := 0, uint64(0) // row of the current entry and its first cell
		for _, e := range other.sparse {
			if cm.counts == nil {
				cm.addSparse(e.cell, e.count)
				continue
			}
			for e.cell >= base+uint64(cm.width) {
				d, base = d+1, base+uint64(cm.width)
			}
			cm.counts[d][e.cell-base] += e.count
		}
	} else {
		cm.expand()
		for d := range cm.counts {
			for w := range cm.counts[d] {
				cm.counts[d][w] += other.counts[d][w]
			}
		}
	}
	cm.n += other.n
	return nil
}

// InnerProduct estimates the inner product of the frequency vectors
// summarized by two sketches (join-size estimation), as min over rows of
// the row dot products.
func (cm *CountMin) InnerProduct(other *CountMin) (uint64, error) {
	if other == nil || cm.width != other.width || cm.depth != other.depth || cm.fam != other.fam {
		return 0, core.ErrIncompatible
	}
	a, b := cm.rows(), other.rows()
	best := ^uint64(0)
	for d := 0; d < cm.depth; d++ {
		var dot uint64
		for w := 0; w < cm.width; w++ {
			dot += a[d][w] * b[d][w]
		}
		if dot < best {
			best = dot
		}
	}
	return best, nil
}

// CountSketch is the Charikar–Chen–Farach-Colton sketch: like Count-Min but
// each cell is updated with a 4-wise independent random sign and the point
// query takes the median of the signed row estimates. Errors are two-sided
// but scale with the stream's L2 norm rather than L1, so it beats Count-Min
// on low-skew streams.
type CountSketch struct {
	width  int
	depth  int
	counts [][]int64
	tabs   []*hashutil.Tabulation // per-row 4-universal hash for index+sign
	n      uint64
}

// NewCountSketch returns a Count Sketch with the given width and depth.
func NewCountSketch(width, depth int, seed uint64) (*CountSketch, error) {
	if width <= 0 {
		return nil, core.Errf("CountSketch", "width", "%d must be positive", width)
	}
	if depth <= 0 {
		return nil, core.Errf("CountSketch", "depth", "%d must be positive", depth)
	}
	counts := make([][]int64, depth)
	tabs := make([]*hashutil.Tabulation, depth)
	fam := hashutil.NewFamily(seed)
	for i := range counts {
		counts[i] = make([]int64, width)
		tabs[i] = hashutil.NewTabulation(fam.Seed(i))
	}
	return &CountSketch{width: width, depth: depth, counts: counts, tabs: tabs}, nil
}

// Update adds count occurrences of the item (count may be negative for
// deletions; Count Sketch supports the turnstile model).
func (cs *CountSketch) Update(item []byte, count int64) {
	key := hashutil.Sum64(item, 0x5eed)
	cs.UpdateKey(key, count)
}

// UpdateKey adds count occurrences of a pre-hashed 64-bit key.
func (cs *CountSketch) UpdateKey(key uint64, count int64) {
	if count > 0 {
		cs.n += uint64(count)
	}
	for d := 0; d < cs.depth; d++ {
		h := cs.tabs[d].Hash(key)
		idx := (h >> 1) % uint64(cs.width)
		sign := int64(1)
		if h&1 == 1 {
			sign = -1
		}
		cs.counts[d][idx] += sign * count
	}
}

// Estimate returns the (two-sided) point estimate for item.
func (cs *CountSketch) Estimate(item []byte) int64 {
	return cs.EstimateKey(hashutil.Sum64(item, 0x5eed))
}

// EstimateKey returns the point estimate for a pre-hashed key.
func (cs *CountSketch) EstimateKey(key uint64) int64 {
	ests := make([]int64, cs.depth)
	for d := 0; d < cs.depth; d++ {
		h := cs.tabs[d].Hash(key)
		idx := (h >> 1) % uint64(cs.width)
		sign := int64(1)
		if h&1 == 1 {
			sign = -1
		}
		ests[d] = sign * cs.counts[d][idx]
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i] < ests[j] })
	mid := cs.depth / 2
	if cs.depth%2 == 1 {
		return ests[mid]
	}
	return (ests[mid-1] + ests[mid]) / 2
}

// Items returns the positive count mass absorbed.
func (cs *CountSketch) Items() uint64 { return cs.n }

// Bytes returns the counter-matrix footprint (tabulation tables excluded:
// they are shared constants reconstructible from the seed).
func (cs *CountSketch) Bytes() int { return cs.width*cs.depth*8 + 32 }

// A payload is the sparse form as bytes, for a holder that keeps sealed
// sketches in one byte arena (the sketch store's sealed history) rather
// than as objects. Width, depth and seed are not in it: the holder knows
// them. Layout:
//
//	uvarint n (the count mass), then per non-zero counter, in ascending
//	cell order, uvarint(cell - previous cell) and uvarint(count)
//
// where the first cell is less 0. A bucket's cells are a few columns
// apart and its counts small, so most take two or three bytes where the
// sparse form takes sixteen.

// AppendPayload appends cm's payload to b and reports true when cm is in
// the sparse form and not conservative (a payload merges by addition,
// which a conservative sketch refuses); otherwise it appends nothing and
// reports false.
func (cm *CountMin) AppendPayload(b []byte) ([]byte, bool) {
	if cm.counts != nil || cm.conservative {
		return b, false
	}
	b = binary.AppendUvarint(b, cm.n)
	prev := uint64(0)
	for _, e := range cm.sparse {
		b = binary.AppendUvarint(b, e.cell-prev)
		b = binary.AppendUvarint(b, e.count)
		prev = e.cell
	}
	return b, true
}

// MergePayload adds the sketch that p, from AppendPayload of a sketch
// with cm's width, depth and seed, encodes into cm, exactly as Merge adds
// that sketch, in whichever form cm is in. It allocates only where Merge
// would; a conservative cm refuses, as Merge does.
func (cm *CountMin) MergePayload(p []byte) error {
	if cm.conservative {
		return core.ErrIncompatible
	}
	n, i := binary.Uvarint(p)
	d, base, cell := 0, uint64(0), uint64(0) // row of the current cell and its first cell
	for i < len(p) {
		// Deltas under 2^14 and counts under 2^7, the common case, are
		// read without the decoder; a count follows every delta.
		delta := uint64(p[i])
		switch {
		case delta < 0x80:
			i++
		case p[i+1] < 0x80:
			delta, i = delta&0x7f|uint64(p[i+1])<<7, i+2
		default:
			delta, i = payloadUvarint(p, i)
		}
		count := uint64(p[i])
		if count < 0x80 {
			i++
		} else {
			count, i = payloadUvarint(p, i)
		}
		cell += delta
		if cm.counts == nil {
			cm.addSparse(cell, count)
			continue
		}
		for cell >= base+uint64(cm.width) {
			d, base = d+1, base+uint64(cm.width)
		}
		cm.counts[d][cell-base] += count
	}
	cm.n += n
	return nil
}

// AppendCountMinPayloadBinary appends to b the MarshalBinary encoding of
// the width x depth sketch of the given seed that p, from AppendPayload,
// encodes: the bytes the sketch itself would marshal to.
func AppendCountMinPayloadBinary(b []byte, width, depth int, seed uint64, p []byte) []byte {
	n, i := binary.Uvarint(p)
	start, size := len(b), cmHeaderSize+width*depth*8
	b = slices.Grow(b, size)[:start+size]
	out := b[start:]
	binary.LittleEndian.PutUint32(out[0:], cmMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(width))
	binary.LittleEndian.PutUint32(out[8:], uint32(depth))
	out[12] = 0
	binary.LittleEndian.PutUint64(out[13:], n)
	binary.LittleEndian.PutUint64(out[21:], hashutil.NewFamily(seed).Seed(0))
	body := out[cmHeaderSize:]
	clear(body)
	cell := uint64(0)
	for i < len(p) {
		var delta, count uint64
		delta, i = payloadUvarint(p, i)
		count, i = payloadUvarint(p, i)
		cell += delta
		binary.LittleEndian.PutUint64(body[cell*8:], count)
	}
	return b
}

// payloadUvarint decodes the uvarint at p[i:] and returns it with the
// position after it.
func payloadUvarint(p []byte, i int) (uint64, int) {
	v, w := binary.Uvarint(p[i:])
	return v, i + w
}
