package frequency

import (
	"encoding/binary"
	"slices"

	"repro/internal/core"
)

// Count-Min binary layout:
//
//	[magic u32][width u32][depth u32][flags u8][n u64][seedCheck u64]
//	[counters width*depth x u64]
//
// seedCheck is a probe value hashed under the sketch's family so decode
// can verify that an unmarshalled sketch is being rehydrated with the
// geometry (and hash family) it was built with; the family itself is
// reconstructed by the caller passing the same seed to NewCountMin.
const cmMagic = 0x434d534b // "CMSK"

const cmFlagConservative = 1

const cmHeaderSize = 4 + 4 + 4 + 1 + 8 + 8

// MarshalBinary encodes the sketch. The sketch's hash family is derived
// from its construction seed, which the caller must supply again on
// decode (UnmarshalInto), matching the mergeable-sketch deployment model:
// all parties share (seed, width, depth) as configuration. The layout is
// the dense one in either form, so equal sketches marshal to equal bytes
// however they are held.
func (cm *CountMin) MarshalBinary() ([]byte, error) {
	return cm.AppendBinary(make([]byte, 0, cmHeaderSize+cm.width*cm.depth*8))
}

// AppendBinary appends the MarshalBinary encoding to b.
func (cm *CountMin) AppendBinary(b []byte) ([]byte, error) {
	n, size := len(b), cmHeaderSize+cm.width*cm.depth*8
	b = slices.Grow(b, size)[:n+size]
	out := b[n:]
	binary.LittleEndian.PutUint32(out[0:], cmMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(cm.width))
	binary.LittleEndian.PutUint32(out[8:], uint32(cm.depth))
	out[12] = 0
	if cm.conservative {
		out[12] = cmFlagConservative
	}
	binary.LittleEndian.PutUint64(out[13:], cm.n)
	binary.LittleEndian.PutUint64(out[21:], cm.fam.Seed(0))
	if cm.counts == nil {
		clear(out[cmHeaderSize:])
	}
	pos := cmHeaderSize
	for _, row := range cm.counts {
		for _, c := range row {
			binary.LittleEndian.PutUint64(out[pos:], c)
			pos += 8
		}
	}
	for _, e := range cm.sparse {
		binary.LittleEndian.PutUint64(out[cmHeaderSize+e.cell*8:], e.count)
	}
	return b, nil
}

// cmGeometry validates the header of an encoded sketch and returns its
// width and depth. The body length is checked against width x depth in
// uint64 arithmetic — two 32-bit factors cannot wrap it — so the bytes
// present bound whatever a caller allocates for them. A flag bit the
// encoder never sets is corrupt: the decoder could not keep it, so the
// bytes would not re-marshal as they came.
func cmGeometry(data []byte) (width, depth int, err error) {
	if len(data) < cmHeaderSize || binary.LittleEndian.Uint32(data[0:]) != cmMagic || data[12]&^cmFlagConservative != 0 {
		return 0, 0, core.ErrCorrupt
	}
	w := uint64(binary.LittleEndian.Uint32(data[4:]))
	d := uint64(binary.LittleEndian.Uint32(data[8:]))
	body := uint64(len(data) - cmHeaderSize)
	if w == 0 || d == 0 || body%8 != 0 || w*d != body/8 {
		return 0, 0, core.ErrCorrupt
	}
	return int(w), int(d), nil
}

// UnmarshalBinary decodes into the receiver, which must already be
// constructed with the encoder's geometry and seed (the checkpoint
// restore path: the store rehydrates into a fresh bucket of the metric's
// Prototype, so the receiver carries the configuration and the bytes
// must match it). A width/depth mismatch or a different hash family is
// ErrIncompatible, not silently-wrong estimates. A dense receiver takes
// the counters into its matrix. A sparse one stays sparse when the
// non-zero counters fit (see sparseFits), appending them one by one from
// empty as updates grow the entries, so the decoded sketch has the
// footprint the encoded one had; otherwise it turns dense.
func (cm *CountMin) UnmarshalBinary(data []byte) error {
	width, depth, err := cmGeometry(data)
	if err != nil {
		return err
	}
	if width != cm.width || depth != cm.depth {
		return core.ErrIncompatible
	}
	if binary.LittleEndian.Uint64(data[21:]) != cm.fam.Seed(0) {
		return core.ErrIncompatible
	}
	cm.conservative = data[12]&cmFlagConservative != 0
	cm.n = binary.LittleEndian.Uint64(data[13:])
	body := data[cmHeaderSize:]
	if cm.counts == nil {
		nonzero := 0
		for pos := 0; pos < len(body) && cm.sparseFits(nonzero); pos += 8 {
			if binary.LittleEndian.Uint64(body[pos:]) != 0 {
				nonzero++
			}
		}
		cm.sparse = nil
		if cm.sparseFits(nonzero) {
			for pos := 0; pos < len(body); pos += 8 {
				if c := binary.LittleEndian.Uint64(body[pos:]); c != 0 {
					cm.sparse = append(cm.sparse, cmCell{cell: uint64(pos / 8), count: c})
				}
			}
			return nil
		}
		cm.counts = cm.newRows()
	}
	pos := cmHeaderSize
	for _, row := range cm.counts {
		for w := range row {
			row[w] = binary.LittleEndian.Uint64(data[pos:])
			pos += 8
		}
	}
	return nil
}

// UnmarshalCountMin decodes a sketch serialized by MarshalBinary. seed
// must be the construction seed of the encoder; a mismatch is detected
// and rejected, because a sketch queried under the wrong hash family
// silently returns garbage.
func UnmarshalCountMin(data []byte, seed uint64) (*CountMin, error) {
	width, depth, err := cmGeometry(data)
	if err != nil {
		return nil, err
	}
	cm, err := NewCountMin(width, depth, seed)
	if err != nil {
		return nil, err
	}
	if err := cm.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return cm, nil
}

// Space-Saving binary layout:
//
//	[magic u32][k u32][n u64][entries u32]
//	[entries x: count u64, err u64, itemLen u32, item bytes]
//
// Entries are written in ascending count order (ties by item) so decode
// can rebuild the Stream-Summary bucket list with the same O(1)-amortized
// tail-hint attach the Merge rebuild uses — and so equal summaries
// marshal to equal bytes.
const ssMagic = 0x53534156 // "SSAV"

// MarshalBinary encodes the summary. Space-Saving has no hash seeds, so
// unlike Count-Min the bytes are self-contained up to k.
func (ss *SpaceSaving) MarshalBinary() ([]byte, error) {
	return ss.AppendBinary(nil)
}

// AppendBinary appends the MarshalBinary encoding to b. A flat summary
// writes its counters as they lie, with no copy and no sort.
func (ss *SpaceSaving) AppendBinary(b []byte) ([]byte, error) {
	entries := ss.counters
	if !ss.flat {
		entries = ss.TopK(len(ss.elem))
	}
	// entries are in TopK order, descending; reversed on write
	size := 4 + 4 + 8 + 4
	for _, e := range entries {
		size += 8 + 8 + 4 + len(e.Item)
	}
	out := slices.Grow(b, size)
	out = binary.LittleEndian.AppendUint32(out, ssMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(ss.k))
	out = binary.LittleEndian.AppendUint64(out, ss.n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		out = binary.LittleEndian.AppendUint64(out, e.Count)
		out = binary.LittleEndian.AppendUint64(out, e.Err)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Item)))
		out = append(out, e.Item...)
	}
	return out, nil
}

// UnmarshalBinary decodes into the receiver, replacing its contents. The
// receiver's k must match the encoder's — a k mismatch would silently
// change the summary's error guarantee, so it is ErrIncompatible. Only
// what AppendBinary writes is accepted: entries ascend by count, ties by
// item descending, and the body ends with the last one. So do the
// invariants the merge guarantees rest on (see Merger) that bytes can
// break: no error above its count, and counts summing to at most n.
func (ss *SpaceSaving) UnmarshalBinary(data []byte) error {
	if len(data) < 20 || binary.LittleEndian.Uint32(data[0:]) != ssMagic {
		return core.ErrCorrupt
	}
	if int(binary.LittleEndian.Uint32(data[4:])) != ss.k {
		return core.ErrIncompatible
	}
	n := binary.LittleEndian.Uint64(data[8:])
	entries := int(binary.LittleEndian.Uint32(data[16:]))
	if entries > ss.k {
		return core.ErrCorrupt
	}
	ss.Reset()
	ss.n = n
	pos := 20
	var after *ssBucket
	var prevCount, sum uint64
	var prevItem string
	for i := 0; i < entries; i++ {
		if pos+20 > len(data) {
			return core.ErrCorrupt
		}
		count := binary.LittleEndian.Uint64(data[pos:])
		errBound := binary.LittleEndian.Uint64(data[pos+8:])
		itemLen := int(binary.LittleEndian.Uint32(data[pos+16:]))
		pos += 20
		if pos+itemLen > len(data) {
			return core.ErrCorrupt
		}
		item := string(data[pos : pos+itemLen])
		pos += itemLen
		if i > 0 && (count < prevCount || count == prevCount && item >= prevItem) {
			return core.ErrCorrupt // the order is part of the format
		}
		prevCount, prevItem = count, item
		if sum += count; errBound > count || sum < count || sum > n {
			return core.ErrCorrupt
		}
		if _, dup := ss.elem[item]; dup {
			return core.ErrCorrupt
		}
		node := &ssNode{item: item, err: errBound}
		ss.elem[item] = node
		hint := after
		if hint != nil && hint.count >= count {
			hint = hint.prev
		}
		ss.attach(node, count, hint)
		after = node.bucket
	}
	if pos != len(data) {
		return core.ErrCorrupt
	}
	return nil
}
