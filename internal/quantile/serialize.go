// serialize.go gives the q-digest a binary codec for the store's
// checkpoint path. The digest is a plain (node id -> count) map plus its
// configuration, so the layout is the map written in ascending id order
// (deterministic bytes for equal digests):
//
//	[magic u32][logU u8][k u64][n u64][nodes u32]
//	[nodes x: id u64, count u64]
package quantile

import (
	"encoding/binary"
	"slices"

	"repro/internal/core"
)

const qdMagic = 0x51444947 // "QDIG"

const qdHeaderSize = 4 + 1 + 8 + 8 + 4

// MarshalBinary encodes the digest.
func (q *QDigest) MarshalBinary() ([]byte, error) {
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

// UnmarshalBinary decodes into the receiver, replacing its contents. The
// receiver's universe (logU) and compression factor (k) must match the
// encoder's: merging digests over different universes is already
// rejected, and decode holds the same line with ErrIncompatible.
func (q *QDigest) UnmarshalBinary(data []byte) error {
	if len(data) < qdHeaderSize || binary.LittleEndian.Uint32(data[0:]) != qdMagic {
		return core.ErrCorrupt
	}
	if data[4] != q.logU || binary.LittleEndian.Uint64(data[5:]) != q.k {
		return core.ErrIncompatible
	}
	n := binary.LittleEndian.Uint64(data[13:])
	nodes := int(binary.LittleEndian.Uint32(data[21:]))
	if len(data) != qdHeaderSize+nodes*16 {
		return core.ErrCorrupt
	}
	q.Reset()
	q.n = n
	pos := qdHeaderSize
	maxID := (uint64(1) << (q.logU + 1)) - 1
	for i := 0; i < nodes; i++ {
		id := binary.LittleEndian.Uint64(data[pos:])
		c := binary.LittleEndian.Uint64(data[pos+8:])
		pos += 16
		if id < 1 || id > maxID || c == 0 {
			return core.ErrCorrupt
		}
		q.counts[id] = c
	}
	return nil
}
