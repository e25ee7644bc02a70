// serialize.go gives the q-digest a binary codec for the store's
// checkpoint path. The digest's nodes are held in ascending id order with
// their counts, so the layout is those nodes, copied out in that order,
// after the configuration (deterministic bytes for equal digests):
//
//	[magic u32][logU u8][k u64][n u64][nodes u32]
//	[nodes x: id u64, count u64]
//
// Ids are strictly ascending, counts are non-zero and sum to n.
package quantile

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/core"
)

const qdMagic = 0x51444947 // "QDIG"

const qdHeaderSize = 4 + 1 + 8 + 8 + 4

// MarshalBinary encodes the digest.
func (q *QDigest) MarshalBinary() ([]byte, error) {
	s := getScratch()
	ids, cnts := q.view(s)
	out := make([]byte, qdHeaderSize+len(ids)*16)
	binary.LittleEndian.PutUint32(out, qdMagic)
	out[4] = q.logU
	binary.LittleEndian.PutUint64(out[5:], q.k)
	binary.LittleEndian.PutUint64(out[13:], q.n)
	binary.LittleEndian.PutUint32(out[21:], uint32(len(ids)))
	pos := qdHeaderSize
	for i, id := range ids {
		binary.LittleEndian.PutUint64(out[pos:], id)
		binary.LittleEndian.PutUint64(out[pos+8:], cnts[i])
		pos += 16
	}
	scratchPool.Put(s)
	return out, nil
}

// UnmarshalBinary decodes into the receiver, replacing its contents. The
// receiver's universe (logU) and compression factor (k) must match the
// encoder's: merging digests over different universes is already
// rejected, and decode holds the same line with ErrIncompatible. A body
// whose header passes those checks but which breaks the layout's rules is
// ErrCorrupt and leaves the receiver empty.
func (q *QDigest) UnmarshalBinary(data []byte) error {
	if len(data) < qdHeaderSize || binary.LittleEndian.Uint32(data[0:]) != qdMagic {
		return core.ErrCorrupt
	}
	if data[4] != q.logU || binary.LittleEndian.Uint64(data[5:]) != q.k {
		return core.ErrIncompatible
	}
	q.Reset()
	n := binary.LittleEndian.Uint64(data[13:])
	nodes := int(binary.LittleEndian.Uint32(data[21:]))
	if len(data) != qdHeaderSize+nodes*16 {
		return core.ErrCorrupt
	}
	ids, cnts := q.ids, q.cnts
	if cap(ids) < nodes {
		ids = make([]uint64, 0, nodes)
	}
	if cap(cnts) < nodes {
		cnts = make([]uint64, 0, nodes)
	}
	maxID := (uint64(1) << (q.logU + 1)) - 1
	var sum, carry, prev uint64
	for pos := qdHeaderSize; pos < len(data); pos += 16 {
		id := binary.LittleEndian.Uint64(data[pos:])
		c := binary.LittleEndian.Uint64(data[pos+8:])
		if id <= prev || id > maxID || c == 0 {
			return core.ErrCorrupt
		}
		if sum, carry = bits.Add64(sum, c, 0); carry != 0 {
			return core.ErrCorrupt
		}
		ids, cnts = append(ids, id), append(cnts, c)
		prev = id
	}
	if sum != n {
		return core.ErrCorrupt
	}
	q.ids, q.cnts, q.n = ids, cnts, n
	return nil
}
