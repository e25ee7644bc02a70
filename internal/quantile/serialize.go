// serialize.go gives the q-digest a binary codec for the store's
// checkpoint path. The digest's nodes are held in ascending id order with
// their counts, so the layout is those nodes, written out in that order,
// after the configuration (deterministic bytes for equal digests, whether
// they are held packed or not):
//
//	[magic u32][logU u8][k u64][n u64][nodes u32]
//	[nodes x: id u64, count u64]
//
// Ids are strictly ascending, counts are non-zero and sum to n.
package quantile

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/core"
)

const qdMagic = 0x51444947 // "QDIG"

const qdHeaderSize = 4 + 1 + 8 + 8 + 4

// MarshalBinary encodes the digest.
func (q *QDigest) MarshalBinary() ([]byte, error) { return q.AppendBinary(nil) }

// AppendBinary appends the MarshalBinary encoding to b.
func (q *QDigest) AppendBinary(b []byte) ([]byte, error) {
	s := getScratch()
	nodes := q.view(s)
	b = slices.Grow(b, qdHeaderSize+len(nodes)*16)
	b = binary.LittleEndian.AppendUint32(b, qdMagic)
	b = append(b, q.logU)
	b = binary.LittleEndian.AppendUint64(b, q.k)
	b = binary.LittleEndian.AppendUint64(b, q.n)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	for _, nd := range nodes {
		b = binary.LittleEndian.AppendUint64(b, nd.id)
		b = binary.LittleEndian.AppendUint64(b, nd.cnt)
	}
	scratchList.Put(s)
	return b, nil
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
	out := q.nodes
	if cap(out) < nodes {
		out = make([]node, 0, nodes)
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
		out = append(out, node{id, c})
		prev = id
	}
	if sum != n {
		return core.ErrCorrupt
	}
	q.nodes, q.n = out, n
	return nil
}
