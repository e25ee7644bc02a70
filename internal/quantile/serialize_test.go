package quantile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
)

// A zero-weight update changes nothing, so it cannot leave the zero-count
// leaf that UnmarshalBinary rejects.
func TestQDigestZeroWeightRoundTrip(t *testing.T) {
	q, _ := NewQDigest(8, 4)
	q.Update(5, 0)
	q.Update(7, 1)
	b, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := NewQDigest(8, 4)
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Count() != 1 || back.Nodes() != 1 || back.Query(0.5) != 7 {
		t.Fatalf("round trip holds count %d, %d nodes, median %d", back.Count(), back.Nodes(), back.Query(0.5))
	}
}

// qdBody encodes a digest body by hand: header fields as given, then the
// (id, count) pairs, in the order given.
func qdBody(logU uint8, k, n uint64, pairs ...uint64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, qdMagic)
	out = append(out, logU)
	out = binary.LittleEndian.AppendUint64(out, k)
	out = binary.LittleEndian.AppendUint64(out, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(pairs)/2))
	for _, v := range pairs {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// Decode accepts only what MarshalBinary can write: strictly ascending
// ids inside the tree, non-zero counts summing to n.
func TestQDigestUnmarshalRejects(t *testing.T) {
	const logU, k = 8, 4
	for name, tc := range map[string]struct {
		body []byte
		want error
	}{
		"valid":           {qdBody(logU, k, 5, 256, 2, 300, 3), nil},
		"empty":           {qdBody(logU, k, 0), nil},
		"duplicate id":    {qdBody(logU, k, 5, 300, 2, 300, 3), core.ErrCorrupt},
		"descending ids":  {qdBody(logU, k, 5, 300, 2, 256, 3), core.ErrCorrupt},
		"id zero":         {qdBody(logU, k, 1, 0, 1), core.ErrCorrupt},
		"id past leaves":  {qdBody(logU, k, 1, 512, 1), core.ErrCorrupt},
		"zero count":      {qdBody(logU, k, 0, 256, 0), core.ErrCorrupt},
		"n above counts":  {qdBody(logU, k, 6, 256, 2, 300, 3), core.ErrCorrupt},
		"n below counts":  {qdBody(logU, k, 4, 256, 2, 300, 3), core.ErrCorrupt},
		"counts overflow": {qdBody(logU, k, 1, 256, 1<<63, 300, 1<<63|1), core.ErrCorrupt},
		"truncated":       {qdBody(logU, k, 5, 256, 2, 300, 3)[:40], core.ErrCorrupt},
		"other universe":  {qdBody(logU+1, k, 0), core.ErrIncompatible},
	} {
		q, _ := NewQDigest(logU, k)
		q.Update(1, 1)
		err := q.UnmarshalBinary(tc.body)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", name, err, tc.want)
		}
		if err == nil {
			if got, _ := q.MarshalBinary(); !bytes.Equal(got, tc.body) {
				t.Fatalf("%s: re-marshals differently", name)
			}
		} else if errors.Is(err, core.ErrCorrupt) && (q.Count() != 0 || q.Nodes() != 0) {
			t.Fatalf("%s: rejected body left count %d, %d nodes", name, q.Count(), q.Nodes())
		}
	}
}

// FuzzQDigestUnmarshal feeds arbitrary bytes to the decoder. It must never
// panic, allocate more than the input's size warrants, or accept bytes
// that MarshalBinary would not write back exactly, from the digest or
// from its packed copy; an accepted digest must answer queries and merge.
func FuzzQDigestUnmarshal(f *testing.F) {
	q, _ := NewQDigest(8, 4)
	for v := uint64(0); v < 200; v += 3 {
		q.Update(v, 1+v%5)
	}
	valid, _ := q.MarshalBinary()
	f.Add(valid)
	f.Add(qdBody(8, 4, 5, 300, 2, 300, 3))
	f.Add(qdBody(8, 4, 6, 256, 2, 300, 3))
	f.Add(qdBody(32, 512, 1, 1<<32, 1))
	f.Add(qdBody(8, 4, 0)[:qdHeaderSize-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode into a receiver of the body's own shape when it names a
		// valid one, so the node checks are reached.
		logU, k := uint8(8), uint64(4)
		if len(data) >= qdHeaderSize && data[4] >= 1 && data[4] <= 32 && binary.LittleEndian.Uint64(data[5:]) != 0 {
			logU, k = data[4], binary.LittleEndian.Uint64(data[5:])
		}
		q, err := NewQDigest(logU, k)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = q.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(2*len(data)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		got, _ := q.MarshalBinary()
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted bytes re-marshal differently")
		}
		if packed, _ := q.Compact().MarshalBinary(); !bytes.Equal(packed, data) {
			t.Fatalf("the packed copy of accepted bytes re-marshals differently")
		}
		out := make([]uint64, 3)
		q.QueryAll([]float64{0, 0.5, 1}, out)
		acc, _ := NewQDigest(logU, k)
		if err := acc.Merge(q); err != nil || acc.Count() != q.Count() {
			t.Fatalf("merging the decoded digest: %v, count %d of %d", err, acc.Count(), q.Count())
		}
	})
}
