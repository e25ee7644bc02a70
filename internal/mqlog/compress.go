// compress.go gives a sealed log chunk its second form: its records
// deflated into one exact-size blob, the way Kafka keeps record batches
// compressed at rest. A partition offers each chunk it keeps to compress
// once, when the chunk falls two behind the tail (tailFor; recovery
// offers them once the retention limit is applied, compressHeldLocked);
// fetch reads a compressed chunk through an inflated copy
// (partition.rawLocked). The segment files never see this form: the
// write-through frames the raw tail bytes at append.
package mqlog

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// codec is the process's one chunk compressor, created on first use and
// shared by every partition under mu. A flate.Writer holds about 1.2 MB,
// so one per concurrent producer, or a pool of them, would be a sizable
// share of a log that compresses to a few MB. Inflation does not use it:
// a flate reader is cheap next to the chunk it fills, so each inflation
// makes its own and history reads never wait on a producer's
// compression. Lock order: a partition's lock, then mu.
var codec struct {
	mu    sync.Mutex
	w     *flate.Writer
	out   bytes.Buffer
	lens  []byte
	calls int // compress calls so far, kept or not
}

// compress replaces c's records by one deflate stream (flate.BestSpeed)
// of their uvarint lengths followed by their payload bytes, when that
// takes at most half of the raw bytes, end table included. Otherwise c
// stays raw. Callers hold the partition's lock.
func (c *chunk) compress() {
	codec.mu.Lock()
	defer codec.mu.Unlock()
	codec.calls++
	codec.lens = codec.lens[:0]
	var start uint32
	for _, end := range c.ends {
		codec.lens = binary.AppendUvarint(codec.lens, uint64(end-start))
		start = end
	}
	codec.out.Reset()
	if codec.w == nil {
		codec.w, _ = flate.NewWriter(&codec.out, flate.BestSpeed) // errors only on a bad level
	} else {
		codec.w.Reset(&codec.out)
	}
	codec.w.Write(codec.lens) // a bytes.Buffer never fails a write
	codec.w.Write(c.data)
	codec.w.Close()
	if codec.out.Len() <= (len(c.data)+4*len(c.ends))/2 {
		c.z = make([]byte, codec.out.Len())
		copy(c.z, codec.out.Bytes())
		c.n, c.zsize = len(c.ends), len(codec.lens)+len(c.data)
		c.data, c.ends = nil, nil
	}
	if codec.out.Cap() > 2*chunkSize {
		codec.out = bytes.Buffer{} // only an oversized chunk grows it this far
	}
}

// inflate returns c's records as a raw chunk whose data is a buffer
// allocated for this call. Fetched values alias that buffer, so nothing
// may ever write it again, and it is never reused for another chunk.
func (c *chunk) inflate() *chunk {
	buf := make([]byte, c.zsize)
	r := flate.NewReader(bytes.NewReader(c.z))
	if _, err := io.ReadFull(r, buf); err != nil {
		// The blob was deflated in memory by compress: only a bug gets here.
		panic(fmt.Sprintf("mqlog: inflate chunk at offset %d: %v", c.first, err))
	}
	ends := make([]uint32, c.n)
	pos, end := 0, uint32(0)
	for i := range ends {
		n, k := binary.Uvarint(buf[pos:])
		pos += k
		end += uint32(n)
		ends[i] = end
	}
	return &chunk{first: c.first, data: buf[pos:], ends: ends, hdrs: c.hdrs}
}
