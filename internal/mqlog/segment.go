// segment.go is the on-disk unit of the durable log: one append-only
// file per contiguous offset range, named by its base offset, holding
// length-prefixed CRC-framed records. The format is deliberately dumb —
// no index, no compression — because partitions are replayed front to
// back on open and served from memory afterwards; the file's only jobs
// are surviving the process and making torn tails detectable.
//
// Layout:
//
//	header  [4]magic "MQSG"  [4]version  [8]base offset        (16 bytes)
//	record  [4]payload len   [4]crc32(payload)  [payload]      (repeated)
//	payload [4]key len       [key bytes]        [value bytes]
//
// The payload is also how a partition keeps the record in memory (see
// chunk in log.go), so writing through frames bytes already in memory
// and recovery copies payloads back without decoding them.
//
// All integers are little-endian. A record whose frame is incomplete or
// whose CRC does not match ends the readable log; recovery truncates the
// file there (a torn tail from a crash mid-write) and everything before
// it is intact by construction.
package mqlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segMagic      uint32 = 0x4d515347 // "MQSG"
	segVersion    uint32 = 1
	segHeaderSize        = 16
	recFrameSize         = 8 // payload length + crc32
	segSuffix            = ".seg"
)

// segmentName renders a base offset as the segment's file name; zero-
// padding keeps lexicographic order equal to numeric order.
func segmentName(base uint64) string {
	return fmt.Sprintf("%020d%s", base, segSuffix)
}

// parseSegmentName recovers the base offset from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	s, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(s) != 20 {
		return 0, false
	}
	base, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// appendSegmentHeader appends the 16-byte segment header to buf.
func appendSegmentHeader(buf []byte, base uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, segMagic)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = binary.LittleEndian.AppendUint64(buf, base)
	return buf
}

// appendPayload appends one record's payload ([4]key len | key | value)
// to buf. It is the layout of a record both on disk and in a partition's
// memory chunks.
func appendPayload(buf []byte, key string, value []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	return append(buf, value...)
}

// frameHeader returns the frame written before payload on disk: its
// length and CRC.
func frameHeader(payload []byte) [recFrameSize]byte {
	var h [recFrameSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	return h
}

// appendRecord appends one framed record to buf and returns the extended
// slice — what the writer puts on disk for (key, value), for tests that
// construct or check segment files directly.
func appendRecord(buf []byte, key string, value []byte) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, recFrameSize)...)
	buf = appendPayload(buf, key, value)
	h := frameHeader(buf[at+recFrameSize:])
	copy(buf[at:], h[:])
	return buf
}

// segmentHeader validates a segment file's 16-byte header and returns
// its base offset. A corrupt header is a hard error: unlike a bad record
// frame, it is not what a crash mid-write leaves behind.
func segmentHeader(name string, data []byte) (uint64, error) {
	if len(data) < segHeaderSize {
		return 0, fmt.Errorf("mqlog: segment %s: short header (%d bytes)", name, len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:4]); magic != segMagic {
		return 0, fmt.Errorf("mqlog: segment %s: bad magic %#x", name, magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return 0, fmt.Errorf("mqlog: segment %s: unsupported version %d", name, v)
	}
	base := binary.LittleEndian.Uint64(data[8:16])
	if wantBase, ok := parseSegmentName(name); ok && wantBase != base {
		return 0, fmt.Errorf("mqlog: segment %s: header base %d does not match file name", name, base)
	}
	return base, nil
}

// segmentScan is the result of reading one segment file's records.
type segmentScan struct {
	records  int   // intact records, offsets assigned from the header's base
	validEnd int64 // file offset just past the last intact record
	torn     bool  // the file extended past validEnd with a bad frame
}

// scanRecords validates the records after a segment file's header and
// calls fn with each intact record's payload, in order; the payload
// aliases data. It never modifies the file; the caller decides whether
// to truncate a torn tail. Frame errors (short frame, impossible length,
// CRC mismatch, a key length past the payload) end the scan rather than
// failing it — everything before the first bad frame is intact and
// usable. The scan itself allocates nothing, whatever the length
// prefixes claim. data must have passed segmentHeader.
func scanRecords(data []byte, fn func(payload []byte)) segmentScan {
	var sc segmentScan
	pos := int64(segHeaderSize)
	for {
		rest := data[pos:]
		if len(rest) == 0 {
			break // clean end of file
		}
		if len(rest) < recFrameSize {
			sc.torn = true
			break
		}
		payloadLen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		wantCRC := binary.LittleEndian.Uint32(rest[4:8])
		if payloadLen < 4 || recFrameSize+payloadLen > int64(len(rest)) {
			sc.torn = true
			break
		}
		payload := rest[recFrameSize : recFrameSize+payloadLen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			sc.torn = true
			break
		}
		if keyLen := int64(binary.LittleEndian.Uint32(payload[0:4])); 4+keyLen > payloadLen {
			sc.torn = true
			break
		}
		fn(payload)
		sc.records++
		pos += recFrameSize + payloadLen
	}
	sc.validEnd = pos
	return sc
}

// listSegments returns the segment files in dir sorted by base offset.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded names: lexicographic == numeric
	return names, nil
}

// createSegment creates a fresh segment file for base and leaves the file
// positioned for appends, header written but not yet synced.
func createSegment(dir string, base uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(appendSegmentHeader(make([]byte, 0, segHeaderSize), base)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncIgnoringClosed fsyncs f, treating a concurrently closed handle as
// success: the group-commit syncer fsyncs outside the partition lock, so
// a segment roll can close the file between flush and sync — and the
// roll path itself syncs before closing, so the data is already down.
func syncIgnoringClosed(f *os.File) error {
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// discardLater removes segment files with a base at or above from —
// recovery's answer to a torn or missing middle segment: the log's
// readable prefix ends at the tear, and anything after it would leave an
// offset gap, so it is unlinked rather than served.
func discardLater(dir string, names []string, from int) error {
	for _, name := range names[from:] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
