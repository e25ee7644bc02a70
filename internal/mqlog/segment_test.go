package mqlog

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// FuzzSegmentScan feeds the recovery scan segment files it did not
// write. Seeds (testdata/fuzz/FuzzSegmentScan): a valid segment, a torn
// tail, a bad CRC, a key length past its payload and a huge length
// prefix. Required: no panic; the scan allocates at most 2 × the input
// + 4 KiB whatever the length prefixes claim; the intact prefix it
// accepts re-encodes byte-identically through appendRecord, the bytes
// past it are exactly what it reports as torn; and the accepted records
// installed in a partition fetch back as the same keys and values.
func FuzzSegmentScan(f *testing.F) {
	valid := appendSegmentHeader(nil, 7)
	valid = appendRecord(valid, "page-07", []byte("value"))
	valid = appendRecord(valid, "", nil)
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		var base uint64
		var sc segmentScan
		var err error
		// TotalAlloc is process-wide and the fuzz engine allocates beside
		// the target, so the bound holds the least of three scans.
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if base, err = segmentHeader("fuzz.seg", data); err == nil {
				sc = scanRecords(data, func([]byte) {})
			}
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > uint64(2*len(data)+4096) {
			t.Fatalf("scanning %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if sc.torn != (sc.validEnd < int64(len(data))) {
			t.Fatalf("torn %v with %d of %d bytes intact", sc.torn, sc.validEnd, len(data))
		}
		var payloads [][]byte
		if again := scanRecords(data, func(p []byte) { payloads = append(payloads, p) }); again != sc || len(payloads) != sc.records {
			t.Fatalf("second scan %+v (%d payloads), first %+v", again, len(payloads), sc)
		}
		re := appendSegmentHeader(nil, base)
		for _, p := range payloads {
			keyEnd := 4 + binary.LittleEndian.Uint32(p)
			re = appendRecord(re, string(p[4:keyEnd]), p[keyEnd:])
		}
		if !bytes.Equal(re, data[:sc.validEnd]) {
			t.Fatalf("accepted records re-encode differently")
		}
		p := &partition{base: base, end: base}
		scanRecords(data, p.appendPayloadLocked)
		msgs, next, _ := p.fetch(base, math.MaxInt)
		if next != base+uint64(len(payloads)) || len(msgs) != len(payloads) {
			t.Fatalf("installed %d records, fetched %d ending at %d", len(payloads), len(msgs), next)
		}
		for i, m := range msgs {
			if !bytes.Equal(appendPayload(nil, m.Key, m.Value), payloads[i]) || m.Offset != base+uint64(i) {
				t.Fatalf("record %d fetched back as %+v", i, m)
			}
		}
	})
}
