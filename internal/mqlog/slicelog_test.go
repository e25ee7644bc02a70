package mqlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// sliceLog is the partition as it was before chunk arenas: one Message
// per record in a slice (values and headers aliased, never copied),
// retention advancing a head index and compacting the slice once more
// than half of it is dead. It is kept as the oracle the chunked
// partition is held to.
type sliceLog struct {
	base  uint64 // offset of msgs[head]
	head  int
	msgs  []Message
	limit int
}

func (s *sliceLog) append(key string, value []byte, hdrs []Header) uint64 {
	off := s.end()
	s.msgs = append(s.msgs, Message{Key: key, Value: value, Headers: hdrs, Offset: off})
	if s.limit > 0 && len(s.msgs)-s.head > s.limit {
		drop := len(s.msgs) - s.head - s.limit
		s.head += drop
		s.base += uint64(drop)
		if s.head > len(s.msgs)/2 {
			n := copy(s.msgs, s.msgs[s.head:])
			s.msgs = s.msgs[:n]
			s.head = 0
		}
	}
	return off
}

func (s *sliceLog) end() uint64 { return s.base + uint64(len(s.msgs)-s.head) }

func (s *sliceLog) fetch(offset uint64, max int) (msgs []Message, next uint64, truncated bool) {
	if offset < s.base {
		offset = s.base
		truncated = true
	}
	idx := s.head + int(offset-s.base)
	if idx >= len(s.msgs) {
		return nil, offset, truncated
	}
	end := idx + min(max, len(s.msgs)-idx)
	out := make([]Message, end-idx)
	copy(out, s.msgs[idx:end])
	return out, offset + uint64(len(out)), truncated
}

// read is what a Reader over [from, end) delivers from a log that does
// not move while it reads: every retained record in the range, the
// offset it parks at, and whether retention had cut into the range.
func (s *sliceLog) read(from, end uint64) (msgs []Message, offset uint64, truncated bool) {
	if from >= end {
		return nil, from, false
	}
	start := max(from, s.base)
	if start >= s.end() {
		return nil, start, from < s.base
	}
	stop := min(end, s.end())
	if start < stop {
		msgs, _, _ = s.fetch(start, int(stop-start))
	}
	return msgs, stop, from < s.base
}

// sameMessages fails the test unless got and want hold the same records:
// equal keys, offsets, value bytes and headers.
func sameMessages(t *testing.T, what string, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Offset != w.Offset || !bytes.Equal(g.Value, w.Value) || len(g.Headers) != len(w.Headers) {
			t.Fatalf("%s: message %d = {%q %d %d B %d hdrs}, want {%q %d %d B %d hdrs}", what, i,
				g.Key, g.Offset, len(g.Value), len(g.Headers), w.Key, w.Offset, len(w.Value), len(w.Headers))
		}
		for j := range w.Headers {
			if g.Headers[j].Key != w.Headers[j].Key || !bytes.Equal(g.Headers[j].Value, w.Headers[j].Value) {
				t.Fatalf("%s: message %d header %d = %q=%x, want %q=%x", what, i, j,
					g.Headers[j].Key, g.Headers[j].Value, w.Headers[j].Key, w.Headers[j].Value)
			}
		}
	}
}

// logDriver produces the same random records into a topic and into one
// sliceLog per partition. The topic gets buffers the driver scribbles
// over once the produce call returns; the oracle gets its own copies.
type logDriver struct {
	rng    *rand.Rand
	topic  *Topic
	oracle []*sliceLog
	bigOK  bool // allow values larger than a chunk
	// compressible values are runs of a few tokens, which deflate to well
	// under half their size; otherwise values are random bytes, which do
	// not, so their chunks stay raw.
	compressible bool
	// compressed collects every chunk seen in compressed form (see
	// noteCompressed).
	compressed map[*chunk]bool
}

// compressibleValue returns n bytes of demo-like tokens.
func (d *logDriver) compressibleValue(n int) []byte {
	tokens := []string{"uniques|", "page-", "07", "42", "|user-", "latency-us|", "all"}
	val := make([]byte, 0, n+16)
	for len(val) < n {
		val = append(val, tokens[d.rng.Intn(len(tokens))]...)
	}
	return val[:n]
}

func (d *logDriver) record() (Record, Record) {
	keys := []string{"", "all", "page-07", "page-42", "a-much-longer-key-than-the-demo-uses"}
	n := d.rng.Intn(96)
	if d.compressible {
		n = d.rng.Intn(192)
	}
	if d.bigOK && d.rng.Intn(400) == 0 {
		// Up to four chunks; up to two for compressible values, which
		// inflate slowly under -race.
		if d.compressible {
			n = chunkSize + d.rng.Intn(chunkSize)
		} else {
			n = chunkSize + d.rng.Intn(3*chunkSize)
		}
	}
	var val []byte
	if d.compressible {
		val = d.compressibleValue(n)
	} else {
		val = make([]byte, n)
		d.rng.Read(val)
	}
	rec := Record{Key: keys[d.rng.Intn(len(keys))], Value: val}
	if d.rng.Intn(5) == 0 {
		for i := 0; i <= d.rng.Intn(2); i++ {
			hv := make([]byte, d.rng.Intn(20))
			d.rng.Read(hv)
			rec.Headers = append(rec.Headers, Header{Key: fmt.Sprintf("h%d", i), Value: hv})
		}
	}
	own := Record{Key: rec.Key, Value: bytes.Clone(rec.Value)}
	for _, h := range rec.Headers {
		own.Headers = append(own.Headers, Header{Key: h.Key, Value: bytes.Clone(h.Value)})
	}
	return rec, own
}

// scribble overwrites what the producer handed the topic.
func scribble(recs []Record) {
	for _, r := range recs {
		for i := range r.Value {
			r.Value[i] ^= 0xa5
		}
		for _, h := range r.Headers {
			for i := range h.Value {
				h.Value[i] ^= 0x5a
			}
		}
	}
}

// step performs one random produce call on both sides.
func (d *logDriver) step(t *testing.T) {
	t.Helper()
	nparts := len(d.oracle)
	if d.rng.Intn(2) == 0 { // Produce (no headers on the single-record path)
		rec, own := d.record()
		rec.Headers, own.Headers = nil, nil
		pid, off := d.topic.Produce(rec.Key, rec.Value)
		if want := d.oracle[pid].append(own.Key, own.Value, own.Headers); off != want {
			t.Fatalf("produce assigned offset %d, oracle %d", off, want)
		}
		scribble([]Record{rec})
		return
	}
	n := 1 + d.rng.Intn(40)
	recs, owns := make([]Record, n), make([]Record, n)
	for i := range recs {
		recs[i], owns[i] = d.record()
	}
	pid := d.rng.Intn(nparts)
	first, err := d.topic.ProduceBatchTo(pid, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.oracle[pid].end(); first != want {
		t.Fatalf("ProduceBatchTo first offset %d, oracle %d", first, want)
	}
	for _, o := range owns {
		d.oracle[pid].append(o.Key, o.Value, o.Headers)
	}
	scribble(recs)
}

// check compares one random Fetch and one random bounded Reader drain.
func (d *logDriver) check(t *testing.T, withHeaders bool) {
	t.Helper()
	pid := d.rng.Intn(len(d.oracle))
	o := d.oracle[pid]
	if got, want := d.topic.StartOffset(pid), o.base; got != want {
		t.Fatalf("partition %d start %d, oracle %d", pid, got, want)
	}
	if got, want := d.topic.EndOffset(pid), o.end(); got != want {
		t.Fatalf("partition %d end %d, oracle %d", pid, got, want)
	}
	off := uint64(d.rng.Int63n(int64(o.end()) + 6)) // below base and past the end included
	fetchMax := []int{1, 2, 7, 64, 512, math.MaxInt}[d.rng.Intn(6)]
	got, next, trunc, err := d.topic.Fetch(pid, off, fetchMax)
	if err != nil {
		t.Fatal(err)
	}
	want, wnext, wtrunc := o.fetch(off, fetchMax)
	what := fmt.Sprintf("Fetch(%d, %d, %d)", pid, off, fetchMax)
	if !withHeaders {
		got, want = stripHeaders(got), stripHeaders(want)
	}
	sameMessages(t, what, got, want)
	if next != wnext || trunc != wtrunc {
		t.Fatalf("%s: next %d truncated %v, oracle %d %v", what, next, trunc, wnext, wtrunc)
	}

	from := uint64(d.rng.Int63n(int64(o.end()) + 3))
	end := from + uint64(d.rng.Int63n(int64(o.end()-min(from, o.end()))+4))
	r, err := d.topic.NewReader(pid, from, end)
	if err != nil {
		t.Fatal(err)
	}
	var read []Message
	for batch := 1 + d.rng.Intn(100); ; {
		msgs := r.Next(batch)
		if msgs == nil {
			break
		}
		read = append(read, msgs...)
	}
	want, woff, wtrunc := o.read(from, end)
	if !withHeaders {
		read, want = stripHeaders(read), stripHeaders(want)
	}
	what = fmt.Sprintf("Reader(%d, %d, %d)", pid, from, end)
	sameMessages(t, what, read, want)
	if r.Offset() != woff || r.Truncated() != wtrunc {
		t.Fatalf("%s: offset %d truncated %v, oracle %d %v", what, r.Offset(), r.Truncated(), woff, wtrunc)
	}
}

// noteCompressed adds every chunk the topic now holds compressed to
// d.compressed.
func (d *logDriver) noteCompressed() {
	if d.compressed == nil {
		d.compressed = make(map[*chunk]bool)
	}
	for _, p := range d.topic.parts {
		p.mu.Lock()
		for _, c := range p.chunks {
			if c.z != nil {
				d.compressed[c] = true
			}
		}
		p.mu.Unlock()
	}
}

// compression reports how many chunks the run has seen compressed, how
// many of those retention has since dropped, and the fewest compressed
// chunks any partition holds now.
func (d *logDriver) compression() (seen, dropped, fewestHeld int) {
	fewestHeld = math.MaxInt
	held := make(map[*chunk]bool)
	for _, p := range d.topic.parts {
		n := 0
		p.mu.Lock()
		for _, c := range p.chunks {
			held[c] = true
			if c.z != nil {
				n++
			}
		}
		p.mu.Unlock()
		fewestHeld = min(fewestHeld, n)
	}
	for c := range d.compressed {
		seen++
		if !held[c] {
			dropped++
		}
	}
	return seen, dropped, fewestHeld
}

// layout renders a partition's chunks — first offset and, for a
// compressed chunk, its deflated bytes — for comparing two logs' chunk
// forms.
func layout(p *partition) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, c := range p.chunks {
		out = append(out, fmt.Sprintf("first %d: %d raw bytes, z %x", c.first, len(c.data), c.z))
	}
	return out
}

// valuesName prefixes the subtests of compressible values; those of
// random values keep the names they had before compression.
func valuesName(compressible bool) string {
	if compressible {
		return "compressible/"
	}
	return ""
}

func stripHeaders(msgs []Message) []Message {
	out := make([]Message, len(msgs))
	for i, m := range msgs {
		m.Headers = nil
		out[i] = m
	}
	return out
}

// TestChunkLogMatchesSliceOracle drives random Produce / ProduceBatchTo
// sequences (headers on a fifth of the batched records, values up to four chunks long) into the chunked log
// and into the slice oracle, and requires equal Fetch results — messages,
// next and truncated — at any offset, below the retained base and past
// the end included, and equal bounded Reader drains from any offset,
// for retention limits 0, 1, 7, about two chunks and large. The
// producer scribbles over every buffer it produced from, so a log that
// aliased instead of copying fails too.
//
// Random values never compress (the ½ rule). Compressible values, up to
// two chunks long, take every partition past three chunks, so fetches and reads land in
// compressed chunks, headered records and oversized single-record
// chunks included, and the two-chunk limit drops compressed chunks.
// Limits 1 and 5000 are left out for them: the first keeps no chunk
// long enough to compress it, the second drops nothing, like 0.
func TestChunkLogMatchesSliceOracle(t *testing.T) {
	for _, compressible := range []bool{false, true} {
		limits := []int{0, 1, 7, 1000, 5000}
		if compressible {
			limits = []int{0, 7, 1000}
		}
		for _, limit := range limits {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(valuesName(compressible)+fmt.Sprintf("limit=%d/seed=%d", limit, seed), func(t *testing.T) {
					topic, err := NewBroker().CreateTopic("diff", 3, limit)
					if err != nil {
						t.Fatal(err)
					}
					d := &logDriver{rng: rand.New(rand.NewSource(seed)), topic: topic, bigOK: true, compressible: compressible}
					for range 3 {
						d.oracle = append(d.oracle, &sliceLog{limit: limit})
					}
					for i := 0; i < 600; i++ {
						d.step(t)
						d.noteCompressed()
						d.check(t, true)
					}
					seen, dropped, fewestHeld := d.compression()
					t.Logf("%d chunks compressed, %d dropped, %d inflations", seen, dropped, topic.inflatedChunks())
					switch {
					case !compressible && seen > 0:
						t.Fatalf("%d chunks of random values compressed; the ½ rule keeps them raw", seen)
					case compressible && limit == 0 && fewestHeld == 0:
						t.Fatal("a partition of compressible values holds no compressed chunk")
					case compressible && limit == 0 && topic.inflatedChunks() == 0:
						t.Fatal("no fetch or read inflated a compressed chunk")
					case compressible && limit == 1000 && dropped == 0:
						t.Fatalf("retention dropped none of the %d compressed chunks", seen)
					}
				})
			}
		}
	}
}

// TestDurableReopenMatchesSliceOracle is the differential run on a
// durable topic: the log recovered from its segment files — payloads
// copied straight into chunks, values past a chunk's size included —
// answers every fetch and read like the oracle, headers aside (they are
// in-memory only). The segment files hold the raw records, framed, and
// the reopened log compresses the same chunks to the same bytes as the
// log that wrote them.
func TestDurableReopenMatchesSliceOracle(t *testing.T) {
	for _, compressible := range []bool{false, true} {
		for _, limit := range []int{0, 7} {
			t.Run(valuesName(compressible)+fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
				dir := t.TempDir()
				cfg := &DurableConfig{Dir: dir, SegmentBytes: 128 << 10}
				topic, err := NewBroker().CreateTopicDurable("diff", 2, limit, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := &logDriver{rng: rand.New(rand.NewSource(9)), topic: topic, bigOK: true, compressible: compressible}
				for range 2 {
					d.oracle = append(d.oracle, &sliceLog{limit: limit})
				}
				for i := 0; i < 600; i++ {
					d.step(t)
				}
				if err := topic.Close(); err != nil {
					t.Fatal(err)
				}
				if limit == 0 {
					for pid, o := range d.oracle {
						sameSegments(t, filepath.Join(dir, "diff", fmt.Sprintf("p%04d", pid)), o.msgs)
					}
				}
				if d.topic, err = NewBroker().CreateTopicDurable("diff", 2, limit, cfg); err != nil {
					t.Fatal(err)
				}
				defer d.topic.Close()
				for pid := range d.oracle {
					if got, want := layout(d.topic.parts[pid]), layout(topic.parts[pid]); !slices.Equal(got, want) {
						t.Fatalf("partition %d reopened as %d chunks %q,\nwritten as %d %q", pid, len(got), got, len(want), want)
					}
				}
				if _, _, fewestHeld := d.compression(); compressible && limit == 0 && fewestHeld == 0 {
					t.Fatal("a reopened partition of compressible values holds no compressed chunk")
				}
				for i := 0; i < 300; i++ {
					d.check(t, false)
				}
				// Appends after recovery continue the same log.
				for i := 0; i < 200; i++ {
					d.step(t)
					d.check(t, false)
				}
			})
		}
	}
}

// sameSegments fails the test unless the segment files in dir, header
// aside, are exactly msgs framed one after another.
func sameSegments(t *testing.T, dir string, msgs []Message) {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data[segHeaderSize:]...)
	}
	for _, m := range msgs {
		want = appendRecord(want, m.Key, m.Value)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: segment records (%d B) differ from the %d records produced (%d B framed)", dir, len(got), len(msgs), len(want))
	}
}
