package mqlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// produceChunks appends racedValue records (producer 0, seq = offset)
// to partition 0 until it holds n chunks.
func produceChunks(topic *Topic, n int) {
	p := topic.parts[0]
	var buf []byte
	for seq := int(topic.EndOffset(0)); len(p.chunks) < n; seq++ {
		buf = racedValue(buf, 0, seq)
		produceTo(topic, 0, "k", buf)
	}
}

// checkProduced fails the test unless every message holds the value
// produceChunks wrote at its offset.
func checkProduced(t *testing.T, what string, msgs []Message) {
	t.Helper()
	for _, m := range msgs {
		if want := racedValue(nil, 0, int(m.Offset)); !bytes.Equal(m.Value, want) {
			t.Fatalf("%s: the value at offset %d was rewritten", what, m.Offset)
		}
	}
}

// TestFetchedValuesSurviveCompression pins fetch's aliasing audit across
// compression: values fetched from a raw chunk stay intact after the
// chunk is compressed, values fetched through an inflation stay intact
// after later inflations replace the partition's cached copy, and a
// chunk inflated again gets a buffer of its own.
func TestFetchedValuesSurviveCompression(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 0)
	p := topic.parts[0]
	produceChunks(topic, 2)
	fromRaw, _, _, _ := topic.Fetch(0, 0, math.MaxInt)
	produceChunks(topic, 4)
	if p.chunks[0].z == nil || p.chunks[1].z == nil {
		t.Fatal("the chunks two and three behind the tail are not compressed")
	}
	checkProduced(t, "fetched raw, then compressed", fromRaw)

	first, _, _, _ := topic.Fetch(0, 0, 8)
	second, _, _, _ := topic.Fetch(0, p.chunks[1].first, 8)
	again, _, _, _ := topic.Fetch(0, 0, 8)
	cached, _, _, _ := topic.Fetch(0, 4, 4)
	for what, msgs := range map[string][]Message{"first inflation": first, "second chunk": second, "inflated again": again, "cache hit": cached} {
		if len(msgs) == 0 {
			t.Fatalf("%s: fetched nothing", what)
		}
		checkProduced(t, what, msgs)
	}
	checkProduced(t, "fetched raw, after three inflations", fromRaw)
	if got := topic.inflatedChunks(); got != 3 {
		t.Fatalf("%d inflations, want 3 (the last fetch reads the cached copy)", got)
	}
	if &first[0].Value[0] == &again[0].Value[0] {
		t.Fatal("inflating chunk 0 again reused the buffer the first inflation's values alias")
	}
}

// TestReaderInflatesEachChunkOnce: a Reader draining a partition whose
// history is compressed, in reads that do not line up with chunk
// boundaries, inflates each compressed chunk exactly once, and the
// inflation counter on /metrics says so.
func TestReaderInflatesEachChunkOnce(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 0)
	reg := telemetry.New()
	topic.SetTelemetry(reg)
	produceChunks(topic, 12)
	compressed := 0
	for _, c := range topic.parts[0].chunks {
		if c.z != nil {
			compressed++
		}
	}
	if compressed != 10 {
		t.Fatalf("%d of 12 chunks compressed, want all but the tail and the chunk before it", compressed)
	}
	end := topic.EndOffset(0)
	r, err := topic.NewReader(0, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	var read uint64
	for msgs := r.Next(100); msgs != nil; msgs = r.Next(100) {
		checkProduced(t, "Reader", msgs)
		read += uint64(len(msgs))
	}
	if read != end {
		t.Fatalf("the reader delivered %d of %d records", read, end)
	}
	if got := topic.inflatedChunks(); got != uint64(compressed) {
		t.Fatalf("draining %d compressed chunks inflated %d times", compressed, got)
	}
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("analytics_mqlog_inflated_chunks_total{topic=\"t\"} %d\n", compressed); !strings.Contains(scrape.String(), want) {
		t.Fatalf("scrape lacks %q", want)
	}
}

// TestRetainedBytesCountsCompression: RetainedBytes counts a compressed
// chunk by its deflated bytes and the inflated copy a fetch keeps by its
// size, and retention drops that copy with its chunk.
func TestRetainedBytesCountsCompression(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 150)
	p := topic.parts[0]
	val := make([]byte, 1000) // 64 records a chunk
	for len(p.chunks) < 3 {
		produceTo(topic, 0, "k", val)
	}
	c0, c1, c2 := p.chunks[0], p.chunks[1], p.chunks[2]
	if c0.z == nil || topic.StartOffset(0) != 0 {
		t.Fatal("the chunk two behind the tail is not compressed, or is already dropped")
	}
	raw := func(c *chunk) int64 { return int64(cap(c.data) + 4*cap(c.ends)) }
	held := int64(len(c0.z)) + raw(c1) + raw(c2)
	if got := topic.RetainedBytes(); got != held {
		t.Fatalf("RetainedBytes %d, want %d (deflated chunk 0 plus raw chunks 1 and 2)", got, held)
	}
	topic.Fetch(0, 0, 1)
	if got, want := topic.RetainedBytes(), held+int64(c0.zsize+4*c0.n); got != want {
		t.Fatalf("RetainedBytes %d after inflating chunk 0, want %d", got, want)
	}
	for p.chunks[0] == c0 {
		produceTo(topic, 0, "k", val)
	}
	if p.inflated != nil || p.inflatedFrom != nil {
		t.Fatal("retention dropped chunk 0 but kept its inflated copy")
	}
}

// compressCalls returns how many times compress has run in the process.
func compressCalls() int {
	codec.mu.Lock()
	defer codec.mu.Unlock()
	return codec.calls
}

// TestRecoveryCompressesOnlyKeptChunks: reopening a durable topic whose
// segments hold far more records than its retention limit compresses
// only the chunks the limit keeps (all but the tail and the chunk before
// it), not every chunk the segment chain passes through, and ends with
// the chunks, raw and deflated, of the log that wrote the segments.
func TestRecoveryCompressesOnlyKeptChunks(t *testing.T) {
	cfg := &DurableConfig{Dir: t.TempDir()}
	const limit = 2000 // about five chunks of racedValue records
	written, err := NewBroker().CreateTopicDurable("t", 1, limit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for seq := 0; seq < 20*limit; seq++ {
		buf = racedValue(buf, 0, seq)
		produceTo(written, 0, "k", buf)
	}
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	before := compressCalls()
	reopened, err := NewBroker().CreateTopicDurable("t", 1, limit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	calls := compressCalls() - before
	held := len(reopened.parts[0].chunks)
	if held < 5 || calls != held-2 {
		t.Fatalf("recovery compressed %d times for %d chunks held, want %d", calls, held, held-2)
	}
	if got, want := layout(reopened.parts[0]), layout(written.parts[0]); !slices.Equal(got, want) {
		t.Fatalf("reopened as %q,\nwritten as %q", got, want)
	}
	msgs, _, _, _ := reopened.Fetch(0, 0, math.MaxInt)
	if len(msgs) != limit {
		t.Fatalf("reopened log fetched %d records, want %d", len(msgs), limit)
	}
	checkProduced(t, "reopened", msgs)
}

// TestCompressionRaceWithRetention runs under -race in CI: producers
// append compressible records, so every new chunk compresses the one two
// behind it, while fetchers read random history (inflating compressed
// chunks and replacing the partition's cached copy), a Reader drains the
// retained log over and over, and retention drops compressed chunks.
// Every fetched value and header is re-checked while later work runs.
func TestCompressionRaceWithRetention(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 3000)
	var producers sync.WaitGroup
	produceRaced(topic, &producers, 2, 6000)
	done := make(chan struct{})
	errs := make(chan error, 3)
	var readers sync.WaitGroup
	for f := 0; f < 2; f++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []Message
			for {
				select {
				case <-done:
					return
				default:
				}
				start, end := topic.StartOffset(0), topic.EndOffset(0)
				if end == start {
					continue
				}
				msgs, _, _, _ := topic.Fetch(0, start+uint64(rng.Int63n(int64(end-start))), 64)
				held = append(held, msgs...)
				if len(held) > 1024 {
					held = held[len(held)-1024:]
				}
				for _, m := range held {
					if err := checkRaced(m); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(f))
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r, _ := topic.NewReader(0, topic.StartOffset(0), topic.EndOffset(0))
			for msgs := r.Next(256); msgs != nil; msgs = r.Next(256) {
				for _, m := range msgs {
					if err := checkRaced(m); err != nil {
						errs <- err
						return
					}
				}
			}
		}
	}()
	producers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d chunk inflations", topic.inflatedChunks())
}
