package mqlog

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

// produceTo appends one record to an explicit partition, as a
// one-record ProduceBatchTo.
func produceTo(topic *Topic, pid int, key string, value []byte) (uint64, error) {
	return topic.ProduceBatchTo(pid, []Record{{Key: key, Value: value}})
}

func TestCreateTopicValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.CreateTopic("", 1, 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := b.CreateTopic("t", 0, 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if _, err := b.CreateTopic("t", 1, -1); err == nil {
		t.Fatal("negative retention accepted")
	}
	if _, err := b.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic("t", 1, 0); err == nil {
		t.Fatal("duplicate topic accepted")
	}
	if _, err := b.Topic("missing"); err == nil {
		t.Fatal("unknown topic returned")
	}
}

func TestProduceFetchOrdering(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("events", 1, 0)
	for i := 0; i < 100; i++ {
		topic.Produce("k", []byte(fmt.Sprintf("v%d", i)))
	}
	msgs, next, truncated, err := topic.Fetch(0, 0, 1000)
	if err != nil || truncated {
		t.Fatalf("fetch err=%v truncated=%v", err, truncated)
	}
	if len(msgs) != 100 || next != 100 {
		t.Fatalf("got %d msgs next %d", len(msgs), next)
	}
	for i, m := range msgs {
		if m.Offset != uint64(i) || string(m.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("ordering broken at %d: %+v", i, m)
		}
	}
}

func TestKeyPartitioningStable(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("keyed", 8, 0)
	pid1, _ := topic.Produce("user-42", []byte("a"))
	pid2, _ := topic.Produce("user-42", []byte("b"))
	if pid1 != pid2 {
		t.Fatal("same key routed to different partitions")
	}
	// Different keys should spread across partitions.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		pid, _ := topic.Produce(fmt.Sprintf("k%d", i), nil)
		seen[pid] = true
	}
	if len(seen) < 6 {
		t.Fatalf("only %d/8 partitions used", len(seen))
	}
}

func TestRetentionTruncates(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("small", 1, 10)
	for i := 0; i < 100; i++ {
		produceTo(topic, 0, "", []byte{byte(i)})
	}
	if start := topic.StartOffset(0); start != 90 {
		t.Fatalf("start offset %d, want 90", start)
	}
	msgs, next, truncated, _ := topic.Fetch(0, 0, 1000)
	if !truncated {
		t.Fatal("truncation not reported")
	}
	if len(msgs) != 10 || msgs[0].Offset != 90 || next != 100 {
		t.Fatalf("fetch after retention: %d msgs, first %d, next %d", len(msgs), msgs[0].Offset, next)
	}
}

func TestCommitAndLag(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("lagged", 2, 0)
	for i := 0; i < 10; i++ {
		produceTo(topic, i%2, "", nil)
	}
	if lag := b.Lag("g1", topic); lag != 10 {
		t.Fatalf("initial lag %d", lag)
	}
	b.Commit("g1", "lagged", 0, 5)
	if lag := b.Lag("g1", topic); lag != 5 {
		t.Fatalf("lag after commit %d", lag)
	}
	if got := b.Committed("g1", "lagged", 0); got != 5 {
		t.Fatalf("committed %d", got)
	}
	if got := b.Committed("g2", "lagged", 0); got != 0 {
		t.Fatal("group isolation broken")
	}
}

func TestConsumerGroupRebalance(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("cg", 4, 0)
	g, err := NewConsumerGroup(b, topic, "workers")
	if err != nil {
		t.Fatal(err)
	}
	g.Join("a")
	if got := g.Assignment("a"); len(got) != 4 {
		t.Fatalf("solo member got %v", got)
	}
	g.Join("b")
	la, lb := len(g.Assignment("a")), len(g.Assignment("b"))
	if la+lb != 4 || la != 2 || lb != 2 {
		t.Fatalf("two-member split %d/%d", la, lb)
	}
	gen := g.Generation()
	g.Join("b") // duplicate join is a no-op
	if g.Generation() != gen {
		t.Fatal("duplicate join bumped generation")
	}
	g.Leave("a")
	if got := g.Assignment("b"); len(got) != 4 {
		t.Fatalf("survivor got %v", got)
	}
	if got := g.Assignment("a"); len(got) != 0 {
		t.Fatal("departed member retains partitions")
	}
}

func TestConsumerGroupExactlyOnePerGroup(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("work", 4, 0)
	const total = 1000
	for i := 0; i < total; i++ {
		topic.Produce(fmt.Sprintf("k%d", i), []byte{1})
	}
	g, _ := NewConsumerGroup(b, topic, "grp")
	g.Join("w1")
	g.Join("w2")
	counts := map[string]int{}
	for _, w := range []string{"w1", "w2"} {
		for {
			batches := g.Poll(w, 100)
			if len(batches) == 0 {
				break
			}
			for _, batch := range batches {
				counts[w] += len(batch.Messages)
				g.Commit(batch.Partition, batch.Next)
			}
		}
	}
	if counts["w1"]+counts["w2"] != total {
		t.Fatalf("delivered %d+%d != %d", counts["w1"], counts["w2"], total)
	}
	if counts["w1"] == 0 || counts["w2"] == 0 {
		t.Fatalf("work not shared: %v", counts)
	}
	if lag := b.Lag("grp", topic); lag != 0 {
		t.Fatalf("residual lag %d", lag)
	}
}

func TestAtLeastOnceAcrossRestart(t *testing.T) {
	// Poll without commit, then poll again: same messages redelivered.
	b := NewBroker()
	topic, _ := b.CreateTopic("alo", 1, 0)
	for i := 0; i < 10; i++ {
		produceTo(topic, 0, "", []byte{byte(i)})
	}
	g, _ := NewConsumerGroup(b, topic, "grp")
	g.Join("w")
	first := g.Poll("w", 100)
	if len(first) != 1 || len(first[0].Messages) != 10 {
		t.Fatal("first poll incomplete")
	}
	// Crash before commit: poll again from committed offset 0.
	second := g.Poll("w", 100)
	if len(second) != 1 || len(second[0].Messages) != 10 {
		t.Fatal("redelivery after uncommitted poll failed")
	}
	g.Commit(0, second[0].Next)
	if third := g.Poll("w", 100); len(third) != 0 {
		t.Fatal("messages redelivered after commit")
	}
}

func TestConcurrentProducers(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("conc", 4, 0)
	var wg sync.WaitGroup
	const producers = 8
	const perProducer = 1000
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				topic.Produce(fmt.Sprintf("p%d-%d", p, i), []byte{byte(i)})
			}
		}(p)
	}
	wg.Wait()
	var total uint64
	for pid := 0; pid < 4; pid++ {
		total += topic.EndOffset(pid)
	}
	if total != producers*perProducer {
		t.Fatalf("lost messages: %d != %d", total, producers*perProducer)
	}
	// Offsets within each partition must be dense.
	for pid := 0; pid < 4; pid++ {
		msgs, _, _, _ := topic.Fetch(pid, 0, producers*perProducer)
		for i, m := range msgs {
			if m.Offset != uint64(i) {
				t.Fatalf("partition %d offset gap at %d", pid, i)
			}
		}
	}
}

func BenchmarkProduce(b *testing.B) {
	br := NewBroker()
	topic, _ := br.CreateTopic("bench", 8, 1<<20)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Produce("key", val)
	}
}

func BenchmarkFetch100(b *testing.B) {
	br := NewBroker()
	topic, _ := br.CreateTopic("bench", 1, 0)
	for i := 0; i < 100000; i++ {
		produceTo(topic, 0, "", []byte{1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Fetch(0, uint64(i*100%90000), 100)
	}
}

func TestPartitionForAgreesWithProduce(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 8, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		pid, _ := topic.Produce(key, []byte("v"))
		if got := topic.PartitionFor(key); got != pid {
			t.Fatalf("PartitionFor(%q) = %d, Produce routed to %d", key, got, pid)
		}
	}
}

func TestEndOffsetsSnapshot(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 3, 0)
	for i := 0; i < 50; i++ {
		topic.Produce(fmt.Sprintf("k%d", i), []byte("v"))
	}
	ends := topic.EndOffsets()
	if len(ends) != 3 {
		t.Fatalf("EndOffsets returned %d entries", len(ends))
	}
	var total uint64
	for pid, end := range ends {
		if end != topic.EndOffset(pid) {
			t.Fatalf("partition %d snapshot %d != EndOffset %d", pid, end, topic.EndOffset(pid))
		}
		total += end
	}
	if total != 50 {
		t.Fatalf("snapshot totals %d messages, produced 50", total)
	}
}

// TestFetchCopiesOutOfCompaction pins the value half of fetch's aliasing
// audit: values fetched from a chunk stay intact while later appends
// fill the rest of it and open new chunks, retention drops the chunk
// they live in, and the producer reuses the buffer it produced from.
func TestFetchCopiesOutOfCompaction(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 1, 4)
	buf := make([]byte, 0, 4096)
	for i := 0; i < 4; i++ {
		buf = fmt.Appendf(buf[:0], "v%d", i)
		produceTo(topic, 0, "k", buf)
	}
	msgs, _, _, _ := topic.Fetch(0, 0, 4)
	// Enough 4 KiB appends through the same buffer to fill several chunks,
	// so retention releases the chunk the fetched values point into.
	for i := 4; i < 100; i++ {
		buf = fmt.Appendf(buf[:0], "v%d", i)
		produceTo(topic, 0, "k", buf[:cap(buf)])
	}
	if start := topic.StartOffset(0); start != 96 {
		t.Fatalf("start offset %d, want 96", start)
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("v%d", i); string(m.Value) != want || m.Offset != uint64(i) || m.Key != "k" {
			t.Fatalf("fetched message %d rewritten by later appends: %+v (want value %q)", i, m, want)
		}
	}
}

// TestFetchHeadersSurviveCompaction pins the header half of fetch's
// aliasing audit: record headers (the trace-context carrier) fetched
// before retention drops their chunk stay intact, and the producer may
// reuse its header slice and value bytes once the produce call returns.
func TestFetchHeadersSurviveCompaction(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 1, 4)
	hdrs := []Header{{Key: "trace"}, {Key: "other"}}
	for i := 0; i < 4; i++ {
		hdrs[0].Value = fmt.Appendf(hdrs[0].Value[:0], "ctx%d", i)
		hdrs[1].Value = append(hdrs[1].Value[:0], byte(i))
		topic.ProduceBatchTo(0, []Record{{Key: "k", Value: []byte(fmt.Sprintf("v%d", i)), Headers: hdrs}})
	}
	msgs, _, _, _ := topic.Fetch(0, 0, 4)
	// Headered and headerless appends past several chunks: retention
	// releases the chunk and header table the fetch read from.
	big := make([]byte, 4096)
	for i := 4; i < 100; i++ {
		hdrs[0].Value = fmt.Appendf(hdrs[0].Value[:0], "ctx%d", i)
		topic.ProduceBatchTo(0, []Record{{Key: "k", Value: big, Headers: hdrs}, {Key: "k", Value: big}})
	}
	for i, m := range msgs {
		if len(m.Headers) != 2 {
			t.Fatalf("message %d has %d headers after compaction, want 2", i, len(m.Headers))
		}
		h := m.Headers[0]
		if h.Key != "trace" || string(h.Value) != fmt.Sprintf("ctx%d", i) {
			t.Fatalf("message %d trace header rewritten under compaction: %q=%q", i, h.Key, h.Value)
		}
		if m.Headers[1].Key != "other" || m.Headers[1].Value[0] != byte(i) {
			t.Fatalf("message %d second header corrupted: %+v", i, m.Headers[1])
		}
	}
}

func TestOwnerInverseOfAssignment(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 8, 0)
	g, _ := NewConsumerGroup(b, topic, "g")
	if _, _, ok := g.Owner(0); ok {
		t.Fatal("empty group reported an owner")
	}
	g.Join("a")
	g.Join("b")
	g.Join("c")
	if got := g.Members(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("Members() = %v", got)
	}
	owned := map[string]int{}
	for pid := 0; pid < 8; pid++ {
		member, gen, ok := g.Owner(pid)
		if !ok {
			t.Fatalf("partition %d unowned", pid)
		}
		if gen != g.Generation() {
			t.Fatalf("Owner generation %d != group generation %d", gen, g.Generation())
		}
		owned[member]++
		found := false
		for _, p := range g.Assignment(member) {
			if p == pid {
				found = true
			}
		}
		if !found {
			t.Fatalf("Owner(%d)=%s but Assignment(%s) lacks it", pid, member, member)
		}
	}
	if len(owned) != 3 {
		t.Fatalf("partitions spread over %d members, want 3", len(owned))
	}
}

func TestCommitFencedRejectsStaleOwner(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 2, 0)
	g, _ := NewConsumerGroup(b, topic, "g")
	g.Join("a")
	gen := g.Generation()
	if !g.CommitFenced("a", gen, 0, 5) {
		t.Fatal("current owner's commit rejected")
	}
	if got := b.Committed("g", "t", 0); got != 5 {
		t.Fatalf("committed %d, want 5", got)
	}
	// A rebalance bumps the generation; commits from the old one must be
	// fenced out even if the member still owns the partition.
	g.Join("b")
	if g.CommitFenced("a", gen, 0, 9) {
		t.Fatal("stale-generation commit accepted")
	}
	if got := b.Committed("g", "t", 0); got != 5 {
		t.Fatalf("stale commit clobbered offset: %d", got)
	}
	// And a member cannot commit a partition assigned to someone else.
	gen = g.Generation()
	var foreign int = -1
	for pid := 0; pid < 2; pid++ {
		if member, _, _ := g.Owner(pid); member != "a" {
			foreign = pid
		}
	}
	if foreign < 0 {
		t.Fatal("expected b to own a partition after joining")
	}
	if g.CommitFenced("a", gen, foreign, 1) {
		t.Fatal("commit to foreign partition accepted")
	}
}

func TestPollRotatesUnderSmallBudget(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 8, 0)
	g, _ := NewConsumerGroup(b, topic, "g")
	g.Join("a")
	for pid := 0; pid < 8; pid++ {
		for i := 0; i < 4; i++ {
			produceTo(topic, pid, "k", []byte(fmt.Sprintf("p%d-%d", pid, i)))
		}
	}
	// Budget far below the assignment size: without scan rotation the
	// first partitions would absorb every poll and the tail would starve.
	seen := map[int]bool{}
	for poll := 0; poll < 16; poll++ {
		for _, batch := range g.Poll("a", 2) {
			seen[batch.Partition] = true
			g.Commit(batch.Partition, batch.Next)
		}
	}
	for pid := 0; pid < 8; pid++ {
		if !seen[pid] {
			t.Fatalf("partition %d starved across rotating polls (saw %v)", pid, seen)
		}
	}
	if lag := b.Lag("g", topic); lag != 0 {
		t.Fatalf("lag %d after enough polls to drain everything", lag)
	}
}

func TestProduceBatchToExplicitPartition(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 4, 0)
	recs := []Record{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}
	first, err := topic.ProduceBatchTo(2, recs)
	if err != nil || first != 0 {
		t.Fatalf("first batch: offset %d err %v", first, err)
	}
	first, err = topic.ProduceBatchTo(2, recs)
	if err != nil || first != 2 {
		t.Fatalf("second batch: offset %d err %v (offsets must be contiguous)", first, err)
	}
	if end := topic.EndOffset(2); end != 4 {
		t.Fatalf("end offset %d, want 4", end)
	}
	msgs, _, _, _ := topic.Fetch(2, 0, 10)
	if len(msgs) != 4 || msgs[1].Key != "b" || string(msgs[3].Value) != "2" {
		t.Fatalf("fetched %+v", msgs)
	}
	if _, err := topic.ProduceBatchTo(9, recs); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestOwnersSnapshotAndCursorCleanup(t *testing.T) {
	b := NewBroker()
	topic, _ := b.CreateTopic("t", 6, 0)
	g, _ := NewConsumerGroup(b, topic, "g")
	g.Join("a")
	g.Join("b")
	owners, gen := g.Owners()
	if gen != g.Generation() || len(owners) != 6 {
		t.Fatalf("Owners() = %v gen %d", owners, gen)
	}
	for pid, member := range owners {
		want, _, _ := g.Owner(pid)
		if member != want {
			t.Fatalf("Owners()[%d] = %q, Owner = %q", pid, member, want)
		}
	}
	// Polling creates a scan cursor; leaving must clean it up, or a
	// churned group (monotonic member names) leaks an entry per member.
	g.Poll("a", 4)
	g.Poll("b", 4)
	g.Leave("a")
	g.mu.Lock()
	_, leaked := g.cursors["a"]
	g.mu.Unlock()
	if leaked {
		t.Fatal("Leave left the member's poll cursor behind")
	}
	owners, _ = g.Owners()
	for pid, member := range owners {
		if member != "b" {
			t.Fatalf("partition %d owned by %q after sole-survivor rebalance", pid, member)
		}
	}
}

// TestFetchHugeMaxClamps: a max larger than the records left is clamped
// to them — offset + max must not overflow into an impossible slice.
func TestFetchHugeMaxClamps(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 0)
	for i := 0; i < 10; i++ {
		produceTo(topic, 0, "k", []byte{byte(i)})
	}
	for _, from := range []uint64{0, 1, 9, 10} {
		msgs, next, truncated, err := topic.Fetch(0, from, math.MaxInt)
		if err != nil || truncated {
			t.Fatalf("Fetch(0, %d, MaxInt): err %v truncated %v", from, err, truncated)
		}
		if len(msgs) != int(10-from) || next != 10 {
			t.Fatalf("Fetch(0, %d, MaxInt): %d messages, next %d; want %d, 10", from, len(msgs), next, 10-from)
		}
		for i, m := range msgs {
			if m.Offset != from+uint64(i) || m.Value[0] != byte(from)+byte(i) {
				t.Fatalf("Fetch(0, %d, MaxInt) message %d = %+v", from, i, m)
			}
		}
	}
}

// TestFetchKeysInterned: fetching records whose keys the partition has
// seen before allocates the message slice and nothing else.
func TestFetchKeysInterned(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 0)
	for i := 0; i < 256; i++ {
		produceTo(topic, 0, fmt.Sprintf("page-%02d", i%64), []byte("value"))
	}
	topic.Fetch(0, 0, 256) // first sight of every key
	allocs := testing.AllocsPerRun(20, func() {
		if msgs, _, _, _ := topic.Fetch(0, 0, 256); len(msgs) != 256 {
			t.Fatalf("fetched %d", len(msgs))
		}
	})
	if allocs > 1 {
		t.Fatalf("fetch of 256 records with known keys: %.0f allocations, want 1", allocs)
	}
}

// TestRetainedBytes: the gauge counts whole chunks, the partly filled
// tail included, and falls as retention releases chunks.
func TestRetainedBytes(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 2, 100)
	if n := topic.RetainedBytes(); n != 0 {
		t.Fatalf("empty topic retains %d bytes", n)
	}
	produceTo(topic, 0, "k", []byte("v"))
	if n := topic.RetainedBytes(); n < chunkSize || n > chunkSize+64 {
		t.Fatalf("one record retains %d bytes, want one chunk (%d) and its end table", n, chunkSize)
	}
	val := make([]byte, 1000)
	for i := 0; i < 10000; i++ {
		produceTo(topic, 1, "k", val)
	}
	// 100 retained records of ~1 KiB span at most three chunks.
	if n := topic.RetainedBytes(); n > 4*chunkSize+4096 {
		t.Fatalf("retention 100 of 1 KiB records retains %d bytes", n)
	}
}

// racedValue encodes (producer, seq) and pads to a seq-dependent length
// with a seq-dependent byte, which deflates well.
func racedValue(dst []byte, p, seq int) []byte {
	dst = fmt.Appendf(dst[:0], "%d:%06d:", p, seq)
	for i := 0; i < 40+seq%200; i++ {
		dst = append(dst, byte(seq*31+p))
	}
	return dst
}

// checkRaced reports a message whose value is not a racedValue or whose
// one header does not repeat it.
func checkRaced(m Message) error {
	var p, seq int
	if _, err := fmt.Sscanf(string(m.Value), "%d:%06d:", &p, &seq); err != nil {
		return fmt.Errorf("offset %d: unparseable value %q", m.Offset, m.Value)
	}
	if want := racedValue(nil, p, seq); !bytes.Equal(m.Value, want) {
		return fmt.Errorf("offset %d: value corrupted", m.Offset)
	}
	if len(m.Headers) != 1 || !bytes.Equal(m.Headers[0].Value, m.Value) {
		return fmt.Errorf("offset %d: header corrupted", m.Offset)
	}
	return nil
}

// produceRaced starts producers goroutines appending perProducer
// racedValue records each to partition 0 through reused value and header
// buffers, the header repeating the value.
func produceRaced(topic *Topic, wg *sync.WaitGroup, producers, perProducer int) {
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var val []byte
			hdrs := []Header{{Key: "trace"}}
			for seq := 0; seq < perProducer; seq++ {
				val = racedValue(val, p, seq)
				hdrs[0].Value = append(hdrs[0].Value[:0], val...)
				topic.ProduceBatchTo(0, []Record{{Key: "k", Value: val, Headers: hdrs}})
			}
		}(p)
	}
}

// TestFetchRaceWithRetention runs under -race in CI: fetchers hold the
// values and headers of earlier fetches and re-check them while
// producers append through reused buffers and retention drops chunks.
func TestFetchRaceWithRetention(t *testing.T) {
	topic, _ := NewBroker().CreateTopic("t", 1, 500)
	const producers, perProducer = 2, 4000
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 4)
	produceRaced(topic, &wg, producers, perProducer)
	var fetchers sync.WaitGroup
	for f := 0; f < 2; f++ {
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			var held []Message
			for off := uint64(0); ; {
				select {
				case <-done:
					return
				default:
				}
				msgs, next, _, _ := topic.Fetch(0, off, 64)
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
				off = next
			}
		}()
	}
	wg.Wait()
	close(done)
	fetchers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if end := topic.EndOffset(0); end != producers*perProducer {
		t.Fatalf("end offset %d, want %d", end, producers*perProducer)
	}
}
