package store

import (
	"fmt"
	"testing"
)

// frozenProtos returns the metric table the frozen-view tests register.
func frozenProtos(t *testing.T) map[string]Prototype {
	t.Helper()
	proto, err := NewDistinctProto(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Prototype{"uniq": proto}
}

// TestReplayPartitionToStopsAtBound: observations produced after the
// freeze must not land in the store, and the resume offset is the bound.
func TestReplayPartitionToStopsAtBound(t *testing.T) {
	_, topic, newStore := replayFixture(t, 1, 0, 100)
	end := topic.EndOffset(0)
	// Post-freeze traffic on the same series.
	for i := 100; i < 150; i++ {
		obs := Observation{Metric: "uniq", Key: "k0", Item: fmt.Sprintf("u%d", i), Time: int64(i)}
		topic.Produce(obs.Key, EncodeObservation(obs))
	}
	st := newStore()
	rs, err := ReplayPartitionTo(st, topic, 0, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Truncated {
		t.Fatal("unexpected truncation")
	}
	if rs.Next != end {
		t.Fatalf("next %d != frozen end %d", rs.Next, end)
	}
	if rs.Applied != 100 {
		t.Fatalf("applied %d, want the 100 pre-freeze observations", rs.Applied)
	}
	// A second store covering the suffix [end, live-end) completes the log:
	// the two applied counts partition the whole stream.
	tail := newStore()
	suffix, err := ReplayPartitionTo(tail, topic, 0, end, topic.EndOffset(0))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied+suffix.Applied != 150 {
		t.Fatalf("prefix %d + suffix %d != 150: the bound leaked or dropped", rs.Applied, suffix.Applied)
	}
}

// TestFreezeAtIsSealedAgainstLaterProduce: a frozen view's answers must
// not move when the log keeps growing — that is what distinguishes a
// batch view from Rebuild's "everything retained right now".
func TestFreezeAtIsSealedAgainstLaterProduce(t *testing.T) {
	_, topic, _ := replayFixture(t, 4, 0, 1000)
	protos := frozenProtos(t)
	cfg := Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
	ends := topic.EndOffsets()
	v, err := FreezeAtFrom(cfg, protos, topic, ends, "")
	if err != nil {
		t.Fatal(err)
	}
	if v.Applied() != 1000 {
		t.Fatalf("freeze applied %d, want 1000", v.Applied())
	}
	if v.Truncated() {
		t.Fatal("unexpected truncation")
	}
	before := make(map[string]float64)
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%d", k)
		syn, err := queryPoint(v, "uniq", key, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		before[key] = syn.(*Distinct).Estimate()
	}
	// The log grows past the freeze; the view must not notice.
	for i := 1000; i < 2000; i++ {
		obs := Observation{Metric: "uniq", Key: fmt.Sprintf("k%d", i%7), Item: fmt.Sprintf("u%d", i), Time: int64(i % 1000)}
		topic.Produce(obs.Key, EncodeObservation(obs))
	}
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%d", k)
		syn, err := queryPoint(v, "uniq", key, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if got := syn.(*Distinct).Estimate(); got != before[key] {
			t.Fatalf("key %s: sealed view moved %v -> %v after post-freeze produce", key, before[key], got)
		}
	}
	// And a view frozen at the same old bounds now answers identically:
	// the bound, not the call time, defines the view.
	again, err := FreezeAtFrom(cfg, protos, topic, ends, "")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%d", k)
		syn, err := queryPoint(again, "uniq", key, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if got := syn.(*Distinct).Estimate(); got != before[key] {
			t.Fatalf("key %s: refreeze at same bounds differs: %v != %v", key, got, before[key])
		}
	}
	if len(v.Keys("uniq")) != 7 {
		t.Fatalf("view holds %d keys, want 7", len(v.Keys("uniq")))
	}
	if ends2 := v.EndOffsets(); len(ends2) != 4 {
		t.Fatalf("EndOffsets len %d", len(ends2))
	}
}

// TestFreezeAtValidation pins the error surface.
func TestFreezeAtValidation(t *testing.T) {
	_, topic, _ := replayFixture(t, 2, 0, 10)
	protos := frozenProtos(t)
	cfg := Config{Shards: 2, BucketWidth: 100, RingBuckets: 8}
	if _, err := FreezeAtFrom(cfg, protos, nil, []uint64{0, 0}, ""); err == nil {
		t.Fatal("nil topic accepted")
	}
	if _, err := FreezeAtFrom(cfg, protos, topic, []uint64{0}, ""); err == nil {
		t.Fatal("mismatched ends length accepted")
	}
	if _, err := FreezeAtFrom(Config{Shards: -1}, protos, topic, topic.EndOffsets(), ""); err == nil {
		t.Fatal("invalid store config accepted")
	}
}

// TestFreezeAtSkipsPoisonMessages: a decodable message naming an
// unregistered metric, one with an empty key, one with a negative time,
// or undecodable garbage, must not wedge the recompute — the batch
// layer has to be able to advance past garbage it can never fix, the
// same convention the cluster's recovery replay uses (both skip through
// ReplayPartitionTo). Every kind counts as rejected.
func TestFreezeAtSkipsPoisonMessages(t *testing.T) {
	_, topic, _ := replayFixture(t, 1, 0, 20)
	poison := Observation{Metric: "ghost", Key: "k0", Item: "u", Time: 1}
	topic.Produce(poison.Key, EncodeObservation(poison))
	topic.Produce("k0", []byte{0xff, 0xff})
	keyless := Observation{Metric: "uniq", Item: "u", Time: 1}
	topic.Produce("k0", EncodeObservation(keyless))
	backwards := Observation{Metric: "uniq", Key: "k0", Item: "u", Time: -1}
	topic.Produce(backwards.Key, EncodeObservation(backwards))
	good := Observation{Metric: "uniq", Key: "k0", Item: "u-last", Time: 2}
	topic.Produce(good.Key, EncodeObservation(good))
	v, err := FreezeAtFrom(Config{Shards: 2, BucketWidth: 100, RingBuckets: 64}, frozenProtos(t), topic, topic.EndOffsets(), "")
	if err != nil {
		t.Fatalf("poison message wedged the recompute: %v", err)
	}
	if v.Applied() != 21 {
		t.Fatalf("applied %d, want the 21 good observations", v.Applied())
	}
	if v.Rejected() != 4 {
		t.Fatalf("rejected %d poison messages, want 4", v.Rejected())
	}
}

// TestFreezeAtReportsRetentionLoss: bounds covering history retention has
// dropped must replay what survives and report the loss.
func TestFreezeAtReportsRetentionLoss(t *testing.T) {
	const retention = 64
	_, topic, _ := replayFixture(t, 1, retention, 500)
	v, err := FreezeAtFrom(Config{Shards: 2, BucketWidth: 100, RingBuckets: 64}, frozenProtos(t), topic, topic.EndOffsets(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Truncated() {
		t.Fatal("retention loss not reported")
	}
	if v.Applied() != retention {
		t.Fatalf("applied %d, retained suffix is %d", v.Applied(), retention)
	}
}
