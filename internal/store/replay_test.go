package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mqlog"
)

// replayFixture builds a topic carrying n encoded observations over parts
// partitions (keyed so each series sticks to one partition) plus a store
// factory with a distinct-count metric registered.
func replayFixture(t *testing.T, parts, retention, n int) (*mqlog.Broker, *mqlog.Topic, func() *Store) {
	t.Helper()
	broker := mqlog.NewBroker()
	topic, err := broker.CreateTopic("events", parts, retention)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		obs := Observation{
			Metric: "uniq",
			Key:    fmt.Sprintf("k%d", i%7),
			Item:   fmt.Sprintf("u%d", i),
			Time:   int64(i),
		}
		topic.Produce(obs.Key, EncodeObservation(obs))
	}
	proto, err := NewDistinctProto(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() *Store {
		st, err := New(Config{Shards: 4, BucketWidth: 100, RingBuckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("uniq", proto); err != nil {
			t.Fatal(err)
		}
		return st
	}
	return broker, topic, newStore
}

func queryEstimate(t *testing.T, st *Store, key string, to int64) float64 {
	t.Helper()
	syn, err := queryPoint(st, "uniq", key, 0, to)
	if err != nil {
		t.Fatal(err)
	}
	return syn.(*Distinct).Estimate()
}

// TestReplayResumesFromCommittedOffsets is the consumer-restart story: a
// store consumes half the log, commits its positions through a consumer
// group, "restarts" (same store, the positions survive in the broker), and
// resumes replaying from the committed offsets. Nothing may be double-
// counted and nothing skipped: the total applied count is exactly the log
// size and every query answer matches a store that replayed in one pass.
func TestReplayResumesFromCommittedOffsets(t *testing.T) {
	const total = 2000
	broker, topic, newStore := replayFixture(t, 4, 0, total)
	group, err := mqlog.NewConsumerGroup(broker, topic, "speed")
	if err != nil {
		t.Fatal(err)
	}
	group.Join("node-0")

	st := newStore()
	var applied uint64
	// First leg: consume roughly half of each partition the way a live
	// consumer does — fetch, apply, commit the next offset — then "crash"
	// with the store intact and the positions durable in the broker.
	for pid := 0; pid < topic.Partitions(); pid++ {
		mid := topic.EndOffset(pid) / 2
		if mid == 0 {
			// Nothing routed here (or a single message): Fetch rejects
			// max <= 0 by contract, so there is no half-consumed leg.
			continue
		}
		msgs, next, _, err := topic.Fetch(pid, 0, int(mid))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			obs, ok := st.DecodeRecord(m.Value)
			if !ok {
				t.Fatalf("undecodable message at pid %d offset %d", pid, m.Offset)
			}
			if err := st.ObserveBatch([]Observation{obs}); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		group.Commit(pid, next)
	}

	// Restart leg: resume each partition from its committed offset.
	for pid := 0; pid < topic.Partitions(); pid++ {
		from := broker.Committed("speed", "events", pid)
		rs, err := ReplayPartitionTo(st, topic, pid, from, topic.EndOffset(pid))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Truncated {
			t.Fatalf("pid %d: unexpected truncation on an unbounded topic", pid)
		}
		if rs.Next != topic.EndOffset(pid) {
			t.Fatalf("pid %d: resumed replay stopped at %d, end is %d", pid, rs.Next, topic.EndOffset(pid))
		}
		applied += rs.Applied
		group.Commit(pid, rs.Next)
	}
	if applied != total {
		t.Fatalf("two-leg replay applied %d observations, log has %d (double count or skip)", applied, total)
	}
	if lag := broker.Lag("speed", topic); lag != 0 {
		t.Fatalf("lag %d after full resume", lag)
	}

	// One-pass oracle.
	oracle := newStore()
	if n, err := replayAll(oracle, topic); err != nil || n != total {
		t.Fatalf("oracle replay: n=%d err=%v", n, err)
	}
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%d", k)
		got, want := queryEstimate(t, st, key, total), queryEstimate(t, oracle, key, total)
		if got != want {
			t.Fatalf("key %s: resumed store %v != one-pass oracle %v", key, got, want)
		}
	}
}

// TestReplayPartitionTruncatedOffset is the retention race: the committed
// offset points below the oldest retained message, so the resume must
// report truncation, restart at the earliest retained offset (never loop
// or double-read), and apply exactly the retained suffix.
func TestReplayPartitionTruncatedOffset(t *testing.T) {
	const retention = 64
	_, topic, newStore := replayFixture(t, 1, retention, 500)
	if start := topic.StartOffset(0); start == 0 {
		t.Fatal("retention did not truncate the partition")
	}
	st := newStore()
	rs, err := ReplayPartitionTo(st, topic, 0, 3, topic.EndOffset(0))
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Truncated {
		t.Fatal("replay from a truncated offset did not report truncation")
	}
	if rs.Applied != retention {
		t.Fatalf("applied %d observations, retained suffix is %d", rs.Applied, retention)
	}
	if rs.Next != topic.EndOffset(0) {
		t.Fatalf("next %d != end %d", rs.Next, topic.EndOffset(0))
	}
}

// TestReplayPartitionValidation pins the error surface.
func TestReplayPartitionValidation(t *testing.T) {
	_, topic, newStore := replayFixture(t, 1, 0, 10)
	if _, err := ReplayPartitionTo(nil, topic, 0, 0, 0); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := ReplayPartitionTo(newStore(), nil, 0, 0, 0); err == nil {
		t.Fatal("nil topic accepted")
	}
	if _, err := ReplayPartitionTo(newStore(), topic, 9, 0, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// TestLogWriterMatchesProduce holds LogWriter to the log it replaces:
// one seeded stream, appended through LogWriter.Append in batches of 1, 7
// and 256 and, on a second topic, one Produce per observation, leaves
// every partition holding the same (Key, Value, Offset) sequence, with
// no headers when no tracer is passed. The writer reuses its scratch
// after every append, so a log that aliased it would differ too.
func TestLogWriterMatchesProduce(t *testing.T) {
	const parts = 5
	batched, err := mqlog.NewBroker().CreateTopic("events", parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := mqlog.NewBroker().CreateTopic("events", parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	stream := make([]Observation, 3000)
	for i := range stream {
		stream[i] = Observation{
			Metric: fmt.Sprintf("m%d", rng.Intn(3)),
			Key:    fmt.Sprintf("k%d", rng.Intn(40)),
			Item:   fmt.Sprintf("u%d", rng.Intn(1000)),
			Value:  uint64(rng.Intn(1 << 20)),
			Time:   rng.Int63n(1 << 40),
		}
	}
	w := NewLogWriter(batched)
	sizes := []int{1, 7, 256}
	for at, b := 0, 0; at < len(stream); b++ {
		n := min(sizes[b%len(sizes)], len(stream)-at)
		w.Append(stream[at:at+n], nil)
		at += n
	}
	for _, obs := range stream {
		single.Produce(obs.Key, EncodeObservation(obs))
	}
	for pid := 0; pid < parts; pid++ {
		got, _, _, err := batched.Fetch(pid, 0, len(stream))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := single.Fetch(pid, 0, len(stream))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("partition %d: no keys route to it; widen the key set", pid)
		}
		if len(got) != len(want) {
			t.Fatalf("partition %d: LogWriter wrote %d records, Produce %d", pid, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || g.Offset != w.Offset || len(g.Headers) != 0 {
				t.Fatalf("partition %d record %d: LogWriter %+v, Produce %+v", pid, i, g, w)
			}
		}
	}
}
