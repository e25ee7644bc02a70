package mqlog

import "testing"

func newReaderTopic(t *testing.T, partitions, retention int) (*Broker, *Topic) {
	t.Helper()
	b := NewBroker()
	topic, err := b.CreateTopic("r", partitions, retention)
	if err != nil {
		t.Fatal(err)
	}
	return b, topic
}

func TestReaderBoundedAtFrozenEnd(t *testing.T) {
	_, topic := newReaderTopic(t, 1, 0)
	for i := 0; i < 10; i++ {
		produceTo(topic, 0, "k", []byte{byte(i)})
	}
	end := topic.EndOffset(0)
	// Produce past the freeze point: the reader must never see these.
	for i := 10; i < 15; i++ {
		produceTo(topic, 0, "k", []byte{byte(i)})
	}
	r, err := topic.NewReader(0, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		msgs := r.Next(3)
		if msgs == nil {
			break
		}
		for _, m := range msgs {
			got = append(got, m.Value[0])
		}
	}
	if len(got) != 10 {
		t.Fatalf("read %d messages, want 10", len(got))
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("message %d has value %d", i, v)
		}
	}
	if r.Offset() != end {
		t.Fatalf("resume offset %d, want %d", r.Offset(), end)
	}
	if r.Truncated() {
		t.Fatal("truncated on an untruncated log")
	}
}

func TestReaderStopsShortOfUnproducedEnd(t *testing.T) {
	_, topic := newReaderTopic(t, 1, 0)
	for i := 0; i < 4; i++ {
		produceTo(topic, 0, "k", nil)
	}
	// Bound beyond the produced log: reader drains what exists and parks.
	r, err := topic.NewReader(0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		msgs := r.Next(10)
		if msgs == nil {
			break
		}
		n += len(msgs)
	}
	if n != 4 {
		t.Fatalf("read %d, want 4", n)
	}
	if r.Offset() != 4 {
		t.Fatalf("parked at %d, want 4", r.Offset())
	}
	// New messages become visible to subsequent Next calls, still bounded.
	for i := 0; i < 200; i++ {
		produceTo(topic, 0, "k", nil)
	}
	for {
		msgs := r.Next(64)
		if msgs == nil {
			break
		}
		n += len(msgs)
	}
	if n != 100 {
		t.Fatalf("total read %d, want the 100 bound", n)
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	_, topic := newReaderTopic(t, 1, 8)
	for i := 0; i < 20; i++ {
		produceTo(topic, 0, "k", []byte{byte(i)})
	}
	// Offsets 0..11 are gone (retention 8 of 20); a reader over [0, 20)
	// resumes at the oldest retained and reports the loss.
	r, err := topic.NewReader(0, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		msgs := r.Next(5)
		if msgs == nil {
			break
		}
		for _, m := range msgs {
			got = append(got, m.Value[0])
		}
	}
	if !r.Truncated() {
		t.Fatal("truncation not reported")
	}
	if len(got) != 8 || got[0] != 12 {
		t.Fatalf("got %d messages starting at %d, want 8 starting at 12", len(got), got[0])
	}
}

func TestReaderTruncationPastBound(t *testing.T) {
	_, topic := newReaderTopic(t, 1, 4)
	for i := 0; i < 6; i++ {
		produceTo(topic, 0, "k", nil)
	}
	// Freeze at 6, then let retention push the start past the bound.
	for i := 0; i < 20; i++ {
		produceTo(topic, 0, "k", nil)
	}
	r, err := topic.NewReader(0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := r.Next(10); msgs != nil {
		t.Fatalf("reader leaked %d post-bound messages", len(msgs))
	}
	if !r.Truncated() {
		t.Fatal("truncation not reported")
	}
}

func TestReaderClampParksAtFirstWithheldOffset(t *testing.T) {
	_, topic := newReaderTopic(t, 1, 4)
	// Retained suffix [4, 8) straddles the bound 6: a single fetch resets
	// to 4 and returns 4..7; the reader must deliver 4..5, withhold 6..7,
	// and park at 6 — committing Offset() must not skip the withheld two.
	for i := 0; i < 8; i++ {
		produceTo(topic, 0, "k", []byte{byte(i)})
	}
	r, err := topic.NewReader(0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	msgs := r.Next(10)
	if len(msgs) != 2 || msgs[0].Offset != 4 || msgs[1].Offset != 5 {
		t.Fatalf("clamped batch %v", msgs)
	}
	if !r.Truncated() {
		t.Fatal("truncation not reported")
	}
	if r.Offset() != 6 {
		t.Fatalf("parked at %d, want the first withheld offset 6", r.Offset())
	}
	if more := r.Next(10); more != nil {
		t.Fatalf("reader past its bound returned %v", more)
	}
}

func TestReaderValidation(t *testing.T) {
	_, topic := newReaderTopic(t, 2, 0)
	if _, err := topic.NewReader(2, 0, 1); err == nil {
		t.Fatal("out-of-range pid accepted")
	}
	if _, err := topic.NewReader(0, 5, 1); err == nil {
		t.Fatal("from > end accepted")
	}
	r, err := topic.NewReader(1, 3, 3)
	if err != nil {
		t.Fatalf("empty range rejected: %v", err)
	}
	if msgs := r.Next(10); msgs != nil {
		t.Fatal("empty range returned messages")
	}
}
