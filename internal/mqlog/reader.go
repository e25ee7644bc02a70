// reader.go is the end-offset-bounded replay reader: a sequential cursor
// over one partition's messages in [from, end), where end is a frozen
// bound the caller snapshotted (Topic.EndOffsets) rather than the moving
// end of the log. This is the primitive batch-layer recomputation needs —
// a batch view is defined by the log prefix it covers, so the reader must
// stop at the freeze point no matter how far producers have advanced the
// partition since — and the one log-based recovery uses too: every
// store rebuild (store.ReplayPartitionTo, under cluster node recovery,
// frozen batch views and Lambda's speed layer) reads through it.
package mqlog

import "repro/internal/core"

// Reader iterates one partition's retained messages in [offset, end).
// It is a single-consumer cursor: not safe for concurrent use, cheap to
// create, holding no partition locks between Next calls (each Next is one
// bounded fetch). Retention may truncate the requested range while the
// reader runs; reading resumes at the oldest retained message (Kafka's
// "earliest" reset) and Truncated latches that messages were lost.
type Reader struct {
	t         *Topic
	pid       int
	next      uint64
	end       uint64
	truncated bool
}

// NewReader returns a reader over the partition's messages in [from, end).
// end is an exclusive bound the caller typically snapshots from
// EndOffset/EndOffsets before starting; an end beyond the partition's
// current end simply means the reader drains what is retained and reports
// done. from > end is an error (an empty range is from == end).
func (t *Topic) NewReader(pid int, from, end uint64) (*Reader, error) {
	if pid < 0 || pid >= len(t.parts) {
		return nil, core.Errf("Reader", "pid", "%d out of range", pid)
	}
	if from > end {
		return nil, core.Errf("Reader", "range", "from %d > end %d", from, end)
	}
	return &Reader{t: t, pid: pid, next: from, end: end}, nil
}

// Next returns the next batch of up to max messages, or nil when the
// reader has reached its end bound (or the end of the retained log —
// whichever comes first; Offset distinguishes the two). Messages at or
// past the end bound are never returned, even when retention truncates
// the log under the reader and the fetch resumes past the bound.
func (r *Reader) Next(max int) []Message {
	if max <= 0 {
		return nil
	}
	for r.next < r.end {
		take := max
		if remaining := r.end - r.next; uint64(take) > remaining {
			take = int(remaining)
		}
		msgs, next, trunc := r.t.parts[r.pid].fetch(r.next, take)
		r.truncated = r.truncated || trunc
		if len(msgs) == 0 {
			// Caught up with the retained log short of the bound: the
			// remainder either was never produced or belongs to a live
			// consumer. Park at the resume point.
			r.next = next
			return nil
		}
		if msgs[0].Offset >= r.end {
			// Retention truncated the rest of the range away and the fetch
			// reset past the bound; nothing in [next, end) survives.
			r.next = r.end
			return nil
		}
		// A fetch that resumed after truncation can straddle the bound;
		// clamp the tail off rather than leak post-freeze messages — and
		// park at the first clamped offset, not the fetch's resume point,
		// so Offset never claims delivery of messages the clamp withheld
		// (a consumer committing it would silently skip them).
		clamped := false
		for i, m := range msgs {
			if m.Offset >= r.end {
				r.next = m.Offset
				msgs = msgs[:i]
				clamped = true
				break
			}
		}
		if !clamped {
			r.next = next
		}
		return msgs
	}
	return nil
}

// Offset returns the next offset the reader would consume — the resume
// point to commit when the reader is drained.
func (r *Reader) Offset() uint64 { return r.next }

// Truncated reports whether any part of the requested range was lost to
// retention before the reader got to it.
func (r *Reader) Truncated() bool { return r.truncated }
