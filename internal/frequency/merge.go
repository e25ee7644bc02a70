package frequency

import "repro/internal/core"

// Merger merges Space-Saving summaries once, all together: the k-way form
// of SpaceSaving.Merge, with one truncation to k where a pairwise fold
// truncates after every step. An item's count and error are sums over
// the parts. A part that holds the item adds its counter there; a part
// that does not adds its floor — its minimum count if it is full, else 0
// — because the item may have occurred that often in it unseen. The k
// items of largest count are kept, ties to the smaller item. Sums do not
// depend on the order of their terms, and the kept set is a sort by a
// total order, so the result does not depend on the order of the parts.
//
// Guarantees, for parts that each satisfy the invariants Update keeps —
// every count at least its item's true count and at most that plus its
// Err, every unheld item's true count at most the part's floor, every
// Err at most the floor and the counts summing to at most the part's n —
// over N, the total of the parts' n:
//   - every answer overestimates its item by at most its Err;
//   - every Err is at most the sum of the floors, which is at most N/k;
//   - every item with true count > N/k is kept;
//   - the result satisfies the same invariants, so merging results again
//     keeps all three.
//
// DESIGN.md ("Top-k: one merge, flat buckets") gives the proofs.
//
// The zero Merger is ready to use. Result leaves it empty for the next
// merge, keeping its scratch; a Merger is not safe for concurrent use.
type Merger struct {
	k      int
	parts  int
	n      uint64
	floors uint64         // the floors of every part added, summed
	idx    map[string]int // item -> its index in acc and held
	acc    []Counted      // per item: counts and errors summed over the parts holding it
	held   []uint64       // per item: the floors of the parts holding it, summed
}

// Add adds one part. Every part must have the k of the first: a part of
// another k, or a nil one, is ErrIncompatible and leaves m unchanged.
// part is only read; it may be flat.
func (m *Merger) Add(part *SpaceSaving) error {
	if part == nil || (m.parts > 0 && part.k != m.k) {
		return core.ErrIncompatible
	}
	if m.idx == nil {
		m.idx = make(map[string]int, part.k)
	}
	m.k = part.k
	m.parts++
	m.n += part.n
	floor := part.floor()
	m.floors += floor
	if part.flat {
		for _, c := range part.counters {
			m.add(c.Item, c.Count, c.Err, floor)
		}
		return nil
	}
	for it, n := range part.elem {
		m.add(it, n.bucket.count, n.err, floor)
	}
	return nil
}

func (m *Merger) add(item string, count, err, floor uint64) {
	i, ok := m.idx[item]
	if !ok {
		i = len(m.acc)
		m.idx[item] = i
		m.acc = append(m.acc, Counted{Item: item})
		m.held = append(m.held, 0)
	}
	m.acc[i].Count += count
	m.acc[i].Err += err
	m.held[i] += floor
}

// merged completes every item's sums with the floors of the parts not
// holding it and returns the k largest in TopK order. The slice is m's
// scratch.
func (m *Merger) merged() []Counted {
	for i := range m.acc {
		unheld := m.floors - m.held[i]
		m.acc[i].Count += unheld
		m.acc[i].Err += unheld
	}
	sortCounted(m.acc)
	return m.acc[:min(len(m.acc), m.k)]
}

// Result returns the merge of the parts added as a flat summary (see
// SpaceSaving) and empties m for reuse, or nil when no part was added.
func (m *Merger) Result() *SpaceSaving {
	if m.parts == 0 {
		return nil
	}
	top := m.merged()
	out := newFlat(m.k, m.n, append(make([]Counted, 0, len(top)), top...))
	m.Reset()
	return out
}

// Reset empties m, keeping its scratch and dropping its references to
// the parts' items.
func (m *Merger) Reset() {
	clear(m.idx)
	clear(m.acc)
	m.acc, m.held = m.acc[:0], m.held[:0]
	m.k, m.parts, m.n, m.floors = 0, 0, 0, 0
}
