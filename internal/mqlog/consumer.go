package mqlog

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// ConsumerGroup coordinates a set of named consumers over one topic:
// partitions are range-assigned to the sorted member list, and every
// membership change triggers a rebalance, as in Kafka's classic group
// protocol. Poll reads from the caller's assigned partitions only and
// Commit advances the group's offsets, so messages are delivered to
// exactly one member per group (at-least-once across rebalances).
type ConsumerGroup struct {
	mu      sync.Mutex
	broker  *Broker
	topic   *Topic
	name    string
	members []string
	// assignment[member] = partition ids
	assignment map[string][]int
	generation int
	// cursors[member] rotates each Poll's partition scan start, so when
	// the budget is smaller than the assignment no partition is starved.
	cursors map[string]int
}

// NewConsumerGroup returns a consumer group over the topic.
func NewConsumerGroup(broker *Broker, topic *Topic, name string) (*ConsumerGroup, error) {
	if broker == nil || topic == nil {
		return nil, core.Errf("ConsumerGroup", "broker/topic", "must be non-nil")
	}
	if name == "" {
		return nil, core.Errf("ConsumerGroup", "name", "must be non-empty")
	}
	return &ConsumerGroup{
		broker:     broker,
		topic:      topic,
		name:       name,
		assignment: make(map[string][]int),
		cursors:    make(map[string]int),
	}, nil
}

// Join adds a member and rebalances. Joining twice is a no-op.
func (g *ConsumerGroup) Join(member string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m == member {
			return
		}
	}
	g.members = append(g.members, member)
	g.rebalance()
}

// Leave removes a member and rebalances; its partitions move to survivors.
func (g *ConsumerGroup) Leave(member string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == member {
			g.members = append(g.members[:i], g.members[i+1:]...)
			delete(g.cursors, member)
			g.rebalance()
			return
		}
	}
}

// rebalance performs range assignment over the sorted member list.
// Callers hold g.mu.
func (g *ConsumerGroup) rebalance() {
	g.generation++
	g.assignment = make(map[string][]int)
	if len(g.members) == 0 {
		return
	}
	sorted := append([]string(nil), g.members...)
	sort.Strings(sorted)
	nParts := g.topic.Partitions()
	for pid := 0; pid < nParts; pid++ {
		m := sorted[pid%len(sorted)]
		g.assignment[m] = append(g.assignment[m], pid)
	}
}

// Assignment returns the member's current partitions.
func (g *ConsumerGroup) Assignment(member string) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.assignment[member]...)
}

// Owner returns the member currently assigned the partition and the
// generation of that assignment — the inverse of Assignment, used by
// query routers to find which consumer serves a key's partition.
func (g *ConsumerGroup) Owner(partitionID int) (member string, generation int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for m, parts := range g.assignment {
		for _, pid := range parts {
			if pid == partitionID {
				return m, g.generation, true
			}
		}
	}
	return "", g.generation, false
}

// Owners returns the whole partition -> member assignment, indexed by
// partition id ("" = unowned), plus the generation it was read at — one
// lock acquisition for callers resolving many keys (a scatter-gather
// router), where per-key Owner calls would rescan the assignment each
// time.
func (g *ConsumerGroup) Owners() (byPartition []string, generation int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, g.topic.Partitions())
	for m, parts := range g.assignment {
		for _, pid := range parts {
			out[pid] = m
		}
	}
	return out, g.generation
}

// Members returns the current member names, sorted.
func (g *ConsumerGroup) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := append([]string(nil), g.members...)
	sort.Strings(out)
	return out
}

// Generation returns the rebalance generation, bumped on every membership
// change.
func (g *ConsumerGroup) Generation() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// Poll fetches up to max messages for the member from its assigned
// partitions, starting at the group's committed offsets. The budget is
// divided fairly across the assigned partitions (Kafka's per-partition
// fetch cap), so one backlogged partition cannot starve the others and a
// consumer behind on several partitions sees them interleaved, not
// drained one partition at a time; any unused share is then offered to
// partitions with more backlog. The scan start rotates across calls, so
// even a budget smaller than the assignment (share clamped to 1) reaches
// every partition within a few polls instead of always feeding the first
// few. It does NOT commit; pair with Commit after processing for
// at-least-once semantics.
func (g *ConsumerGroup) Poll(member string, max int) []PartitionBatch {
	g.mu.Lock()
	parts := append([]int(nil), g.assignment[member]...)
	if n := len(parts); n > 0 {
		rot := g.cursors[member] % n
		g.cursors[member] = rot + 1
		parts = append(parts[rot:], parts[:rot]...)
	}
	g.mu.Unlock()
	if len(parts) == 0 || max <= 0 {
		return nil
	}

	share := max / len(parts)
	if share < 1 {
		share = 1
	}
	var out []PartitionBatch
	remaining := max
	for _, pid := range parts {
		if remaining <= 0 {
			break
		}
		cap := share
		if cap > remaining {
			cap = remaining
		}
		offset := g.broker.Committed(g.name, g.topic.name, pid)
		msgs, next, _, err := g.topic.Fetch(pid, offset, cap)
		if err != nil || len(msgs) == 0 {
			continue
		}
		out = append(out, PartitionBatch{Partition: pid, Messages: msgs, Next: next})
		remaining -= len(msgs)
	}
	// Second pass: hand the leftover budget to partitions that still have
	// backlog beyond their fair share.
	for i := range out {
		if remaining <= 0 {
			break
		}
		b := &out[i]
		msgs, next, _, err := g.topic.Fetch(b.Partition, b.Next, remaining)
		if err != nil || len(msgs) == 0 {
			continue
		}
		b.Messages = append(b.Messages, msgs...)
		b.Next = next
		remaining -= len(msgs)
	}
	return out
}

// Commit advances the group's offset for one partition (after processing).
func (g *ConsumerGroup) Commit(partitionID int, next uint64) {
	g.broker.Commit(g.name, g.topic.name, partitionID, next)
}

// CommitFenced advances the group's offset for one partition only if the
// member still owns it at the given generation, and reports whether the
// commit was applied. This is Kafka's generation fencing: a consumer that
// processed a batch, was preempted, and lost the partition in a rebalance
// must not clobber the new owner's position — a stale commit past the new
// owner's recovery point would silently skip messages. The ownership check
// and the broker commit happen under the group lock, which rebalances also
// hold, so a commit observed at generation G is ordered before any
// generation G+1 assignment.
func (g *ConsumerGroup) CommitFenced(member string, generation, partitionID int, next uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.generation != generation {
		return false
	}
	owned := false
	for _, pid := range g.assignment[member] {
		if pid == partitionID {
			owned = true
			break
		}
	}
	if !owned {
		return false
	}
	g.broker.Commit(g.name, g.topic.name, partitionID, next)
	return true
}

// PartitionBatch is one partition's slice of a Poll result.
type PartitionBatch struct {
	Partition int
	Messages  []Message
	Next      uint64 // offset to commit after processing Messages
}
