// batch.go is the store's amortized write path: ObserveBatch lands a
// whole slice of observations with one shard-lock acquisition per shard
// group instead of one per observation, the write-side analogue of the
// query path's single-RLock per-shard gather.
package store

import (
	"time"

	"repro/internal/core"
)

// ObserveBatch absorbs obs as one batched write. The entire batch is
// validated first — every metric registered, every time non-negative —
// and a validation failure absorbs NOTHING (stricter than a loop of
// Observe, which mutates the prefix; this is what makes admission
// shedding provable). An accepted batch is byte-identical to feeding
// the same observations through Observe one at a time: observations
// are grouped by home shard preserving input order — per-(metric,key)
// order is what synopsis state depends on, and a key's writes all land
// in the same group — and inside a group every per-write effect of the
// plain path runs identically (late-drop accounting, ring advance,
// eviction). An empty batch is a no-op.
func (s *Store) ObserveBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	protos := make(map[string]Prototype, 4)
	for i := range obs {
		o := &obs[i]
		if o.Time < 0 {
			return core.Errf("Store", "Time", "%d must be >= 0", o.Time)
		}
		if _, ok := protos[o.Metric]; !ok {
			p, err := s.proto(o.Metric)
			if err != nil {
				return err
			}
			protos[o.Metric] = p
		}
	}
	order, bounds := GroupIndices(len(obs), len(s.shards), func(i int) int {
		return int(s.shardIndex(entryKey{metric: obs[i].Metric, key: obs[i].Key}))
	})
	for idx := range s.shards {
		if group := order[bounds[idx]:bounds[idx+1]]; len(group) > 0 {
			s.observeShardBatch(uint32(idx), group, obs, protos)
		}
	}
	return nil
}

// GroupIndices sorts the indices 0..n-1 by group(i), which must lie in
// [0, groups), keeping input order inside a group: group g's indices
// are order[bounds[g]:bounds[g+1]]. It is a counting sort in one
// allocation — the batched write paths (here by home shard, the
// cluster router by partition) group every request this way.
func GroupIndices(n, groups int, group func(i int) int) (order, bounds []int) {
	buf := make([]int, 2*n+groups+2)
	home, order, next := buf[:n], buf[n:2*n], buf[2*n:]
	// Count into next[g+2], so that after the prefix sums next[g+1] is
	// where group g starts; filling advances it to where g ends, which
	// leaves next[g] at g's start: next[:groups+1] are the bounds.
	for i := range home {
		home[i] = group(i)
		next[home[i]+2]++
	}
	for g := 2; g < len(next); g++ {
		next[g] += next[g-1]
	}
	for i, g := range home {
		order[next[g+1]] = i
		next[g+1]++
	}
	return order, next[:groups+1]
}

// observeShardBatch lands one shard's group under a single acquisition
// of the shard lock, running every per-write effect of the plain path
// in input order.
func (s *Store) observeShardBatch(idx uint32, group []int, obs []Observation, protos map[string]Prototype) {
	sh := s.shards[idx]
	var observed, droppedLate uint64
	if h := s.telLockWait; h != nil {
		t0 := time.Now()
		sh.mu.Lock()
		h.ObserveSince(t0)
	} else {
		sh.mu.Lock()
	}
	for _, i := range group {
		o := obs[i]
		if o.Time > sh.maxTime {
			sh.maxTime = o.Time
		}
		e := sh.getOrCreate(entryKey{metric: o.Metric, key: o.Key}, s.cfg.RingBuckets)
		dropped, err := s.writeLocked(sh, e, o, protos[o.Metric])
		if err != nil {
			// Unreachable after up-front validation (only a copy-on-write
			// clone of a mismatched family can fail, impossible within one
			// metric); skip the write rather than strand the batch.
			continue
		}
		if dropped {
			droppedLate++
			continue
		}
		s.evict(sh)
		observed++
	}
	sh.mu.Unlock()
	s.observed.Add(observed)
	s.droppedLate.Add(droppedLate)
}
