// batch.go is the store's one write path: ObserveBatch lands a slice of
// observations with one shard-lock acquisition per shard group, the
// write-side analogue of the query path's single-RLock per-shard gather.
// A caller with one observation passes a one-element slice.
package store

import (
	"time"

	"repro/internal/freelist"
	"repro/internal/trace"
)

// ObserveBatch absorbs obs as one batched write. The entire batch is
// validated first by MetricTable.Check — every metric registered (else
// an error wrapping ErrUnknownMetric), every key non-empty, every time
// non-negative, the rule the cluster router and Lambda share — and a
// validation failure
// absorbs NOTHING, which is what makes admission shedding provable.
// Observations older than their entry's retention window are silently
// dropped and counted in Stats.DroppedLate (the caller cannot usefully
// retry them, which is the Kafka-consumer convention for truncated
// reads). An accepted batch is byte-identical to the same observations
// fed one per call: observations are grouped by home shard preserving
// input order — per-(metric,key) order is what synopsis state depends
// on, and a key's writes all land in the same group — and inside a
// group every per-write effect runs in input order (late-drop
// accounting, bucket advance, eviction). An empty batch is a no-op.
func (s *Store) ObserveBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	if err := s.metrics.Check(obs); err != nil {
		return err
	}
	// Registration only adds, so this later snapshot holds every metric
	// Check saw.
	protos := s.metrics.Table()
	if len(obs) == 1 {
		// One write has one group: skip the sort and its buffer, so a
		// single observation allocates nothing.
		s.observeShardBatch(s.shardIndex(entryKey{metric: obs[0].Metric, key: obs[0].Key}), []int{0}, obs, protos)
		return nil
	}
	buf := groupBufs.Get()
	order, bounds := groupIndices(buf, len(obs), len(s.shards), func(i int) int {
		return int(s.shardIndex(entryKey{metric: obs[i].Metric, key: obs[i].Key}))
	})
	for idx := range s.shards {
		if group := order[bounds[idx]:bounds[idx+1]]; len(group) > 0 {
			s.observeShardBatch(uint32(idx), group, obs, protos)
		}
	}
	putGroupBuf(buf)
	return nil
}

// groupBufs keeps the buffers groupIndices works in, so a batched write
// does not allocate one per batch. It is a free list, not a sync.Pool, so
// that the heap a process holds after a collection does not depend on
// when the last one ran.
var groupBufs = freelist.List[[]int]{New: func() *[]int { return new([]int) }, Max: 4}

// maxGroupBuf is the largest buffer, in ints, putGroupBuf keeps: a
// 2 048-observation batch over 64 groups. A larger one, grown for one
// outsized batch, goes to the collector instead of staying on the list.
const maxGroupBuf = 2*2048 + 64 + 2

func putGroupBuf(buf *[]int) {
	if cap(*buf) <= maxGroupBuf {
		groupBufs.Put(buf)
	}
}

// groupIndices sorts the indices 0..n-1 by group(i), which must lie in
// [0, groups), keeping input order inside a group: group g's indices
// are order[bounds[g]:bounds[g+1]]. It is a counting sort in *buf,
// grown when too small; order and bounds live there, so they are good
// until the buffer is reused — the batched write paths (here by home
// shard, LogWriter by partition) group every request this way, in a
// buffer from groupBufs.
func groupIndices(buf *[]int, n, groups int, group func(i int) int) (order, bounds []int) {
	size := 2*n + groups + 2
	if cap(*buf) < size {
		*buf = make([]int, size)
	}
	b := (*buf)[:size]
	home, order, next := b[:n], b[n:2*n], b[2*n:]
	clear(next)
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
// of the shard lock, running every per-write effect in input order.
// When a tracer is wired and the group holds a sampled observation, the
// group gets one store.observe span on the first such observation's
// trace. protos is the metric table snapshot the batch was checked against.
func (s *Store) observeShardBatch(idx uint32, group []int, obs []Observation, protos map[string]Prototype) {
	sh := s.shards[idx]
	var sp *trace.Span
	if s.trc != nil {
		for _, i := range group {
			if o := &obs[i]; o.Trace.Valid() {
				sp = s.trc.StartRemote(o.Trace, "store.observe")
				sp.SetAttrs(trace.Str("metric", o.Metric), trace.Int("shard", int64(idx)),
					trace.Int("observations", int64(len(group))))
				break
			}
		}
	}
	var observed, droppedLate uint64
	if sp != nil {
		t0 := time.Now()
		sh.mu.Lock()
		sp.SetAttrs(trace.Int("lock_wait_ns", int64(time.Since(t0))))
	} else {
		sh.mu.Lock()
	}
	for _, i := range group {
		o := obs[i]
		e := sh.getOrCreate(entryKey{metric: o.Metric, key: o.Key})
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
	sp.Finish()
}
