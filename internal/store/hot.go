// hot.go is the store's hot-key mitigation: write combining plus
// splaying for skewed streams. Real-world key popularity is Zipfian (the
// tutorial's trending hashtags and heavy-hitter applications assume it),
// and under Zipf keys a sharded store's ingest flatlines because the
// hottest keys serialize on their home shard's lock — experiment T2.4's
// known limitation — while churning through bucket synopses faster than
// cold keys ever would.
//
// The fix leans on the one property every bucket synopsis already
// guarantees: merging synopses of split streams equals the synopsis of
// the unsplit stream (within the sketch's error bound). That makes a hot
// series safe to *splay*: spread its writes over R sub-entries
// (replicas) living on R distinct shards, each absorbing a fraction of
// the traffic into its own bucket ring, re-combined lazily — queries
// merge all replicas through the existing Synopsis.Merge path, and
// demotion drains the replicas back into the home entry. Cold entries
// never see any of this.
//
// Writes to a hot key are *combined* before they are applied: a writer
// claims a slot in the route's current batch with one atomic increment
// and copies in (item, value, time) — no lock, no hash, no map lookup —
// and whichever writer fills the last slot seals the batch and flushes
// all of it into the next replica ring in one shard-lock acquisition.
// The per-write ring bookkeeping (bucket advance, seal checks, byte
// accounting, recency touch) collapses into per-batch and per-bucket-run
// work, which is what makes a hot key *cheaper* per observation than a
// cold one instead of a serialization point.
//
// Lifecycle (the hot-entry state machine, see DESIGN.md):
//
//		cold --promotion--> hot/splayed --demotion--> cold (again)
//
//	  - Detection. Each shard samples its write traffic into a Space-Saving
//	    tracker (internal/frequency — the same summary the store serves as a
//	    TopK synopsis). Every EpochWrites writes the shard harvests the
//	    tracker: any key charged more than PromotePct percent of the epoch
//	    is promoted into an immutable hot table read lock-free (one atomic
//	    pointer load) by every Observe.
//	  - Splayed writes. Batches flush bucket-affine across the true
//	    replica shards (bucket index mod R-1, over shards[1:]), so each
//	    bucket's synopsis lives in exactly one recycling ring. The home
//	    entry keeps the key's pre-promotion history and receives diverted
//	    and drained data.
//	  - Demotion. When a home-shard epoch ends with the route's traffic
//	    since the previous epoch below the promotion threshold divided by
//	    DemoteHysteresis, the route enters draining (writers divert to the
//	    home path), its pending batch is flushed to the home entry, each
//	    replica ring is drained (merged bucket-by-bucket) into the home
//	    entry, and only then is the route unpublished — restoring the
//	    state an unsplayed store would hold. A route homed on a shard
//	    that went fully silent has no epoch of its own to judge it, so
//	    every OTHER shard's epoch roll runs a silence check: after
//	    DemoteHysteresis consecutive checks with zero traffic, the route
//	    demotes the same way.
//
// Consistency. Promotion moves no data. A batched write is visible to
// queries no later than the caller's next Query of that key: the query
// path seals and flushes the route's pending batch before gathering, so
// single-writer flows keep read-your-writes. Demotion marks the route
// draining first, so claimants divert to the home path; the sealed batch
// and any batch still in flight re-check the draining flag under their
// target shard's lock and divert to the home entry, so no observation is
// ever stranded in an unreachable ring. The drain itself runs under the
// hotRW write lock and unpublishes the route before releasing it, while
// queries that saw the route gather under the read lock and queries that
// did not see it read a home entry the drain has already completed — so
// a query can never observe a bucket twice, nor miss replica-resident
// history mid-demotion.
package store

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// HotKeyConfig tunes hot-key detection, write combining and splaying.
// The zero value disables the feature entirely (Replicas == 0): the
// store then runs the plain write path with no tracker and no hot-table
// cost beyond one nil check.
type HotKeyConfig struct {
	// Replicas is the number of sub-entries a hot key is splayed across,
	// clamped to the shard count; 0 disables hot-key handling, and a
	// clamped value below 2 disables it too (splaying inside one shard
	// buys nothing).
	Replicas int
	// EpochWrites is how many writes a shard absorbs per detection epoch
	// (default 1024). Smaller epochs react faster but promote on noisier
	// evidence.
	EpochWrites int
	// PromotePct promotes a key when it is charged more than this percent
	// of its home shard's epoch writes (default 10).
	PromotePct int
	// SampleEvery feeds every Nth write into the shard tracker (default
	// 16), bounding detection overhead on the cold write path; promotion
	// thresholds are scaled by the sampling rate.
	SampleEvery int
	// TrackerK is the number of Space-Saving counters per shard tracker
	// (default 16). It bounds how many distinct hot candidates one shard
	// can surface per epoch.
	TrackerK int
	// MaxHot caps simultaneously splayed keys across the store (default
	// 64) so the hot table stays small enough to scan cheaply.
	MaxHot int
	// DemoteHysteresis demotes a splayed key when an epoch's route
	// traffic falls below the promotion threshold divided by this factor
	// (default 8), so keys hovering near the threshold don't flap.
	DemoteHysteresis int
	// BatchWrites is the write-combining batch size (default 256): how
	// many observations of one hot key are claimed lock-free before a
	// single flush applies them to a replica ring. 1 disables combining
	// (every write flushes alone) without disabling splaying.
	BatchWrites int
}

func (h HotKeyConfig) withDefaults() HotKeyConfig {
	if h.Replicas <= 0 {
		return HotKeyConfig{} // disabled; the rest is irrelevant
	}
	if h.EpochWrites <= 0 {
		h.EpochWrites = 1024
	}
	if h.PromotePct <= 0 {
		h.PromotePct = 10
	}
	if h.SampleEvery <= 0 {
		h.SampleEvery = 16
	}
	if h.TrackerK <= 0 {
		h.TrackerK = 16
	}
	if h.MaxHot <= 0 {
		h.MaxHot = 64
	}
	if h.DemoteHysteresis <= 0 {
		h.DemoteHysteresis = 8
	}
	if h.BatchWrites <= 0 {
		h.BatchWrites = 256
	}
	return h
}

// validate sanity-checks the hot-key configuration at New time.
func (h HotKeyConfig) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Replicas", h.Replicas}, {"EpochWrites", h.EpochWrites},
		{"PromotePct", h.PromotePct}, {"SampleEvery", h.SampleEvery},
		{"TrackerK", h.TrackerK}, {"MaxHot", h.MaxHot},
		{"DemoteHysteresis", h.DemoteHysteresis}, {"BatchWrites", h.BatchWrites},
	} {
		if f.v < 0 {
			return core.Errf("Store", "HotKey."+f.name, "%d must be >= 0", f.v)
		}
	}
	if h.PromotePct > 100 {
		return core.Errf("Store", "HotKey.PromotePct", "%d must be <= 100", h.PromotePct)
	}
	return nil
}

// promoteSamples is the tracker count (in sampled writes) at which a key
// is promoted, rounding up so sampling can only raise the effective
// percentage, never collapse it toward zero.
func (h HotKeyConfig) promoteSamples() uint64 {
	denom := uint64(100) * uint64(h.SampleEvery)
	t := (uint64(h.EpochWrites)*uint64(h.PromotePct) + denom - 1) / denom
	if t == 0 {
		t = 1
	}
	return t
}

// demoteBelow is the per-epoch route write count under which a splayed
// key is demoted.
func (h HotKeyConfig) demoteBelow() uint64 {
	t := uint64(h.EpochWrites) * uint64(h.PromotePct) / 100 / uint64(h.DemoteHysteresis)
	if t == 0 {
		t = 1
	}
	return t
}

// HotKey names one currently-splayed series, for observability and tests.
type HotKey struct {
	Metric string
	Key    string
}

// hotObs is one buffered observation of a hot key; the metric and key are
// the route's, so only the payload is copied.
type hotObs struct {
	item  string
	value uint64
	time  int64
}

// hotBatch is one write-combining buffer. Writers claim slots with
// pos.Add and acknowledge the copy with done.Add; the sealer (the writer
// that filled the last slot, a query draining pending writes, or a
// demotion) wins the sealed CAS, swaps pos past the end so claims fail
// over to the route's next batch, waits for the claimed slots to be
// acknowledged, and flushes. A batch is never reused: stragglers holding
// a stale pointer see it full and sealed forever.
type hotBatch struct {
	pos    atomic.Int64
	done   atomic.Int64
	sealed atomic.Bool
	first  atomic.Int64 // stream time of the first claim, plus one
	obs    []hotObs
}

func newHotBatch(n int) *hotBatch { return &hotBatch{obs: make([]hotObs, n)} }

// hotRoute is one splayed key's routing state. Everything but the atomic
// fields is immutable after construction.
type hotRoute struct {
	k      entryKey
	home   uint32                   // home shard index (== shards[0])
	shards []uint32                 // distinct replica shard indices, len >= 2
	hits   atomic.Uint64            // flushed writes, monotone
	cur    atomic.Pointer[hotBatch] // current write-combining batch
	spare  atomic.Pointer[hotBatch] // recycled batch awaiting reuse
	// draining diverts writers to the home path while a demotion flushes
	// and drains this route; set strictly before any batch or ring moves.
	draining atomic.Bool
	// sweepSeq/sweptHits make demotion judgements idempotent per home
	// epoch: only the sweeper that advances sweepSeq to a newer epoch
	// judges the hits delta, so a delayed or duplicate sweep of the same
	// epoch cannot observe an empty window and demote a hot key.
	sweepSeq  atomic.Uint64
	sweptHits atomic.Uint64
	// silentHits/silent catch routes whose HOME shard went quiet: every
	// foreign shard's epoch roll also glances at the route, and
	// DemoteHysteresis consecutive glances with no traffic at all (hits
	// frozen, no pending batch) demote it — without this, a route homed
	// on a fully-silent shard would stay splayed forever, since home
	// sweeps only run on home writes.
	silentHits atomic.Uint64
	silent     atomic.Uint32
	// newest is the route's bucket high-water mark. Every sub-ring
	// advances to it before absorbing a flush, and queries clamp to it,
	// so the retention window of a splayed key tracks the whole key's
	// stream — not each replica's slice of it — exactly as one unsplayed
	// ring would.
	newest atomic.Int64
}

// raiseNewest lifts the route high-water to bkt and returns the current
// mark.
func (r *hotRoute) raiseNewest(bkt int64) int64 {
	for {
		cur := r.newest.Load()
		if bkt <= cur {
			return cur
		}
		if r.newest.CompareAndSwap(cur, bkt) {
			return bkt
		}
	}
}

// nextBatch returns a spare batch reset for reuse, or allocates one.
// Recycling is strictly per-route, and the reset happens here — at
// install time, moments before the caller publishes the batch as cur —
// never when the batch is parked: a parked batch stays full and sealed,
// so a stale claimant still holding its pointer can't deposit into a
// buffer nobody will flush. The reset order matters too: pos opens the
// batch for claims, so it resets last, and a claim that slips in between
// the reset and the publish lands in a buffer its installer is already
// committed to publishing.
func (r *hotRoute) nextBatch(n int) *hotBatch {
	b := r.spare.Swap(nil)
	if b == nil {
		return newHotBatch(n)
	}
	b.done.Store(0)
	b.sealed.Store(false)
	b.first.Store(0)
	b.pos.Store(0)
	return b
}

// recycle parks a fully-flushed batch for reuse, still full and sealed
// (see nextBatch).
func (r *hotRoute) recycle(b *hotBatch) {
	r.spare.Store(b)
}

// hotTable is an immutable snapshot of the splayed keys, swapped
// atomically on promotion and demotion and read lock-free by every write
// and query.
type hotTable struct {
	m map[entryKey]*hotRoute
}

func lenHot(t *hotTable) int {
	if t == nil {
		return 0
	}
	return len(t.m)
}

// hotRouteFor returns the current route for k, or nil. Lock-free: one
// atomic load plus a map read of an immutable table.
func (s *Store) hotRouteFor(k entryKey) *hotRoute {
	tab := s.hot.Load()
	if tab == nil {
		return nil
	}
	return tab.m[k]
}

// observeHot buffers one write of a hot key into the route's current
// batch; the writer that fills the batch seals and flushes it. Returns
// false when the caller must take the home path instead — because the
// route was demoted, or because the batch is full and its sealer hasn't
// installed a successor after a few yields (a descheduled sealer must
// not turn every other writer into a spinner; the home entry is always a
// valid target, so diverting keeps everyone making progress).
func (s *Store) observeHot(obs Observation, k entryKey, r *hotRoute) bool {
	for try := 0; ; try++ {
		if s.hotRouteFor(k) != r || r.draining.Load() {
			return false
		}
		b := r.cur.Load()
		i := b.pos.Add(1) - 1
		if i >= int64(len(b.obs)) {
			if try == 2 {
				return false
			}
			// Full. Don't just wait for the writer that filled it — if that
			// goroutine was descheduled before installing a successor, any
			// claimant can win the seal CAS, publish a fresh batch, and
			// flush in its place.
			s.sealAndFlush(r, b, true)
			runtime.Gosched()
			continue
		}
		b.obs[i] = hotObs{item: obs.Item, value: obs.Value, time: obs.Time}
		b.done.Add(1)
		switch {
		case i == int64(len(b.obs))-1:
			s.sealAndFlush(r, b, true)
		case i == 0:
			b.first.Store(obs.Time + 1)
		case obs.Time+1-b.first.Load() > s.hotStale && b.first.Load() > 0:
			// A slow batch must not outlive the retention window it will
			// eventually flush into: seal it once its oldest observation
			// is a quarter of the ring behind the stream.
			s.sealAndFlush(r, b, true)
		}
		return true
	}
}

// sealAndFlush closes one batch and applies it. Exactly one caller wins
// the CAS; it replaces the route's current batch (when the route is still
// published), waits for in-flight claimants to finish copying, and
// flushes. Only the route's *current* batch is sealable: a parked batch
// mid-reinstall briefly has sealed == false before its pos resets, and a
// stale caller winning that CAS would strand acknowledged writes in a
// buffer nobody flushes — the cur check rejects it, and a swap of cur
// after the check implies someone else already won this batch's seal, so
// the CAS settles the race. act gates the epoch side effects (promotions
// and the demotion sweep) — a flush running inside demote already holds
// the hot-table lock, so it must not re-enter it.
func (s *Store) sealAndFlush(r *hotRoute, b *hotBatch, act bool) {
	if b == nil || b != r.cur.Load() || !b.sealed.CompareAndSwap(false, true) {
		return
	}
	n := b.pos.Swap(int64(len(b.obs)))
	if n > int64(len(b.obs)) {
		n = int64(len(b.obs))
	}
	if !r.draining.Load() && s.hotRouteFor(r.k) == r {
		r.cur.Store(r.nextBatch(len(b.obs)))
	}
	for b.done.Load() != n {
		runtime.Gosched() // claimants are lock-free; this wait is bounded
	}
	if n > 0 {
		s.flushBatch(r, b.obs[:n], act)
	}
	r.recycle(b)
}

// flushBatch applies one sealed batch, split into runs of same-bucket
// observations; each run flushes to the replica its bucket is affine to
// (bucket index mod R-1, over shards[1:]) under a single shard-lock
// acquisition. Bucket affinity means exactly one ring ever opens a
// synopsis for a given bucket — and replica rings recycle, so it is
// reused rather than reallocated — while successive buckets rotate
// across the replica shards. If the route started draining while the
// batch was in flight, runs divert to the home entry (which the drain
// merges into), so nothing is stranded.
func (s *Store) flushBatch(r *hotRoute, obs []hotObs, act bool) {
	proto, err := s.proto(r.k.metric)
	if err != nil {
		return // the metric table never shrinks, so this cannot happen
	}
	var applied, dropped uint64
	var promote []entryKey
	type sweepReq struct {
		idx uint32
		seq uint64
	}
	var sweeps []sweepReq
	for start := 0; start < len(obs); {
		bkt := obs[start].time / s.cfg.BucketWidth
		end := start + 1
		for end < len(obs) && obs[end].time/s.cfg.BucketWidth == bkt {
			end++
		}
		// Affine targets are the true replicas only (shards[1:]): replica
		// rings never expose synopses outside the hot-key locks, so their
		// buckets recycle allocation-free; the home ring's sealed buckets
		// can escape to lock-free cold-path readers and cannot.
		idx := r.shards[1+uint64(bkt)%uint64(len(r.shards)-1)]
		replica := idx != r.home
		sh := s.shards[idx]
		sh.mu.Lock()
		if replica && (s.hotRouteFor(r.k) != r || r.draining.Load()) {
			// Demoting: the drain may already have passed this shard.
			sh.mu.Unlock()
			idx, replica = r.home, false
			sh = s.shards[idx]
			sh.mu.Lock()
		}
		e := sh.getOrCreate(r.k, s.cfg.RingBuckets, replica)
		if anchor := r.raiseNewest(bkt); anchor > e.newest {
			e.advance(anchor, sh)
		}
		a, d := s.applyLocked(sh, e, obs[start:end], proto)
		if a > 0 {
			// Splayed traffic advances the shard's detection epoch (so a
			// shard whose load is all hot keys still rolls) but skips the
			// tracker — the key is already promoted. Epochs are harvested
			// only when the caller can act on the result: an act=false
			// flush (inside demote or a sweep) leaves the boundary for
			// the next actionable write instead of discarding a tracker
			// full of promotion evidence.
			sh.epochWrites += int(a)
			if act && sh.epochWrites >= s.cfg.HotKey.EpochWrites {
				cand, seq := s.harvestLocked(sh)
				promote = append(promote, cand...)
				sweeps = append(sweeps, sweepReq{idx: idx, seq: seq})
			}
		}
		s.evict(sh)
		sh.mu.Unlock()
		applied += a
		dropped += d
		start = end
	}
	if applied > 0 {
		// Keep the home entry warm: it holds the key's pre-promotion
		// history and is the drain target, but receives no writes while
		// the key is splayed — without a recency refresh the store's
		// hottest keys would drift to the eviction tail and lose their
		// history to the byte-budget/idle policies an unsplayed store
		// would never apply to them. Advancing the home shard's clock
		// mirrors the unsplayed store too, where these writes would have
		// landed on this shard.
		maxT := int64(-1)
		for i := range obs {
			if obs[i].time > maxT {
				maxT = obs[i].time
			}
		}
		hsh := s.shards[r.home]
		hsh.mu.Lock()
		if maxT > hsh.maxTime {
			hsh.maxTime = maxT
		}
		if e, ok := hsh.entries[r.k]; ok {
			if maxT > e.lastWrite {
				e.lastWrite = maxT
			}
			hsh.touch(e)
		}
		hsh.mu.Unlock()
	}
	s.observed.Add(applied)
	s.splayed.Add(applied)
	s.droppedLate.Add(dropped)
	r.hits.Add(applied)
	if act {
		for _, sw := range sweeps {
			s.sweepRoutes(sw.idx, sw.seq)
		}
		for _, pk := range promote {
			s.promote(pk)
		}
	}
}

// FlushHot seals and applies every hot key's pending write-combining
// batch. Queries drain the key they touch automatically; FlushHot is for
// whole-store settlement — end of a replay, before comparing stats, or
// shutdown.
func (s *Store) FlushHot() {
	tab := s.hot.Load()
	if tab == nil {
		return
	}
	for _, r := range tab.m {
		if b := r.cur.Load(); b.pos.Load() > 0 {
			s.sealAndFlush(r, b, true)
		}
	}
}

// packHotKey encodes an entryKey for the per-shard frequency tracker: a
// varint metric length keeps the split unambiguous for any key bytes.
func packHotKey(k entryKey) string {
	buf := make([]byte, 0, len(k.metric)+len(k.key)+binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(len(k.metric)))
	buf = append(buf, k.metric...)
	buf = append(buf, k.key...)
	return string(buf)
}

// unpackHotKey reverses packHotKey; ok is false on a corrupt encoding
// (which would indicate a tracker bug, not bad user input).
func unpackHotKey(s string) (entryKey, bool) {
	n, sz := binary.Uvarint([]byte(s))
	if sz <= 0 || uint64(len(s)-sz) < n {
		return entryKey{}, false
	}
	return entryKey{metric: s[sz : sz+int(n)], key: s[sz+int(n):]}, true
}

// harvestLocked runs at a shard's epoch boundary with sh.mu held: it
// collects promotion candidates from the tracker and resets the epoch.
// The actual promotions (and the demotion sweep) happen after the shard
// lock is released — promote/demote take the hot-table locks, and the
// drain takes other shards' locks, so neither may run under sh.mu.
func (s *Store) harvestLocked(sh *shard) ([]entryKey, uint64) {
	sh.epochWrites = 0
	sh.epochSeq++
	if sh.tracker == nil {
		return nil, sh.epochSeq
	}
	threshold := s.cfg.HotKey.promoteSamples()
	var promote []entryKey
	for _, c := range sh.tracker.TopK(s.cfg.HotKey.TrackerK) {
		if c.Count < threshold {
			break // TopK is sorted descending
		}
		if k, ok := unpackHotKey(c.Item); ok {
			promote = append(promote, k)
		}
	}
	sh.tracker.Reset()
	return promote, sh.epochSeq
}

// promote splays one key across Replicas distinct shards. It only
// publishes routing state — no entry data moves; the home entry keeps its
// history and becomes replica 0.
func (s *Store) promote(k entryKey) {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	old := s.hot.Load()
	if old != nil && old.m[k] != nil {
		return // raced with another promotion of the same key
	}
	if lenHot(old) >= s.cfg.HotKey.MaxHot {
		return
	}
	home := s.shardIndex(k)
	r := &hotRoute{k: k, home: home}
	r.shards = make([]uint32, s.cfg.HotKey.Replicas)
	for j := range r.shards {
		r.shards[j] = uint32((uint64(home) + uint64(j)) & s.mask)
	}
	r.cur.Store(newHotBatch(s.cfg.HotKey.BatchWrites))
	// Seed the route's high water from the home ring: retention decisions
	// made right after promotion must match the ones the unsplayed entry
	// would have made.
	hw := int64(-1)
	hsh := s.shards[home]
	hsh.mu.RLock()
	if e, ok := hsh.entries[k]; ok {
		hw = e.newest
	}
	hsh.mu.RUnlock()
	r.newest.Store(hw)
	next := &hotTable{m: make(map[entryKey]*hotRoute, 1+lenHot(old))}
	if old != nil {
		for kk, rr := range old.m {
			next.m[kk] = rr
		}
	}
	next.m[k] = r
	s.hot.Store(next)
	s.promotions.Add(1)
}

// sweepRoutes runs after a shard's epoch boundary (without its lock): it
// checks every splayed key homed on that shard and demotes the ones whose
// traffic has cooled. seq is the epoch the caller's harvest produced:
// only the sweeper that advances a route's sweepSeq to a newer epoch
// judges it, so duplicate or delayed sweeps of the same epoch are no-ops
// instead of observing an already-consumed window. Routes homed on
// OTHER shards get a silence check on every sweep: a route whose home
// shard stopped receiving writes entirely has no epoch boundary of its
// own to judge it, so DemoteHysteresis consecutive foreign epoch rolls
// observing zero traffic (hits frozen, no pending batch) demote it and
// fold its replicas home. Concurrent foreign sweeps may count silence
// faster than one-per-epoch — the hysteresis is a floor on evidence,
// not an exact roll count — and any traffic resets the streak.
func (s *Store) sweepRoutes(shardIdx uint32, seq uint64) {
	tab := s.hot.Load()
	if tab == nil {
		return
	}
	below := s.cfg.HotKey.demoteBelow()
	for _, r := range tab.m {
		if r.home != shardIdx {
			s.sweepForeign(r)
			continue
		}
		claimed := false
		for {
			last := r.sweepSeq.Load()
			if seq <= last {
				break // an equal-or-newer sweep already judged this route
			}
			if r.sweepSeq.CompareAndSwap(last, seq) {
				claimed = true
				break
			}
		}
		if !claimed {
			continue
		}
		total := r.hits.Load()
		if total-r.sweptHits.Swap(total) >= below {
			continue
		}
		if b := r.cur.Load(); b != nil && b.pos.Load() > 0 {
			// A trickle of writes is sitting unflushed, invisible to the
			// hits counter. Flush it (credited to the next epoch) and
			// re-judge then, so slow-but-alive keys aren't demoted for
			// batch-fill latency and truly idle ones are caught next time.
			s.sealAndFlush(r, b, false)
			continue
		}
		s.demote(r)
	}
}

// sweepForeign is the silence check a foreign shard's epoch roll gives
// a route homed elsewhere: fresh traffic (a hits advance or a pending
// batch) resets the streak; a fully-silent route demotes once the
// streak reaches DemoteHysteresis, restoring the state an unsplayed
// store would hold instead of pinning dead replica rings until their
// idle eviction.
func (s *Store) sweepForeign(r *hotRoute) {
	total := r.hits.Load()
	moved := r.silentHits.Swap(total) != total
	if b := r.cur.Load(); moved || (b != nil && b.pos.Load() > 0) {
		r.silent.Store(0)
		return
	}
	if int(r.silent.Add(1)) >= s.cfg.HotKey.DemoteHysteresis {
		s.demote(r)
	}
}

// demote retires the route: it diverts writers to the home path (the
// draining flag), flushes the pending batch home, drains every replica
// ring into the home entry, and only then unpublishes the route. The
// route stays visible until the drain completes so a concurrent Query
// either gathers home+replicas under the hotRW read lock (the drain's
// write lock excludes it) or, having missed the route, reads a home
// entry the drain has already finished — never a home ring still missing
// replica-resident history.
func (s *Store) demote(r *hotRoute) {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	old := s.hot.Load()
	if old == nil || old.m[r.k] != r {
		return // raced with another demotion
	}
	r.draining.Store(true)
	s.sealAndFlush(r, r.cur.Load(), false)

	s.hotRW.Lock()
	defer s.hotRW.Unlock()
	for _, idx := range r.shards[1:] {
		sh := s.shards[idx]
		sh.mu.Lock()
		e, ok := sh.entries[r.k]
		var slots []slot
		if ok {
			sh.remove(e)
			slots = e.slots
		}
		sh.mu.Unlock()
		if len(slots) > 0 {
			s.drainInto(r.k, slots, r.newest.Load())
		}
	}
	next := &hotTable{m: make(map[entryKey]*hotRoute, len(old.m)-1)}
	for kk, rr := range old.m {
		if rr != r {
			next.m[kk] = rr
		}
	}
	s.hot.Store(next)
	s.demotions.Add(1)
}

// drainInto merges one detached replica ring into the home entry, bucket
// by bucket, under the home shard's lock. Sealed home buckets are
// copy-on-write cloned (a reader may hold their pointers); replica
// synopses are installed sealed when the home slot is empty, because
// their pointers may equally be held by in-flight readers.
func (s *Store) drainInto(k entryKey, slots []slot, anchor int64) {
	proto, err := s.proto(k.metric)
	if err != nil {
		return // the metric table never shrinks, so this cannot happen
	}
	sh := s.shards[s.shardIndex(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.getOrCreate(k, s.cfg.RingBuckets, false)
	if anchor > e.newest {
		// The home ring may lag the route (bucket affinity sends most
		// recent buckets to replicas); expire what an unsplayed ring
		// would have expired before adopting replica history.
		e.advance(anchor, sh)
	}
	for i := range slots {
		rs := &slots[i]
		if rs.idx < 0 || rs.syn == nil {
			continue
		}
		if e.newest >= 0 && rs.idx <= e.newest-int64(len(e.slots)) {
			continue // fell behind the home window while splayed
		}
		if rs.idx > e.newest {
			e.advance(rs.idx, sh)
		}
		sl := e.slotFor(rs.idx)
		switch {
		case sl.idx != rs.idx || sl.syn == nil:
			// Home never opened this bucket: adopt the replica's slot
			// wholesale and seal it — a replica bucket that was still open
			// compacts here like any other seal.
			e.bytes += rs.bytes - sl.bytes
			sh.bytes += rs.bytes - sl.bytes
			*sl = *rs
			e.sealSlot(sl, sh)
		case sl.sealed:
			clone := e.fresh(proto)
			if clone.Merge(sl.syn) != nil || clone.Merge(rs.syn) != nil {
				continue // families cannot mismatch within one metric
			}
			nb := clone.Bytes()
			e.bytes += nb - sl.bytes
			sh.bytes += nb - sl.bytes
			*sl = slot{idx: rs.idx, syn: clone, bytes: nb}
			e.sealSlot(sl, sh) // the bucket stays history: seal the union again
		default:
			// Open bucket: writers mutate it under the lock we hold.
			if sl.syn.Merge(rs.syn) != nil {
				continue
			}
			nb := sl.syn.Bytes()
			e.bytes += nb - sl.bytes
			sh.bytes += nb - sl.bytes
			sl.bytes = nb
		}
		if lw := rs.idx * s.cfg.BucketWidth; lw > e.lastWrite {
			e.lastWrite = lw
		}
	}
	sh.touch(e)
	s.evict(sh)
}

// HotKeys returns the currently splayed (metric, key) pairs (unordered).
func (s *Store) HotKeys() []HotKey {
	tab := s.hot.Load()
	if tab == nil {
		return nil
	}
	out := make([]HotKey, 0, len(tab.m))
	for k := range tab.m {
		out = append(out, HotKey{Metric: k.metric, Key: k.key})
	}
	return out
}
