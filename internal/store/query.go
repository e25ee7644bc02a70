// query.go is the store's half of the unified serving API: the typed
// request/response model every serving layer in this repository answers
// through (analytics.Backend). A QueryRequest names one or more metrics,
// one/many/all keys, a half-open [From, To) stream-time range and an
// aggregate-vs-per-key flag; a QueryResult carries one Answer per
// requested cell with typed accessors per synopsis family, so callers
// stop type-asserting store.Synopsis at every call site.
//
// Batching is the point, not a convenience: a multi-key request against
// the store groups its keys by home shard and gathers every key of a
// shard under ONE read-lock acquisition (fanning the shards out in
// parallel when more than one is involved), where N single-key queries
// would pay N lock round-trips. The per-key answers a batched gather
// produces are byte-identical to N single-key queries': same prototype
// construction, same bucket visit order (ascending), same
// open-under-lock / sealed-outside merge split.
//
// Aggregate answers merge the per-key synopses in sorted key order
// through CombineSnapshots, so Aggregate is deterministically equal to
// "per-key Query + CombineSnapshots" — the property the cluster's
// scatter-gather parity test pins byte for byte.
package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/trace"
)

// ErrUnknownMetric is the sentinel every serving backend (store, cluster
// router, Lambda) wraps when a request names a metric that was never
// registered. The unified contract (see analytics.Backend): an unknown
// metric is an error carrying this sentinel; a registered metric with no
// data for the requested key/range is an empty answer, never an error.
var ErrUnknownMetric = errors.New("unknown metric")

// QueryRequest describes one serving-API query. The zero value is not
// valid: a request must name at least one metric (Metric or Metrics) and
// a non-empty time range.
type QueryRequest struct {
	// Metric names the single metric to query. Ignored when Metrics is
	// non-empty.
	Metric string
	// Metrics names several metrics to query in one request; answers come
	// back grouped per metric, in this order (duplicates removed).
	Metrics []string

	// Key names the single key to query. Ignored when Keys is non-empty
	// or AllKeys is set.
	Key string
	// Keys names several keys; answers come back in sorted key order,
	// duplicates removed (a union names each series once).
	Keys []string
	// AllKeys queries every key currently resident for each metric,
	// overriding Key/Keys.
	AllKeys bool

	// From and To bound the stream-time range, half-open: [From, To).
	From int64
	To   int64

	// Aggregate collapses each metric's per-key answers into one combined
	// answer (per-key synopses merged in sorted key order through
	// CombineSnapshots) instead of returning one answer per key.
	Aggregate bool

	// Trace carries the request's trace context when the request is
	// being traced (zero otherwise). Backends attach their stage spans
	// — per-shard gathers, scatter rounds, layer merges — as children
	// of it. Normalize preserves it; it is not part of any wire format.
	Trace trace.Context
}

// Normalize returns the canonical form of the request — Metrics populated
// (Metric folded in, duplicates dropped, order preserved), Keys sorted and
// deduplicated (nil when AllKeys) — after validating the range. Backends
// normalize on entry; calling it again is a no-op.
func (r QueryRequest) Normalize() (QueryRequest, error) {
	if r.To <= r.From {
		return r, core.Errf("QueryRequest", "range", "[%d, %d) is empty", r.From, r.To)
	}
	metrics := r.Metrics
	if len(metrics) == 0 {
		metrics = []string{r.Metric}
	}
	seen := make(map[string]struct{}, len(metrics))
	dedup := make([]string, 0, len(metrics))
	for _, m := range metrics {
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		dedup = append(dedup, m)
	}
	r.Metrics, r.Metric = dedup, ""
	if r.AllKeys {
		r.Keys, r.Key = nil, ""
		return r, nil
	}
	keys := r.Keys
	if len(keys) == 0 {
		keys = []string{r.Key}
	}
	keys = append([]string(nil), keys...)
	slices.Sort(keys)
	r.Keys, r.Key = slices.Compact(keys), ""
	return r, nil
}

// PointRequest is the QueryRequest an inclusive-range single-series
// question maps to: one metric, one key, the inclusive range [from, to]
// widened to the half-open [from, to+1) requests speak (clamped at the
// int64 horizon). Query(PointRequest(...)).Raw() is that series' merged
// synopsis.
func PointRequest(metric, key string, from, to int64) QueryRequest {
	if to != math.MaxInt64 {
		to++
	}
	return QueryRequest{Metric: metric, Key: key, From: from, To: to}
}

// Family identifies which synopsis family an Answer holds, and therefore
// which typed accessors are meaningful on it.
type Family uint8

const (
	// FamilyDistinct is a cardinality synopsis (*Distinct): Distinct().
	FamilyDistinct Family = iota + 1
	// FamilyFreq is a per-item frequency synopsis (*Freq): Count(item).
	FamilyFreq
	// FamilyTopK is a heavy-hitter synopsis (*TopK): TopK(k), Count(item).
	FamilyTopK
	// FamilyQuantile is a value-distribution synopsis (*Quantiles):
	// Quantile(phi).
	FamilyQuantile
)

// String implements fmt.Stringer. It is the family's wire name (a
// Prototype's "family" in JSON); the zero Family, which only the zero
// Answer and the zero Prototype report, has none.
func (f Family) String() string {
	switch f {
	case FamilyDistinct:
		return "distinct"
	case FamilyFreq:
		return "freq"
	case FamilyTopK:
		return "topk"
	case FamilyQuantile:
		return "quantile"
	}
	return ""
}

// MarshalText implements encoding.TextMarshaler: the wire name.
func (f Family) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, accepting the four
// wire names and nothing else.
func (f *Family) UnmarshalText(text []byte) error {
	for g := FamilyDistinct; g <= FamilyQuantile; g++ {
		if string(text) == g.String() {
			*f = g
			return nil
		}
	}
	return fmt.Errorf("store: unknown synopsis family %q", text)
}

// Answer is one cell of a QueryResult: the merged synopsis for one
// (metric, key) series, or — when the request aggregated — for the union
// of a metric's requested keys. The typed accessors answer zero values
// when asked a question the underlying family cannot answer (check
// Family); an Answer whose series was never written is an empty
// synopsis, not an error.
type Answer struct {
	// Metric is the metric this answer belongs to.
	Metric string
	// Key is the series key, or "" for an aggregate answer.
	Key string
	// Aggregate marks the combined answer of a metric's key union.
	Aggregate bool

	syn Synopsis
}

// NewAnswer assembles one per-key answer cell — the constructor backend
// implementations outside this package build QueryResults with.
func NewAnswer(metric, key string, syn Synopsis) Answer {
	return Answer{Metric: metric, Key: key, syn: syn}
}

// NewAggregateAnswer assembles one aggregate answer cell.
func NewAggregateAnswer(metric string, syn Synopsis) Answer {
	return Answer{Metric: metric, Aggregate: true, syn: syn}
}

// AppendAnswers appends one metric's answer cells to dst: a cell per
// key (syns[i] answers keys[i]), or, when aggregate is set, the single
// CombineSnapshots merge of syns in key order. Every backend builds its
// answers here, which is what keeps Aggregate equal to per-key cells
// combined caller-side on all of them.
func AppendAnswers(dst []Answer, metric string, proto Prototype, keys []string, syns []Synopsis, aggregate bool) ([]Answer, error) {
	if aggregate {
		comb, err := CombineSnapshots(proto, syns...)
		if err != nil {
			return dst, err
		}
		return append(dst, NewAggregateAnswer(metric, comb)), nil
	}
	for i, key := range keys {
		dst = append(dst, NewAnswer(metric, key, syns[i]))
	}
	return dst, nil
}

// Raw returns the merged synopsis itself, for callers that need its
// Merge, Bytes or AppendBinary. Nil only on the zero Answer.
func (a Answer) Raw() Synopsis { return a.syn }

// Family reports which synopsis family the answer holds: the zero Family
// only on the zero Answer.
func (a Answer) Family() Family {
	switch a.syn.(type) {
	case *Distinct:
		return FamilyDistinct
	case *Freq:
		return FamilyFreq
	case *TopK:
		return FamilyTopK
	case *Quantiles:
		return FamilyQuantile
	}
	return 0
}

// Items reports how many observations the answer's synopsis absorbed
// (0 for a never-written series).
func (a Answer) Items() uint64 {
	if a.syn == nil {
		return 0
	}
	return a.syn.Items()
}

// Distinct returns the estimated distinct count for a FamilyDistinct
// answer, rounded to the nearest integer; 0 for other families.
func (a Answer) Distinct() uint64 {
	if d, ok := a.syn.(*Distinct); ok {
		return uint64(math.Round(d.Estimate()))
	}
	return 0
}

// Count returns the estimated occurrence count of item for FamilyFreq and
// FamilyTopK answers; 0 for other families.
func (a Answer) Count(item string) uint64 {
	switch s := a.syn.(type) {
	case *Freq:
		return s.Count(item)
	case *TopK:
		return s.Count(item)
	default:
		return 0
	}
}

// TopK returns the k highest-count items of a FamilyTopK answer; nil for
// other families.
func (a Answer) TopK(k int) []frequency.Counted {
	if t, ok := a.syn.(*TopK); ok {
		return t.Top(k)
	}
	return nil
}

// Quantile returns the estimated phi-quantile of a FamilyQuantile
// answer's observed values; 0 for other families.
func (a Answer) Quantile(phi float64) uint64 {
	if q, ok := a.syn.(*Quantiles); ok {
		return q.Quantile(phi)
	}
	return 0
}

// QuantilesInto sets out[i] to Quantile(phis[i]) for every i, ordering a
// FamilyQuantile answer's digest once for all of them; for other families
// every out[i] is 0. out must be at least as long as phis.
func (a Answer) QuantilesInto(phis []float64, out []uint64) {
	if q, ok := a.syn.(*Quantiles); ok {
		q.QuantilesInto(phis, out)
		return
	}
	clear(out[:len(phis)])
}

// QueryResult is the typed response of a serving-API query: one Answer
// per requested (metric, key) cell — or per metric when the request
// aggregated — ordered by the request's metric order, then sorted key
// order. For the common single-cell request the accessors on QueryResult
// itself delegate to the first (only) answer, so
//
//	res, _ := be.Query(ctx, store.QueryRequest{Metric: "uniques", Key: "home", From: 0, To: 60})
//	res.Distinct()
//
// reads as one call, with no synopsis type assertion.
type QueryResult struct {
	answers []Answer
}

// NewQueryResult assembles a result from answer cells — the constructor
// backend implementations outside this package use.
func NewQueryResult(answers []Answer) QueryResult { return QueryResult{answers: answers} }

// Answers returns every answer cell, in request order (metrics in request
// order, keys sorted). The slice is the result's backing array; treat it
// as read-only.
func (r QueryResult) Answers() []Answer { return r.answers }

// RawSynopses unwraps every answer cell into its merged synopsis, in
// answer order — the bridge for code (backend internals, combiners)
// that moves synopses rather than typed answers.
func (r QueryResult) RawSynopses() []Synopsis {
	out := make([]Synopsis, len(r.answers))
	for i, a := range r.answers {
		out[i] = a.syn
	}
	return out
}

// Len returns the number of answer cells.
func (r QueryResult) Len() int { return len(r.answers) }

// At returns the answer for one (metric, key) cell. For aggregate
// requests, key is "" (see Aggregate on Answer).
func (r QueryResult) At(metric, key string) (Answer, bool) {
	for _, a := range r.answers {
		if a.Metric == metric && a.Key == key {
			return a, true
		}
	}
	return Answer{}, false
}

// first returns the first answer cell, or the zero Answer.
func (r QueryResult) first() Answer {
	if len(r.answers) == 0 {
		return Answer{}
	}
	return r.answers[0]
}

// Raw returns the first answer's synopsis (see Answer.Raw).
func (r QueryResult) Raw() Synopsis { return r.first().Raw() }

// Family returns the first answer's synopsis family.
func (r QueryResult) Family() Family { return r.first().Family() }

// Items returns the first answer's absorbed-observation count.
func (r QueryResult) Items() uint64 { return r.first().Items() }

// Distinct returns the first answer's estimated distinct count.
func (r QueryResult) Distinct() uint64 { return r.first().Distinct() }

// Count returns the first answer's estimated count of item.
func (r QueryResult) Count(item string) uint64 { return r.first().Count(item) }

// TopK returns the first answer's k heaviest items.
func (r QueryResult) TopK(k int) []frequency.Counted { return r.first().TopK(k) }

// Quantile returns the first answer's estimated phi-quantile.
func (r QueryResult) Quantile(phi float64) uint64 { return r.first().Quantile(phi) }

// ---- Store implementation ----

// queryCancelled wraps a context error so errors.Is still sees
// context.Canceled / context.DeadlineExceeded through the wrap.
func queryCancelled(err error) error {
	return fmt.Errorf("store: query cancelled: %w", err)
}

// QueryContext is Query under another name. It exists only because the
// benchmark module (bench/ladder.go) calls it; in-repo code calls Query.
func (s *Store) QueryContext(ctx context.Context, req QueryRequest) (QueryResult, error) {
	return s.Query(ctx, req)
}

// Query answers one serving-API request (see QueryRequest): every
// requested (metric, key) cell is range-merged as a single-series
// query would be, but keys sharing a shard are gathered under one read-lock
// acquisition and distinct shards gather in parallel, so a multi-key
// request costs one lock round-trip per touched shard instead of one per
// key. Unknown metrics fail with ErrUnknownMetric; series the store never
// saw answer empty synopses. The gather checks ctx between metrics and
// before each per-shard lock acquisition, so a cancelled or expired
// context aborts the fan-out early (returning an error wrapping
// ctx.Err()) instead of merging buckets nobody is waiting for. The
// store's state is read-only on this path, so an aborted query leaves
// nothing to clean up.
func (s *Store) Query(ctx context.Context, req QueryRequest) (QueryResult, error) {
	req, err := req.Normalize()
	if err != nil {
		return QueryResult{}, err
	}
	fromB := req.From / s.cfg.BucketWidth
	toB := (req.To - 1) / s.cfg.BucketWidth
	var answers []Answer
	for _, metric := range req.Metrics {
		if err := ctx.Err(); err != nil {
			return QueryResult{}, queryCancelled(err)
		}
		proto, err := s.metrics.Lookup(metric)
		if err != nil {
			return QueryResult{}, err
		}
		keys := req.Keys
		if req.AllKeys {
			keys = append([]string(nil), s.Keys(metric)...)
			slices.Sort(keys)
			keys = slices.Compact(keys)
		}
		var syns []Synopsis
		if h := s.telGather; h != nil {
			t0 := time.Now()
			syns, err = s.queryKeys(ctx, metric, proto, keys, fromB, toB, req.Trace)
			h.ObserveSince(t0)
		} else {
			syns, err = s.queryKeys(ctx, metric, proto, keys, fromB, toB, req.Trace)
		}
		if err != nil {
			return QueryResult{}, err
		}
		s.queries.Add(uint64(len(keys)))
		if answers, err = AppendAnswers(answers, metric, proto, keys, syns, req.Aggregate); err != nil {
			return QueryResult{}, err
		}
	}
	return NewQueryResult(answers), nil
}

// keyGather accumulates one key's bucket merge during a batched gather.
type keyGather struct {
	k      entryKey
	shard  uint32 // home shard index
	pos    int    // index into the request's key slice
	result Synopsis
	lo, hi int // the key's sealed slots in the gather's list
	plo    int // the key's history payloads in the gather's list, to phi
	phi    int
}

// queryKeys range-merges the metric's buckets of every key over bucket
// range [fromB, toB] and returns one answer per key, in key order. Keys
// are grouped by home shard and gathered with one read-lock acquisition
// per shard, shards fanning out in parallel when more than one is
// involved. A valid tctx (a traced request) hangs one child span off it
// per shard gather; spans from parallel shard goroutines attach
// concurrently, which StartRemote permits.
func (s *Store) queryKeys(ctx context.Context, metric string, proto Prototype, keys []string, fromB, toB int64, tctx trace.Context) ([]Synopsis, error) {
	out := make([]Synopsis, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	cells := make([]keyGather, len(keys))
	for i, key := range keys {
		k := entryKey{metric: metric, key: key}
		cells[i] = keyGather{k: k, shard: s.shardIndex(k), pos: i}
	}
	// One run of cells per home shard, keys in request order within it.
	slices.SortFunc(cells, func(a, b keyGather) int {
		return cmp.Or(cmp.Compare(a.shard, b.shard), cmp.Compare(a.pos, b.pos))
	})
	if cells[0].shard == cells[len(cells)-1].shard {
		// The single-shard case (every single-key query lands here) runs
		// inline: no goroutine, no WaitGroup.
		if err := s.gatherShard(ctx, metric, proto, cells, fromB, toB, tctx, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for lo := 0; lo < len(cells); {
		hi := lo + 1
		for hi < len(cells) && cells[hi].shard == cells[lo].shard {
			hi++
		}
		wg.Add(1)
		go func(run []keyGather) {
			defer wg.Done()
			if err := s.gatherShard(ctx, metric, proto, run, fromB, toB, tctx, out); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(cells[lo:hi])
		lo = hi
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// gatherShard range-merges one shard's run of keys under a single
// read-lock acquisition: still-open buckets merge under the lock, sealed
// ones — slots' synopses, and payload slices of the history's arena,
// whose bytes below its length never change — are collected and merged
// lock-free after it, and each key's answer is put into out at the key's
// position. The accumulators and the sealed-bucket lists are the scratch
// of one gather, borrowed from proto's free list and returned once the
// answers are built. A top-k key merges all its buckets at once after
// the lock (see gather.mergeAll), so its open bucket is copied out flat
// under the lock instead, as one more part.
func (s *Store) gatherShard(ctx context.Context, metric string, proto Prototype, run []keyGather, fromB, toB int64, tctx trace.Context, out []Synopsis) error {
	// A cancelled request stops before paying for the shard lock; one Err
	// check per shard, never per key, keeps the hot single-shard,
	// single-key path at a single branch.
	if err := ctx.Err(); err != nil {
		return queryCancelled(err)
	}
	idx := run[0].shard
	sh := s.shards[idx]
	sp := s.traceGather(tctx)
	defer sp.Finish()
	l := proto.gathers()
	g := l.Get()
	defer g.done(l)
	for i := range run {
		run[i].result = g.acc(proto)
	}
	var t0 time.Time
	if sp != nil {
		sp.SetAttrs(trace.Str("metric", metric),
			trace.Int("shard", int64(idx)), trace.Int("keys", int64(len(run))))
		t0 = time.Now()
	}
	sh.mu.RLock()
	if sp != nil {
		sp.SetAttrs(trace.Int("lock_wait_ns", int64(time.Since(t0))))
	}
	for i := range run {
		c := &run[i]
		c.lo, c.plo = len(g.sealed), len(g.payloads)
		_, topk := c.result.(*TopK)
		if e, ok := sh.entries[c.k]; ok {
			j, _ := e.find(fromB)
			for ; j < len(e.slots) && e.slots[j].idx() <= toB; j++ {
				sl := &e.slots[j]
				if sl.sealed() {
					g.sealed = append(g.sealed, sl.syn)
				} else if topk {
					// An open top-k bucket holds the Stream-Summary (its
					// first write unpacked it), so compacted is its copy.
					g.sealed = append(g.sealed, sl.syn.compacted())
				} else if err := c.result.Merge(sl.syn); err != nil {
					sh.mu.RUnlock()
					return err
				}
			}
			h := &e.hist
			for j, _ := h.find(fromB); j < len(h.index) && h.bkt(h.index[j]) <= toB; j++ {
				p, _ := h.record(h.index[j])
				g.payloads = append(g.payloads, p)
			}
		}
		c.hi, c.phi = len(g.sealed), len(g.payloads)
	}
	sh.mu.RUnlock()
	// Sealed buckets are immutable; merge them lock-free, in ascending
	// bucket order (slots, then the history), so a key answers byte for
	// byte alike alone or in a batch.
	for i := range run {
		c := &run[i]
		ans, err := g.merge(c.result, g.sealed[c.lo:c.hi], g.payloads[c.plo:c.phi])
		if err != nil {
			return err
		}
		out[c.pos] = ans
	}
	return nil
}
