// synopsis.go defines the bucket contract of the sketch store and the
// adapters that put the library's mergeable synopsis structures behind it.
//
// The store serves a closed set of four synopsis families, the rows of
// the source paper's Table 1 it keeps per time bucket: HyperLogLog
// uniques (Distinct), Count-Min frequencies (Freq), Space-Saving heavy
// hitters (TopK) and q-digest quantiles (Quantiles). Synopsis is their
// common contract, and its unexported methods keep it closed: no type
// outside this package satisfies it. Each metric registered with the
// store is defined by a Prototype: a comparable value naming the family
// and its geometry, which is also the metric's wire spec. Two switches
// over the family turn it into synopses (Prototype.build, behind New and
// bucket) and check it (Prototype.Validate). Range queries merge bucket
// synopses into an accumulator their gather lends them and answer with
// it — or, when the merged result is sparse, with its compact copy —
// except top-k, whose parts merge once, all together (see gather.mergeAll).
// A bucket sealed into a series' history (history.go) is no synopsis but
// its payload: each family's sketch package owns that layout, and the
// adapters and Prototype.appendPayloadBinary put it behind the store.
package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/frequency"
	"repro/internal/quantile"
)

// Synopsis is the contract of a time bucket's summary. Merging two
// synopses must be equivalent (within the sketch's error guarantee) to
// summarizing the concatenated observation streams.
type Synopsis interface {
	// Observe folds one observation into the summary. Which of item and
	// value an implementation uses is part of its contract: distinct and
	// top-k synopses consume the item, frequency synopses consume the item
	// weighted by value, quantile synopses consume the value alone.
	Observe(item string, value uint64)
	// Merge folds another synopsis of the same concrete type and
	// parameters into the receiver.
	Merge(other Synopsis) error
	// Items reports how many observations the summary has absorbed.
	Items() uint64
	// Bytes approximates the in-memory footprint, used by the store's
	// size-based retention accounting.
	Bytes() int
	// AppendBinary appends the synopsis' binary encoding to b: the bytes
	// a checkpoint record and a /v1/query answer carry.
	AppendBinary(b []byte) ([]byte, error)
	// UnmarshalBinary replaces the receiver's contents with what data
	// encodes. The receiver comes from the registered Prototype, so it
	// carries the configuration (widths, seeds, universes) the codec
	// verifies the bytes against where the underlying sketch can.
	UnmarshalBinary(data []byte) error

	// compacted returns an immutable copy of the synopsis in a form sized
	// by what it holds — answering every read, Merge-as-source and
	// AppendBinary exactly as the receiver does — or nil when the
	// receiver is already held so, or too full for such a copy to pay.
	// Distinct and Freq copy into their sparse forms; Quantiles copies
	// its q-digest with the nodes packed, a few bytes each (see
	// quantile.QDigest.Compact); TopK copies its Space-Saving counters
	// into one exact-size flat slice (see frequency.SpaceSaving.Compact).
	// Query answers take these copies (see gather.mergeAll), and so does
	// a top-k bucket at its seal; a Distinct, Freq or Quantiles bucket
	// seals into its series' history as a payload instead
	// (appendPayload), or, too full for one, stays as it is.
	compacted() Synopsis
	// appendPayload appends the payload a sealed bucket keeps in its
	// series' history to b, and reports true, when the synopsis has one:
	// a sparse HyperLogLog or Count-Min, any q-digest. Otherwise — a
	// dense sketch, a top-k summary — it appends nothing and reports
	// false, and the bucket stays a slot.
	appendPayload(b []byte) ([]byte, bool)
	// mergePayload merges the bucket p, from appendPayload of a synopsis
	// of the receiver's Prototype, encodes into the receiver, exactly as
	// Merge merges that synopsis.
	mergePayload(p []byte) error
	// reset empties a merge accumulator in place, keeping its
	// allocations, for the next merge its gather lends it to.
	reset()
}

// mergeAll returns the answer for what acc, lent by g.acc, holds merged
// with parts, skipping nil parts, and then with the history payloads. A
// range's buckets (gatherShard) and CombineSnapshots' parts both merge
// through it, by way of g.merge. A top-k acc and its parts merge once,
// all together, in g's frequency.Merger, so the flat answer does not
// depend on the order of the parts, and acc stays empty; top-k buckets
// have no payloads. Every other family folds the parts and then the
// payloads into acc in argument order; a result it can hold smaller (a
// HyperLogLog or Count-Min that fits its sparse form, any q-digest) is
// answered by the compacted copy, and one too full to compact is acc.
func (g *gather) mergeAll(acc Synopsis, parts []Synopsis, payloads [][]byte) (Synopsis, error) {
	if t, ok := acc.(*TopK); ok {
		return t.mergeOnce(&g.merger, parts)
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := acc.Merge(p); err != nil {
			return nil, err
		}
	}
	for _, p := range payloads {
		if err := acc.mergePayload(p); err != nil {
			return nil, err
		}
	}
	if small := acc.compacted(); small != nil {
		return small, nil
	}
	return acc, nil
}

// Prototype is a metric's synopsis family and the parameters its
// synopses are built from: a plain comparable value, and the one
// definition of a metric in process, in a checkpointed table and on the
// wire alike. Only the fields of the named family matter: the
// constructors leave the rest zero, and JSON omits them, so
// {"family":"distinct","precision":12,"seed":42} is the whole of a
// HyperLogLog metric. Equal Prototypes build interchangeable synopses
// (including hash seeds, or merges fail).
// The zero Prototype is invalid.
type Prototype struct {
	Family    Family `json:"family"`
	Precision uint8  `json:"precision,omitempty"`  // HyperLogLog register exponent (distinct)
	Seed      uint64 `json:"seed,omitempty"`       // hash seed (distinct, freq)
	Width     int    `json:"width,omitempty"`      // Count-Min columns (freq)
	Depth     int    `json:"depth,omitempty"`      // Count-Min rows (freq)
	K         int    `json:"k,omitempty"`          // Space-Saving counters (topk)
	LogU      uint8  `json:"log_u,omitempty"`      // q-digest universe exponent (quantile)
	CompressK uint64 `json:"compress_k,omitempty"` // q-digest compression factor (quantile)
}

// Caps on a Prototype's geometry. A spec can arrive in a 75-byte
// /v1/register body, and what it costs grows with its geometry: a query
// accumulator holds width x depth Count-Min counters, an open top-k
// bucket sizes its counter map by k, and a q-digest buffers up to 6 x
// compress_k values between folds. Every metric this repository defines
// sits far below them (at most 2048 x 4 cells, k = 64, compress_k = 512).
const (
	maxCountMinCells = 1 << 20 // 8 MiB of dense counters
	maxTopK          = 1 << 16
	maxCompressK     = 1 << 16
)

// Validate reports whether p names a family, with a geometry that
// family's sketch accepts and the caps allow. Every way a Prototype
// enters the store passes through it: the New*Proto constructors,
// MetricTable.Register and CombineSnapshots, and the serving edge for a
// spec off the wire.
func (p Prototype) Validate() error {
	switch p.Family {
	case FamilyDistinct:
		if p.Precision < 4 || p.Precision > 18 {
			return core.Errf("HyperLogLog", "precision", "%d not in [4,18]", p.Precision)
		}
	case FamilyFreq:
		if p.Width < 1 || p.Depth < 1 || p.Width > maxCountMinCells/p.Depth {
			return core.Errf("CountMin", "width x depth", "%d x %d not positive, or over %d cells", p.Width, p.Depth, maxCountMinCells)
		}
	case FamilyTopK:
		if p.K < 1 || p.K > maxTopK {
			return core.Errf("SpaceSaving", "k", "%d not in [1,%d]", p.K, maxTopK)
		}
	case FamilyQuantile:
		if p.LogU == 0 || p.LogU > 32 {
			return core.Errf("QDigest", "logU", "%d not in [1,32]", p.LogU)
		}
		if p.CompressK == 0 || p.CompressK > maxCompressK {
			return core.Errf("QDigest", "k", "%d not in [1,%d]", p.CompressK, maxCompressK)
		}
	default:
		return core.Errf("Prototype", "family", "%d is not a synopsis family", p.Family)
	}
	return nil
}

// checked returns p when it is valid, and the zero Prototype with
// Validate's error otherwise.
func checked(p Prototype) (Prototype, error) {
	if err := p.Validate(); err != nil {
		return Prototype{}, err
	}
	return p, nil
}

// New returns a fresh, empty synopsis of p, which must be valid: the
// merge accumulator of a query, or the receiver of a decode. A
// HyperLogLog, Count-Min or q-digest instance is dense; a top-k instance
// is an empty flat summary (see frequency.SpaceSaving).
func (p Prototype) New() Synopsis { return p.build(false) }

// bucket returns the synopsis a store bucket of p opens, clones and
// restores in. A HyperLogLog or Count-Min bucket is born sparse: it
// allocates nothing but itself and turns dense by itself once what it
// holds stops fitting the sparse form. The other families open as New.
func (p Prototype) bucket() Synopsis { return p.build(true) }

// build returns an empty synopsis of p with its sketch built in place,
// so that the synopsis is one allocation beside a dense sketch's array.
// p is valid, which is every bound the sketches' Init check, so the
// errors are dropped.
func (p Prototype) build(sparse bool) Synopsis {
	switch p.Family {
	case FamilyDistinct:
		d := new(Distinct)
		_ = d.h.Init(p.Precision, p.Seed, sparse)
		return d
	case FamilyFreq:
		f := new(Freq)
		_ = f.cm.Init(p.Width, p.Depth, p.Seed, sparse)
		return f
	case FamilyTopK:
		return &TopK{ss: frequency.NewFlatSpaceSaving(p.K)}
	case FamilyQuantile:
		qs := new(Quantiles)
		_ = qs.q.Init(p.LogU, p.CompressK)
		return qs
	}
	panic(fmt.Sprintf("store: a synopsis of an invalid Prototype %+v", p))
}

// appendPayloadBinary appends to b the AppendBinary bytes of the
// synopsis of p that the history payload pay encodes: what the bucket
// wrote while it was an object. Top-k buckets have no payloads.
func (p Prototype) appendPayloadBinary(b, pay []byte) []byte {
	switch p.Family {
	case FamilyDistinct:
		return cardinality.AppendPayloadBinary(b, p.Precision, p.Seed, pay)
	case FamilyFreq:
		return frequency.AppendCountMinPayloadBinary(b, p.Width, p.Depth, p.Seed, pay)
	case FamilyQuantile:
		return quantile.AppendQDigestPayloadBinary(b, p.LogU, p.CompressK, pay)
	}
	panic(fmt.Sprintf("store: a history payload of a %v Prototype", p.Family))
}

// ---- Merge scratch ----

// gather is the scratch of one merge, from its Prototype's free list
// (see Prototype.gathers): gatherShard borrows one per shard run of
// keys and CombineSnapshots one per combination, each returning it once
// its answers are built. It lends the merge accumulators, and holds the
// sealed buckets — slots' synopses and history payloads — gatherShard
// collects under the shard lock to merge after it, and the k-way merge
// scratch of top-k answers.
type gather struct {
	spare    Synopsis // an emptied accumulator kept for the next merge, or nil
	sealed   []Synopsis
	payloads [][]byte
	merger   frequency.Merger
}

// How many gathers wait per Prototype, and how long a sealed-bucket list
// one keeps (16 KiB of synopses, 24 KiB of payloads: a 64-bucket range
// over 16 keys). Constants, not
// knobs. A gather keeps one accumulator however many keys it answered:
// an 8-key `page-hits` aggregate leaves up to 8 dense 32 KiB Count-Mins.
// A merge that needs more gets it for its own lifetime only.
const (
	maxIdleGathers = 2
	maxIdleSealed  = 1024
)

// gatherLists maps a Prototype, as given, to its free list of gathers.
// The map is replaced, never mutated, so a merge reads it without a lock
// or an allocation; a list is added once per distinct Prototype (in
// practice, per registered metric) and serves its merges on every store.
var gatherLists atomic.Pointer[map[Prototype]*freelist.List[gather]]

// gathers returns p's free list of gathers.
func (p Prototype) gathers() *freelist.List[gather] {
	for {
		cur := gatherLists.Load()
		var lists map[Prototype]*freelist.List[gather]
		if cur != nil {
			lists = *cur
		}
		if l := lists[p]; l != nil {
			return l
		}
		next := map[Prototype]*freelist.List[gather]{p: {New: func() *gather { return new(gather) }, Max: maxIdleGathers}}
		maps.Copy(next, lists)
		if gatherLists.CompareAndSwap(cur, &next) {
			return next[p]
		}
	}
}

// acc lends an empty accumulator of p: g's spare, or a new one.
func (g *gather) acc(p Prototype) Synopsis {
	if acc := g.spare; acc != nil {
		g.spare = nil
		return acc
	}
	return p.New()
}

// merge returns the answer for acc, lent by g.acc, merged with parts and
// payloads (see mergeAll). An acc that is not itself the answer — the
// answer is its compacted copy, or a top-k flat merge — is emptied and
// kept as the spare, if g has none; one that is the answer leaves with
// it.
func (g *gather) merge(acc Synopsis, parts []Synopsis, payloads [][]byte) (Synopsis, error) {
	ans, err := g.mergeAll(acc, parts, payloads)
	if ans != acc && g.spare == nil {
		acc.reset()
		g.spare = acc
	}
	return ans, err
}

// done returns g to l, first dropping its references to sealed buckets
// and arenas (an idle gather never pins evicted history), and either
// list itself if it grew past maxIdleSealed.
func (g *gather) done(l *freelist.List[gather]) {
	clear(g.sealed)
	g.sealed = g.sealed[:0]
	if cap(g.sealed) > maxIdleSealed {
		g.sealed = nil
	}
	clear(g.payloads)
	g.payloads = g.payloads[:0]
	if cap(g.payloads) > maxIdleSealed {
		g.payloads = nil
	}
	l.Put(g)
}

// CombineSnapshots merges partial query answers into one fresh synopsis —
// the scatter-gather combiner: each part is typically one node's (or one
// key's) Query result, and the combined synopsis answers for their union.
// Parts are merged in argument order into an empty accumulator, so the
// combination is deterministic for a deterministic part order (top-k
// parts merge once, in any order: see gather.mergeAll); nil parts are skipped
// (an absent partial is an empty answer, matching Query's
// never-seen-this-series semantics). The inputs are not mutated. Like a
// query answer, the result is held compact when it is sparse enough.
func CombineSnapshots(proto Prototype, parts ...Synopsis) (Synopsis, error) {
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	l := proto.gathers()
	g := l.Get()
	out, err := g.merge(g.acc(proto), parts, nil)
	g.done(l)
	if err != nil {
		return nil, fmt.Errorf("store: combine snapshots: %w", err)
	}
	return out, nil
}

// ---- Distinct counting (HyperLogLog) ----

// Distinct is a bucket synopsis counting unique items with a HyperLogLog.
// The observation value is ignored. It holds the sketch by value, so the
// synopsis and the sketch are one allocation.
type Distinct struct {
	h cardinality.HyperLogLog
}

// NewDistinctProto returns the Prototype of HyperLogLog synopses with 2^p
// registers, validated, so a bad precision fails at registration time
// rather than on first write.
func NewDistinctProto(precision uint8, seed uint64) (Prototype, error) {
	return checked(Prototype{Family: FamilyDistinct, Precision: precision, Seed: seed})
}

// Observe implements Synopsis.
func (d *Distinct) Observe(item string, _ uint64) { d.h.UpdateString(item) }

// Merge implements Synopsis.
func (d *Distinct) Merge(other Synopsis) error {
	o, ok := other.(*Distinct)
	if !ok {
		return fmt.Errorf("store: cannot merge %T into *store.Distinct: %w", other, core.ErrIncompatible)
	}
	return d.h.Merge(&o.h)
}

func (d *Distinct) compacted() Synopsis {
	var c cardinality.HyperLogLog
	if !d.h.Compact(&c) {
		return nil
	}
	return &Distinct{h: c}
}

func (d *Distinct) reset() { d.h.Reset() }

func (d *Distinct) appendPayload(b []byte) ([]byte, bool) { return d.h.AppendPayload(b) }

func (d *Distinct) mergePayload(p []byte) error {
	d.h.MergePayload(p)
	return nil
}

// Items implements Synopsis.
func (d *Distinct) Items() uint64 { return d.h.Items() }

// Bytes implements Synopsis.
func (d *Distinct) Bytes() int { return d.h.Bytes() }

// Estimate returns the estimated distinct count.
func (d *Distinct) Estimate() float64 { return d.h.Estimate() }

// ---- Item frequencies (Count-Min) ----

// Freq is a bucket synopsis estimating per-item counts with a Count-Min
// sketch. The observation value is the occurrence weight (0 counts as 1).
// It holds the sketch by value, so the synopsis and the sketch are one
// allocation.
type Freq struct {
	cm frequency.CountMin
}

// NewFreqProto returns the Prototype of width x depth Count-Min
// synopses, validated.
func NewFreqProto(width, depth int, seed uint64) (Prototype, error) {
	return checked(Prototype{Family: FamilyFreq, Width: width, Depth: depth, Seed: seed})
}

// Observe implements Synopsis.
func (f *Freq) Observe(item string, value uint64) {
	if value == 0 {
		value = 1
	}
	f.cm.UpdateString(item, value)
}

// Merge implements Synopsis.
func (f *Freq) Merge(other Synopsis) error {
	o, ok := other.(*Freq)
	if !ok {
		return fmt.Errorf("store: cannot merge %T into *store.Freq: %w", other, core.ErrIncompatible)
	}
	return f.cm.Merge(&o.cm)
}

func (f *Freq) compacted() Synopsis {
	var c frequency.CountMin
	if !f.cm.Compact(&c) {
		return nil
	}
	return &Freq{cm: c}
}

func (f *Freq) reset() { f.cm.Reset() }

func (f *Freq) appendPayload(b []byte) ([]byte, bool) { return f.cm.AppendPayload(b) }

func (f *Freq) mergePayload(p []byte) error { return f.cm.MergePayload(p) }

// Items implements Synopsis.
func (f *Freq) Items() uint64 { return f.cm.Items() }

// Bytes implements Synopsis.
func (f *Freq) Bytes() int { return f.cm.Bytes() }

// Count returns the estimated count of item.
func (f *Freq) Count(item string) uint64 { return f.cm.EstimateString(item) }

// ---- Top-k (Space-Saving) ----

// TopK is a bucket synopsis tracking heavy hitters with a Space-Saving
// summary. Each observation is one occurrence; the value is ignored.
// Sealed buckets and answers hold the summary flat (see
// frequency.SpaceSaving); an open bucket holds the Stream-Summary, for
// O(1) updates.
type TopK struct {
	ss *frequency.SpaceSaving
}

// NewTopKProto returns the Prototype of k-counter Space-Saving
// synopses, validated. Its instances are empty flat summaries: a query's
// accumulator is then two small structs, and a bucket unpacks at its
// first write.
func NewTopKProto(k int) (Prototype, error) {
	return checked(Prototype{Family: FamilyTopK, K: k})
}

// mergeOnce returns the flat merge of t and parts in m, skipping nil
// parts.
func (t *TopK) mergeOnce(m *frequency.Merger, parts []Synopsis) (Synopsis, error) {
	defer m.Reset() // Result empties m; a refused part leaves that to here
	m.Add(t.ss)
	for _, p := range parts {
		if p == nil {
			continue
		}
		o, ok := p.(*TopK)
		if !ok {
			return nil, fmt.Errorf("store: cannot merge %T into *store.TopK: %w", p, core.ErrIncompatible)
		}
		if err := m.Add(o.ss); err != nil {
			return nil, err
		}
	}
	return &TopK{ss: m.Result()}, nil
}

// Observe implements Synopsis.
func (t *TopK) Observe(item string, _ uint64) { t.ss.Update(item) }

// Merge implements Synopsis.
func (t *TopK) Merge(other Synopsis) error {
	o, ok := other.(*TopK)
	if !ok {
		return fmt.Errorf("store: cannot merge %T into *store.TopK: %w", other, core.ErrIncompatible)
	}
	return t.ss.Merge(o.ss)
}

func (t *TopK) compacted() Synopsis {
	if c := t.ss.Compact(); c != nil {
		return &TopK{ss: c}
	}
	return nil
}

func (t *TopK) reset() {} // a top-k accumulator is only read, by mergeOnce

// A top-k bucket holds strings, so it stays a slot: it has no payload.
func (t *TopK) appendPayload(b []byte) ([]byte, bool) { return b, false }

func (t *TopK) mergePayload([]byte) error {
	return fmt.Errorf("store: a top-k synopsis has no history payload: %w", core.ErrIncompatible)
}

// Items implements Synopsis.
func (t *TopK) Items() uint64 { return t.ss.Items() }

// Bytes implements Synopsis.
func (t *TopK) Bytes() int { return t.ss.Bytes() }

// Top returns the k highest-count items seen by the bucket(s).
func (t *TopK) Top(k int) []frequency.Counted { return t.ss.TopK(k) }

// Count returns the estimated occurrence count of item (0 when the item
// fell out of the summary's k counters).
func (t *TopK) Count(item string) uint64 {
	c, _ := t.ss.Estimate(item)
	return c
}

// ---- Quantiles (q-digest) ----

// Quantiles is a bucket synopsis summarizing the distribution of the
// observation values with a mergeable q-digest. The item is ignored. It
// holds the digest by value, so the synopsis and the digest are one
// allocation.
type Quantiles struct {
	q quantile.QDigest
}

// NewQuantileProto returns the Prototype of q-digest synopses over
// values in [0, 2^logU) with compression factor k, validated.
func NewQuantileProto(logU uint8, k uint64) (Prototype, error) {
	return checked(Prototype{Family: FamilyQuantile, LogU: logU, CompressK: k})
}

// Observe implements Synopsis. Values beyond the digest's universe are
// clamped by the digest itself, so out-of-range outliers still land in
// the top leaf rather than being dropped.
func (qs *Quantiles) Observe(_ string, value uint64) { qs.q.Update(value, 1) }

// Merge implements Synopsis.
func (qs *Quantiles) Merge(other Synopsis) error {
	o, ok := other.(*Quantiles)
	if !ok {
		return fmt.Errorf("store: cannot merge %T into *store.Quantiles: %w", other, core.ErrIncompatible)
	}
	return qs.q.Merge(&o.q)
}

func (qs *Quantiles) compacted() Synopsis {
	var c quantile.QDigest
	if !qs.q.Compact(&c) {
		return nil
	}
	return &Quantiles{q: c}
}

func (qs *Quantiles) reset() { qs.q.Reset() }

func (qs *Quantiles) appendPayload(b []byte) ([]byte, bool) { return qs.q.AppendPayload(b), true }

func (qs *Quantiles) mergePayload(p []byte) error {
	qs.q.MergePayload(p)
	return nil
}

// Items implements Synopsis.
func (qs *Quantiles) Items() uint64 { return qs.q.Count() }

// Bytes implements Synopsis.
func (qs *Quantiles) Bytes() int { return qs.q.Bytes() }

// Quantile returns the estimated phi-quantile of the observed values.
func (qs *Quantiles) Quantile(phi float64) uint64 { return qs.q.Query(phi) }

// QuantilesInto sets out[i] to Quantile(phis[i]) for every i, ordering
// the digest once for all of them. out must be at least as long as phis.
func (qs *Quantiles) QuantilesInto(phis []float64, out []uint64) { qs.q.QueryAll(phis, out) }

// ---- Binary codecs (checkpoint/restore, /v1/query answers) ----
//
// Each adapter delegates its codec to its sketch.

// AppendBinary implements Synopsis.
func (d *Distinct) AppendBinary(b []byte) ([]byte, error) { return d.h.AppendBinary(b) }

// UnmarshalBinary implements Synopsis. The HyperLogLog's own decoder
// adopts whatever precision and seed the bytes carry, so the adapter
// first checks them against the receiver's — a checkpoint written under
// a different hash seed must not silently rehydrate into this prototype.
func (d *Distinct) UnmarshalBinary(data []byte) error {
	if len(data) >= 9 && (data[0] != d.h.Precision() || binary.LittleEndian.Uint64(data[1:]) != d.h.Seed()) {
		return fmt.Errorf("store: distinct synopsis: %w", core.ErrIncompatible)
	}
	return d.h.UnmarshalBinary(data)
}

// AppendBinary implements Synopsis.
func (f *Freq) AppendBinary(b []byte) ([]byte, error) { return f.cm.AppendBinary(b) }

// UnmarshalBinary implements Synopsis.
func (f *Freq) UnmarshalBinary(data []byte) error { return f.cm.UnmarshalBinary(data) }

// AppendBinary implements Synopsis.
func (t *TopK) AppendBinary(b []byte) ([]byte, error) { return t.ss.AppendBinary(b) }

// UnmarshalBinary implements Synopsis.
func (t *TopK) UnmarshalBinary(data []byte) error { return t.ss.UnmarshalBinary(data) }

// AppendBinary implements Synopsis.
func (qs *Quantiles) AppendBinary(b []byte) ([]byte, error) { return qs.q.AppendBinary(b) }

// UnmarshalBinary implements Synopsis.
func (qs *Quantiles) UnmarshalBinary(data []byte) error { return qs.q.UnmarshalBinary(data) }
