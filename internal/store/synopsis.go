// synopsis.go defines the bucket contract of the sketch store and the
// adapters that put the library's mergeable synopsis structures behind it.
//
// The store is deliberately agnostic about what a time bucket summarizes:
// a bucket is anything that can absorb observations, report its footprint,
// and merge with another bucket of the same shape (the tutorial's
// "algorithms should be able to scale out" requirement, reduced to one
// interface). Each metric registered with the store picks its synopsis by
// supplying a Prototype; range queries merge bucket synopses into a
// prototype instance and answer with it — or, when the merged result is
// sparse, with its compact copy (see finish).
package store

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/quantile"
)

// Synopsis is the contract a time bucket's summary must satisfy. Merging
// two synopses must be equivalent (within the sketch's error guarantee) to
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
}

// compactable is the synopsis extension seal-time compaction and query
// answers use (see entry.sealSlot and finish). compacted returns an
// immutable copy of the synopsis in a form sized by what it holds —
// answering every read, Merge-as-source and MarshalBinary exactly as the
// receiver does — or nil when the receiver is already held so, or too
// full for such a copy to pay. release empties the receiver and returns
// it to its shape's accumulator pool, where the next Prototype call finds
// it; a synopsis no Prototype built (a bucket opened sparse, a compacted
// copy) is left alone. Distinct and Freq copy into their sparse forms;
// Quantiles copies its q-digest with the nodes packed, a few bytes each
// (see quantile.QDigest.Compact), and returns nil only for such a copy.
// Space-Saving is sized by its k counters and has no such copy. A store
// bucket of Distinct or Freq opens, clones and restores in the sparse
// form (see sparseBorn) and turns dense only when too full for it, so it
// never has a compact copy to take at its seal: the seals that compact
// are the q-digest's.
type compactable interface {
	compacted() Synopsis
	release()
}

// sparseBorn is the synopsis extension of the families whose store
// buckets open in the sparse form: bucketProto returns a Prototype of
// empty synopses of the receiver's shape that allocate no dense array
// and turn dense by themselves once what they hold stops fitting the
// sparse form. Distinct and Freq have it. The instances a Prototype
// itself returns stay dense and pooled: they are the merge accumulators
// of queries.
type sparseBorn interface {
	bucketProto() Prototype
}

// bucketProtoOf returns the Prototype a metric's buckets open with: the
// family's sparse-born one where it has one, proto itself otherwise. It
// builds one instance of proto to ask and hands it back to its pool.
func bucketProtoOf(proto Prototype) Prototype {
	syn := proto()
	open := proto
	if s, ok := syn.(sparseBorn); ok {
		open = s.bucketProto()
	}
	if c, ok := syn.(compactable); ok {
		c.release()
	}
	return open
}

// finish turns a query's merge accumulator into the answer the query
// returns. A result its family can hold smaller (a HyperLogLog or
// Count-Min that fits its sparse form, any q-digest accumulator) is
// answered by the compacted copy, and the accumulator goes back to its
// pool; anything else — a result too full to compact, or a family
// without a compact form — is its own answer.
// The caller must own acc outright and not touch it afterwards.
func finish(acc Synopsis) Synopsis {
	c, ok := acc.(compactable)
	if !ok {
		return acc
	}
	small := c.compacted()
	if small == nil {
		return acc
	}
	c.release()
	return small
}

// accShape identifies the synopses one accumulator pool may hold:
// instances of equal shape are interchangeable once emptied.
type accShape struct {
	family  Family
	a, b, c uint64 // precision and seed; width, depth and seed; logU and k
}

// accPools maps an accShape to its *sync.Pool. Pools are shared by every
// Prototype of a shape — in practice one per registered metric — so an
// accumulator released by one store's query serves the next query on any
// store, and dense answers built by equal-shaped Prototypes stay equal
// value for value.
var accPools sync.Map

func accPool(s accShape) *sync.Pool {
	p, _ := accPools.LoadOrStore(s, new(sync.Pool))
	return p.(*sync.Pool)
}

// Prototype constructs a fresh, empty Synopsis. The store calls it when a
// new time bucket opens, when a sealed bucket needs a copy-on-write clone,
// and to build the merge target of a range query, so a Prototype must
// return independent instances with identical parameters (including hash
// seeds, or merges will fail). For the families with a sparse form the
// buckets come from the Prototype's sparse-born sibling instead (see
// sparseBorn).
type Prototype func() Synopsis

// CombineSnapshots merges partial query answers into one fresh synopsis —
// the scatter-gather combiner: each part is typically one node's (or one
// key's) Query result, and the combined synopsis answers for their union.
// Parts are merged in argument order into a new proto() instance, so the
// combination is deterministic for a deterministic part order; nil parts
// are skipped (an absent partial is an empty answer, matching Query's
// never-seen-this-series semantics). The inputs are not mutated. Like a
// query answer, the result is held compact when it is sparse enough.
func CombineSnapshots(proto Prototype, parts ...Synopsis) (Synopsis, error) {
	if proto == nil {
		return nil, core.Errf("CombineSnapshots", "proto", "must be non-nil")
	}
	out := proto()
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := out.Merge(p); err != nil {
			return nil, fmt.Errorf("store: combine snapshots: %w", err)
		}
	}
	return finish(out), nil
}

// ---- Distinct counting (HyperLogLog) ----

// Distinct is a bucket synopsis counting unique items with a HyperLogLog.
// The observation value is ignored.
type Distinct struct {
	h    *cardinality.HyperLogLog
	pool *sync.Pool // the shape's accumulator pool; nil on buckets and compacted copies
}

// NewDistinctProto returns a Prototype of HyperLogLog synopses with 2^p
// registers. The constructor is validated once, eagerly, so a bad
// precision fails at registration time rather than on first write.
// Instances are dense and come from the shape's accumulator pool when it
// holds one; store buckets open as sparse HyperLogLogs instead.
func NewDistinctProto(precision uint8, seed uint64) (Prototype, error) {
	if _, err := cardinality.NewHyperLogLog(precision, seed); err != nil {
		return nil, err
	}
	pool := accPool(accShape{family: FamilyDistinct, a: uint64(precision), b: seed})
	return func() Synopsis {
		if d, ok := pool.Get().(*Distinct); ok {
			return d
		}
		h, _ := cardinality.NewHyperLogLog(precision, seed)
		return &Distinct{h: h, pool: pool}
	}, nil
}

// Observe implements Synopsis.
func (d *Distinct) Observe(item string, _ uint64) { d.h.UpdateString(item) }

// Merge implements Synopsis.
func (d *Distinct) Merge(other Synopsis) error {
	o, ok := other.(*Distinct)
	if !ok {
		return fmt.Errorf("store: cannot merge %T into *store.Distinct: %w", other, core.ErrIncompatible)
	}
	return d.h.Merge(o.h)
}

func (d *Distinct) bucketProto() Prototype {
	precision, seed := d.h.Precision(), d.h.Seed()
	return func() Synopsis {
		h, _ := cardinality.NewSparseHLL(precision, seed)
		return &Distinct{h: h}
	}
}

func (d *Distinct) compacted() Synopsis {
	if c := d.h.Compact(); c != nil {
		return &Distinct{h: c}
	}
	return nil
}

func (d *Distinct) release() {
	if d.pool != nil {
		d.h.Reset()
		d.pool.Put(d)
	}
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
type Freq struct {
	cm   *frequency.CountMin
	pool *sync.Pool // the shape's accumulator pool; nil on buckets and compacted copies
}

// NewFreqProto returns a Prototype of width x depth Count-Min synopses.
// Instances are dense and come from the shape's accumulator pool when it
// holds one; store buckets open as sparse Count-Min sketches instead.
func NewFreqProto(width, depth int, seed uint64) (Prototype, error) {
	if _, err := frequency.NewSparseCountMin(width, depth, seed); err != nil {
		return nil, err
	}
	pool := accPool(accShape{family: FamilyFreq, a: uint64(width), b: uint64(depth), c: seed})
	return func() Synopsis {
		if f, ok := pool.Get().(*Freq); ok {
			return f
		}
		cm, _ := frequency.NewCountMin(width, depth, seed)
		return &Freq{cm: cm, pool: pool}
	}, nil
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
	return f.cm.Merge(o.cm)
}

func (f *Freq) bucketProto() Prototype {
	width, depth, seed := f.cm.Width(), f.cm.Depth(), f.cm.Seed()
	return func() Synopsis {
		cm, _ := frequency.NewSparseCountMin(width, depth, seed)
		return &Freq{cm: cm}
	}
}

func (f *Freq) compacted() Synopsis {
	if c := f.cm.Compact(); c != nil {
		return &Freq{cm: c}
	}
	return nil
}

func (f *Freq) release() {
	if f.pool != nil {
		f.cm.Reset()
		f.pool.Put(f)
	}
}

// Items implements Synopsis.
func (f *Freq) Items() uint64 { return f.cm.Items() }

// Bytes implements Synopsis.
func (f *Freq) Bytes() int { return f.cm.Bytes() }

// Count returns the estimated count of item.
func (f *Freq) Count(item string) uint64 { return f.cm.EstimateString(item) }

// ---- Top-k (Space-Saving) ----

// TopK is a bucket synopsis tracking heavy hitters with a Space-Saving
// summary. Each observation is one occurrence; the value is ignored.
type TopK struct {
	ss *frequency.SpaceSaving
}

// NewTopKProto returns a Prototype of k-counter Space-Saving synopses.
func NewTopKProto(k int) (Prototype, error) {
	if _, err := frequency.NewSpaceSaving(k); err != nil {
		return nil, err
	}
	return func() Synopsis {
		ss, _ := frequency.NewSpaceSaving(k)
		return &TopK{ss: ss}
	}, nil
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
// observation values with a mergeable q-digest. The item is ignored.
type Quantiles struct {
	q    *quantile.QDigest
	pool *sync.Pool // the shape's accumulator pool; nil on compacted copies
}

// NewQuantileProto returns a Prototype of q-digest synopses over values in
// [0, 2^logU) with compression factor k. Instances come from the shape's
// accumulator pool when it holds one.
func NewQuantileProto(logU uint8, k uint64) (Prototype, error) {
	if _, err := quantile.NewQDigest(logU, k); err != nil {
		return nil, err
	}
	pool := accPool(accShape{family: FamilyQuantile, a: uint64(logU), b: k})
	return func() Synopsis {
		if qs, ok := pool.Get().(*Quantiles); ok {
			return qs
		}
		q, _ := quantile.NewQDigest(logU, k)
		return &Quantiles{q: q, pool: pool}
	}, nil
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
	return qs.q.Merge(o.q)
}

func (qs *Quantiles) compacted() Synopsis {
	if c := qs.q.Compact(); c != nil {
		return &Quantiles{q: c}
	}
	return nil
}

func (qs *Quantiles) release() {
	if qs.pool != nil {
		qs.q.Reset()
		qs.pool.Put(qs)
	}
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

// ---- Binary codecs (checkpoint/restore) ----
//
// All four built-in adapters implement encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler by delegating to their sketches — the
// optional extension the store's checkpoint writer requires of a
// Prototype's synopses — plus AppendBinary, the same bytes appended to a
// caller's buffer, which the checkpoint writer and the serving edge's
// response encoder use when a synopsis has it. Unmarshal always decodes into a receiver the
// restoring store constructed from its own registered Prototype, so the
// receiver carries the configuration (widths, seeds, universes) and the
// codecs verify the bytes against it where the underlying sketch can.

// AppendBinary appends syn's binary encoding to b: by syn's own
// AppendBinary when it has one, else by its MarshalBinary. A synopsis
// with neither is an error.
func AppendBinary(b []byte, syn Synopsis) ([]byte, error) {
	switch m := syn.(type) {
	case interface{ AppendBinary([]byte) ([]byte, error) }:
		return m.AppendBinary(b)
	case encoding.BinaryMarshaler:
		raw, err := m.MarshalBinary()
		return append(b, raw...), err
	default:
		return b, fmt.Errorf("store: synopsis %T has no binary encoding", syn)
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *Distinct) MarshalBinary() ([]byte, error) { return d.h.MarshalBinary() }

// AppendBinary appends the MarshalBinary encoding to b.
func (d *Distinct) AppendBinary(b []byte) ([]byte, error) { return d.h.AppendBinary(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The
// HyperLogLog's own decoder adopts whatever precision and seed the bytes
// carry, so the adapter first checks them against the receiver's — a
// checkpoint written under a different hash seed must not silently
// rehydrate into this prototype.
func (d *Distinct) UnmarshalBinary(data []byte) error {
	if len(data) >= 9 && (data[0] != d.h.Precision() || binary.LittleEndian.Uint64(data[1:]) != d.h.Seed()) {
		return fmt.Errorf("store: distinct synopsis: %w", core.ErrIncompatible)
	}
	return d.h.UnmarshalBinary(data)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Freq) MarshalBinary() ([]byte, error) { return f.cm.MarshalBinary() }

// AppendBinary appends the MarshalBinary encoding to b.
func (f *Freq) AppendBinary(b []byte) ([]byte, error) { return f.cm.AppendBinary(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *Freq) UnmarshalBinary(data []byte) error { return f.cm.UnmarshalBinary(data) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *TopK) MarshalBinary() ([]byte, error) { return t.ss.MarshalBinary() }

// AppendBinary appends the MarshalBinary encoding to b.
func (t *TopK) AppendBinary(b []byte) ([]byte, error) { return t.ss.AppendBinary(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *TopK) UnmarshalBinary(data []byte) error { return t.ss.UnmarshalBinary(data) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (qs *Quantiles) MarshalBinary() ([]byte, error) { return qs.q.MarshalBinary() }

// AppendBinary appends the MarshalBinary encoding to b.
func (qs *Quantiles) AppendBinary(b []byte) ([]byte, error) { return qs.q.AppendBinary(b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (qs *Quantiles) UnmarshalBinary(data []byte) error { return qs.q.UnmarshalBinary(data) }
