// frozen.go is the batch-serving half of the Lambda split: a store
// recomputed from the log up to a frozen end-offset snapshot and then
// sealed. FreezeAtFrom answers the question the batch layer asks — "what
// did the log say up to exactly this cut" — with the same two steps as
// every other rebuild: NewFromCheckpoint seeds the store when a snapshot
// may stand for a prefix of the cut, and ReplayPartitionTo replays each
// partition up to the cut. A speed layer serving [ends, ...) composes
// with the view into a complete, double-count-free answer
// (lambda.Architecture.Query merges the two through CombineSnapshots).
// The view is sealed by construction: it exposes no write path, so its
// answers are immutable once built, the property Figure 1 assigns to
// batch views.
package store

import (
	"repro/internal/core"
	"repro/internal/mqlog"
)

// FrozenView is a sealed batch view: a store rebuilt from the log prefix
// [oldest retained, ends) and then closed to writes. It is safe for
// concurrent readers (the underlying store is, and nothing mutates it).
type FrozenView struct {
	st             *Store
	ends           []uint64
	applied        uint64
	rejected       uint64
	truncated      bool
	restored       uint64
	fromCheckpoint bool
}

// FreezeAtFrom recomputes a batch view: a fresh store with the given
// config and metric prototypes, every partition of the topic replayed
// up to the frozen bound ends[pid] (exclusive), and the result sealed.
// ends is typically a Topic.EndOffsets snapshot taken at the freeze
// point; it must have one entry per partition. Messages the bound
// covers but retention has already dropped are unrecoverable and
// reported via Truncated — the retention-vs-recomputation trade every
// log-backed batch layer makes.
//
// With a non-empty checkpointDir the recompute is incremental: when the
// directory holds a checkpoint NewFromCheckpoint accepts for ends with no
// partition restriction (same geometry, no offset past ends), the view
// is rehydrated from the snapshot and only the log suffix
// [checkpoint offsets, ends) is replayed — Applied then counts just the
// suffix, and Restored/FromCheckpoint report the snapshot's
// contribution. Any incompatibility or corruption falls back to the
// full [0, ends) recompute, which is also what an empty checkpointDir
// asks for.
func FreezeAtFrom(cfg Config, protos map[string]Prototype, topic *mqlog.Topic, ends []uint64, checkpointDir string) (*FrozenView, error) {
	if topic == nil {
		return nil, core.Errf("FreezeAtFrom", "topic", "must be non-nil")
	}
	if len(ends) != topic.Partitions() {
		return nil, core.Errf("FreezeAtFrom", "ends", "%d bounds for %d partitions", len(ends), topic.Partitions())
	}
	st, starts, err := NewFromCheckpoint(cfg, protos, checkpointDir, nil, ends)
	if err != nil {
		return nil, err
	}
	v := &FrozenView{st: st, ends: append([]uint64(nil), ends...), fromCheckpoint: starts != nil}
	if v.fromCheckpoint {
		v.restored = st.restored.Load()
	} else {
		starts = make([]uint64, len(ends))
	}
	for pid := 0; pid < topic.Partitions(); pid++ {
		// From the checkpoint offset when restoring, else offset 0 — not
		// StartOffset: a batch view claims the whole prefix [0, ends), so
		// starting below the retention horizon lets the reader's
		// "earliest" reset surface what was actually lost. Poison is
		// skipped and counted by the replay, so one bad record in the
		// master log cannot wedge every future recompute at its offset.
		rs, err := ReplayPartitionTo(st, topic, pid, starts[pid], ends[pid])
		v.applied += rs.Applied
		v.rejected += rs.Rejected
		v.truncated = v.truncated || rs.Truncated
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// WriteCheckpoint snapshots the sealed view into dir, stamped with the
// view's end offsets — the pair the next FreezeAtFrom resumes from.
func (v *FrozenView) WriteCheckpoint(dir string) (CheckpointInfo, error) {
	return WriteCheckpoint(v.st, dir, CheckpointMeta{Offsets: v.ends})
}

// Query answers a serving-API request from the sealed view; see
// Store.Query for the semantics (a series the view never saw answers
// empty).
func (v *FrozenView) Query(req QueryRequest) (QueryResult, error) {
	return v.st.Query(req)
}

// Keys returns the metric's keys resident in the view.
func (v *FrozenView) Keys(metric string) []string { return v.st.Keys(metric) }

// EndOffsets returns the per-partition exclusive bounds the view was
// frozen at — the fence a speed layer truncates to after the handoff.
func (v *FrozenView) EndOffsets() []uint64 { return append([]uint64(nil), v.ends...) }

// Applied returns the number of decoded observations the recompute fed
// the view.
func (v *FrozenView) Applied() uint64 { return v.applied }

// Rejected returns the poison records the recompute skipped: values that
// do not decode, name an unregistered metric or carry a negative time.
func (v *FrozenView) Rejected() uint64 { return v.rejected }

// Truncated reports whether retention had already dropped part of the
// range the view was asked to cover.
func (v *FrozenView) Truncated() bool { return v.truncated }

// Restored returns the checkpoint records rehydrated into the view (0
// for a full recompute).
func (v *FrozenView) Restored() uint64 { return v.restored }

// FromCheckpoint reports whether the view was seeded from a checkpoint
// (Applied then counts only the replayed log suffix).
func (v *FrozenView) FromCheckpoint() bool { return v.fromCheckpoint }

// Stats returns the sealed store's counters (useful for footprint
// reporting; the write counters are final).
func (v *FrozenView) Stats() Stats { return v.st.Stats() }
