// Package lambda implements the Lambda Architecture of the tutorial's
// Figure 1 on the repo's real subsystems, with each numbered stage of the
// figure as an explicit component:
//
//  1. incoming data is dispatched to both the batch and speed layers
//     (ObserveBatch): the master dataset is an immutable mqlog topic
//     written, like the cluster's, by a store.LogWriter — one append per
//     partition group, keyed so a series lands in one partition — and
//     the same observations feed the speed layer;
//  2. the batch layer recomputes batch views from the master dataset
//     alone (RunBatch): a fresh sketch store replayed up to a frozen
//     end-offset snapshot (store.FreezeAtFrom over an
//     end-offset-bounded mqlog reader), never patched incrementally;
//  3. the serving layer indexes the batch view for low-latency reads:
//     the sealed store.FrozenView, swapped in atomically;
//  4. the speed layer absorbs what the batch view does not yet cover: a
//     sharded store.Store fed synchronously by ObserveBatch;
//  5. queries merge the batch and realtime views (Query): the two
//     synopsis snapshots combine through store.CombineSnapshots, so one
//     code path answers counters, cardinality, quantiles and top-k.
//
// # Offset fencing
//
// The two layers partition the log by offset, per partition: a batch view
// frozen at end-offset snapshot E answers exactly for [0, E), and at every
// batch handoff the speed layer is swapped, atomically under the append
// lock, for a fresh store replayed from the fence, so it holds exactly
// [E, ...). Before the first handoff E is zero: the first use replays
// whatever a reopened durable master already retains. Merged answers
// therefore cover every appended observation exactly once;
// TestMergedMatchesOracleAcrossBoundaries and experiment F1.2 pin this
// against a replay-everything oracle across batch boundaries. A durable
// master's disk retention (mqlog.DurableConfig's MaxLogBytes) bounds
// recomputation the usual way: history the log has dropped is gone for
// every layer equally (FrozenView.Truncated reports it).
//
// The old package-local master dataset (an event slice) and keyed-counter
// speed layer are gone: the same store/mqlog seams the rest of the repo
// serves production traffic through are the only implementation.
package lambda

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config tunes an Architecture.
type Config struct {
	// Partitions is the master topic's partition count (default 4).
	Partitions int
	// Store is the store geometry both layers share: batch views are
	// recomputed with it and the speed layer absorbs with it, so a merged
	// answer combines buckets of one width.
	Store store.Config
	// Durable, when non-nil, backs the master topic with segmented
	// on-disk persistence (see mqlog.DurableConfig), so the master
	// dataset survives a process restart.
	Durable *mqlog.DurableConfig
	// CheckpointDir, when non-empty, makes batch recomputation
	// incremental across restarts: RunBatch writes each installed view's
	// checkpoint there, and the next RunBatch (in this process or a
	// restarted one) seeds its view from the snapshot and replays only
	// the log suffix past it (store.FreezeAtFrom).
	CheckpointDir string
}

// masterTopic names the master-dataset topic.
const masterTopic = "lambda-master"

// BatchInfo describes one completed batch run.
type BatchInfo struct {
	Version        uint64   // 1 for the first batch view, then increasing
	Ends           []uint64 // per-partition frozen end offsets the view covers
	Applied        uint64   // observations the recompute replayed (suffix only when FromCheckpoint)
	Truncated      bool     // part of the covered range was lost to retention
	Restored       uint64   // bucket records rehydrated from a checkpoint
	FromCheckpoint bool     // the view was seeded from a checkpoint
}

// Architecture wires the layers together per Figure 1.
type Architecture struct {
	cfg   Config
	topic *mqlog.Topic
	log   *store.LogWriter

	// metrics is the registered metric table both layers are built
	// from; startMu seals it at the first use.
	metrics store.MetricTable

	// speedMu is the handoff lock: writes dispatch under RLock, RunBatch
	// swaps the truncated speed store under Lock, so a batch cutover sees
	// a drained, frozen log tail.
	speedMu sync.RWMutex
	speed   *store.Store

	started atomic.Bool
	startMu sync.Mutex

	// batch is the serving layer: the latest sealed view, swapped
	// atomically; nil before the first RunBatch.
	batch   atomic.Pointer[store.FrozenView]
	batchMu sync.Mutex // serializes batch runs
	version atomic.Uint64

	appended atomic.Uint64

	// tel is the architecture's telemetry and tracer wiring
	// (telemetry.go), swapped atomically so SetTelemetry can be called on
	// a live architecture.
	tel atomic.Pointer[archTel]
}

// New returns a store-backed Lambda Architecture. Register metrics, then
// ObserveBatch/Query; RunBatch whenever the batch cadence fires.
func New(cfg Config) (*Architecture, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	// Validate the geometry eagerly: a config that cannot build a store
	// must fail here, not at the first batch run.
	speed, err := store.New(cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("lambda: store config: %w", err)
	}
	a := &Architecture{cfg: cfg, speed: speed}
	topic, err := mqlog.NewBroker().CreateTopicDurable(masterTopic, cfg.Partitions, 0, cfg.Durable)
	if err != nil {
		return nil, err
	}
	a.topic, a.log = topic, store.NewLogWriter(topic)
	return a, nil
}

// RegisterMetric binds a metric name to the synopsis prototype both
// layers build buckets with. Register every metric before the first
// write (a batch view recomputed without a metric could not absorb its
// history). Registration holds the start lock, so the first use builds
// its speed store from every metric registered before it, and none
// after.
func (a *Architecture) RegisterMetric(name string, proto store.Prototype) error {
	a.startMu.Lock()
	defer a.startMu.Unlock()
	if a.started.Load() {
		return fmt.Errorf("lambda: register metric %q before the first append", name)
	}
	return a.metrics.Register(name, proto)
}

// newSpeed builds an empty speed store carrying every registered metric,
// wired to the architecture's registry before it serves (re-registration
// swaps the layer="lambda_speed" callbacks over to it).
func (a *Architecture) newSpeed() (*store.Store, error) {
	st, err := store.NewWith(a.cfg.Store, a.metrics.Table())
	if err != nil {
		return nil, err
	}
	if tel := a.tel.Load(); tel != nil {
		st.SetTelemetry(tel.reg, "layer", "lambda_speed")
	}
	return st, nil
}

// ensureStarted seals the metric set on the first append, query, key
// listing or batch run. A durable master reopened over an earlier
// process's directory already holds history no batch view covers yet, so
// the speed layer starts as a replay of the retained log, swapped in
// under the handoff lock: until the first RunBatch it is the only layer
// serving.
func (a *Architecture) ensureStarted() error {
	if a.started.Load() {
		return nil
	}
	a.startMu.Lock()
	defer a.startMu.Unlock()
	if a.started.Load() {
		return nil
	}
	fresh, err := a.newSpeed()
	if err != nil {
		return err
	}
	a.speedMu.Lock()
	defer a.speedMu.Unlock()
	if err := a.replayMaster(fresh, make([]uint64, a.topic.Partitions())); err != nil {
		return err
	}
	a.speed = fresh
	a.started.Store(true)
	return nil
}

// replayMaster replays every master partition from from[pid] to the
// log's end into a fresh speed store. Callers hold speedMu for writing,
// so the end is the whole log: no append can land past it unseen.
func (a *Architecture) replayMaster(st *store.Store, from []uint64) error {
	for pid, end := range a.topic.EndOffsets() {
		if _, err := store.ReplayPartitionTo(st, a.topic, pid, from[pid], end); err != nil {
			return err
		}
	}
	return nil
}

// ObserveBatch dispatches a slice of observations to both layers
// (Figure 1, step 1): the log writer appends it to the master topic, one
// append per partition group, so a series replays in append order, and
// the same observations land in the speed layer. The entire batch is
// validated first: the master dataset is immutable, so a rejected batch
// appends NOTHING. Both writes happen under one read hold of the handoff
// lock, so a cutover sees the batch in both layers or neither, and the
// write is synchronous (read-your-writes). Per-key order is input order,
// so an accepted batch is byte-identical to one observation per call.
func (a *Architecture) ObserveBatch(obs []store.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	if err := a.ensureStarted(); err != nil {
		return err
	}
	// The store's rule, shared with the cluster router, so a program can
	// switch backends without its accepted-input surface moving.
	if err := a.metrics.Check(obs); err != nil {
		return err
	}
	a.speedMu.RLock()
	defer a.speedMu.RUnlock()
	a.log.Append(obs, nil)
	a.appended.Add(uint64(len(obs)))
	return a.speed.ObserveBatch(obs)
}

// RunBatch recomputes the batch view from the master dataset alone
// (step 2), installs it in the serving layer (step 3), and truncates the
// speed layer to the uncovered suffix (step 4). The freeze point is an
// end-offset snapshot taken at entry; appends keep flowing into the old
// speed layer while the recompute runs, and the cutover — install view,
// swap in a speed store replayed from the fence — is atomic under the
// append lock.
func (a *Architecture) RunBatch() (BatchInfo, error) {
	if err := a.ensureStarted(); err != nil {
		return BatchInfo{}, err
	}
	a.batchMu.Lock()
	defer a.batchMu.Unlock()

	tel := a.tel.Load()
	var handoffStart time.Time
	if tel != nil {
		handoffStart = time.Now()
	}
	ends := a.topic.EndOffsets()
	var freezeStart time.Time
	if tel != nil {
		freezeStart = time.Now()
	}
	// With a CheckpointDir the recompute is incremental: the previous
	// run's snapshot (possibly from a previous process) seeds the view
	// and only the log suffix past it replays. Without one, or when the
	// snapshot no longer fits, this is the full [0, ends) recompute.
	view, err := store.FreezeAtFrom(a.cfg.Store, a.metrics.Table(), a.topic, ends, a.cfg.CheckpointDir)
	if err != nil {
		return BatchInfo{}, err
	}
	if tel != nil {
		tel.freeze.ObserveSince(freezeStart)
	}
	var truncStart time.Time
	if tel != nil {
		truncStart = time.Now()
	}

	// Cutover: block appends, replay the post-freeze suffix
	// [ends, live end) into a fresh speed store, swap both pointers. The
	// replay cost is one inter-batch delta — the same work the old
	// buffer-expiry rebuild paid, against the log.
	fresh, err := a.newSpeed()
	if err != nil {
		return BatchInfo{}, err
	}
	a.speedMu.Lock()
	if err := a.replayMaster(fresh, ends); err != nil {
		a.speedMu.Unlock()
		return BatchInfo{}, err
	}
	a.speed = fresh
	a.batch.Store(view)
	a.version.Add(1)
	a.speedMu.Unlock()
	if tel != nil {
		tel.truncate.ObserveSince(truncStart)
		tel.handoff.ObserveSince(handoffStart)
	}
	info := BatchInfo{
		Version:        a.version.Load(),
		Ends:           view.EndOffsets(),
		Applied:        view.Applied(),
		Truncated:      view.Truncated(),
		Restored:       view.Restored(),
		FromCheckpoint: view.FromCheckpoint(),
	}
	if a.cfg.CheckpointDir != "" {
		// Persist the just-installed view after the handoff completes: a
		// write failure costs only the next run's fast path, but the
		// caller should know — the view is serving either way (Version
		// already counts it).
		if _, err := view.WriteCheckpoint(a.cfg.CheckpointDir); err != nil {
			return info, fmt.Errorf("lambda: batch checkpoint: %w", err)
		}
	}
	return info, nil
}

// Query answers one serving-API request by combining the batch and
// realtime views (step 5): for every requested (metric, key) cell the
// sealed batch snapshot and the live speed snapshot merge through
// store.CombineSnapshots, whatever the metric's family; aggregate
// requests then merge the per-key cells in sorted key order. Before the
// first batch run the answer is the speed layer's alone. The (batch view,
// speed store) pair is snapshotted under the same read lock RunBatch's
// cutover writes both sides under, so a query can never pair an old speed
// store with a new batch view (which would double-count the inter-batch
// delta) or the reverse (which would drop it); the speed side of every
// requested cell is gathered under that one read lock, so a multi-key
// query costs one handoff-lock round-trip, not one per key.
//
// ctx threads into the speed layer's gather and the batch view's (both
// the store's per-shard fan-out) and is re-checked between metrics in
// the merge, so a cancelled or expired context aborts the request with
// an error wrapping ctx.Err(). The batch view is sealed and the merge
// allocates only private state, so an aborted query leaves nothing to
// clean up.
func (a *Architecture) Query(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	if err := a.ensureStarted(); err != nil {
		return store.QueryResult{}, err
	}
	req, err := req.Normalize()
	if err != nil {
		return store.QueryResult{}, err
	}
	prototypes := make([]store.Prototype, len(req.Metrics))
	for i, metric := range req.Metrics {
		if prototypes[i], err = a.metrics.Lookup(metric); err != nil {
			return store.QueryResult{}, err
		}
	}

	// A traced request records one child span per merge stage — speed
	// gather, batch-view read, cell-wise merge — parented on the caller's
	// context; an untraced request pays one Valid check. The deferred
	// finishes only matter on error returns (Finish is idempotent).
	var tr *trace.Tracer
	if req.Trace.Valid() {
		if t := a.tel.Load(); t != nil {
			tr = t.trc
		}
	}

	// Phase 1: snapshot the (batch view, speed layer) pair and gather the
	// speed side of every cell. AllKeys resolves against the union of both
	// layers' resident keys, so a key only the batch view still holds is
	// answered too.
	var ssp *trace.Span
	if tr != nil {
		ssp = tr.StartRemote(req.Trace, "lambda.speed")
		defer ssp.Finish()
	}
	keysPerMetric := make([][]string, len(req.Metrics))
	speedPerMetric := make([][]store.Synopsis, len(req.Metrics))
	a.speedMu.RLock()
	view := a.batch.Load()
	for i, metric := range req.Metrics {
		keys := req.Keys
		if req.AllKeys {
			keys = unionKeys(a.speed.Keys(metric), viewKeys(view, metric))
		}
		keysPerMetric[i] = keys
		if len(keys) == 0 {
			continue
		}
		// The sub-request carries the speed span's context, so the
		// store's per-shard gather spans nest under lambda.speed.
		res, err := a.speed.Query(ctx, store.QueryRequest{Metric: metric, Keys: keys, From: req.From, To: req.To, Trace: ssp.Context()})
		if err != nil {
			a.speedMu.RUnlock()
			return store.QueryResult{}, err
		}
		speedPerMetric[i] = res.RawSynopses()
	}
	a.speedMu.RUnlock()
	if ssp != nil {
		cells := 0
		for _, keys := range keysPerMetric {
			cells += len(keys)
		}
		ssp.SetAttrs(trace.Int("metrics", int64(len(req.Metrics))), trace.Int("cells", int64(cells)))
		ssp.Finish()
	}

	// Phase 2a: the view is sealed, so querying it outside the lock is
	// safe; read the batch side of every cell.
	var bsp *trace.Span
	if tr != nil {
		bsp = tr.StartRemote(req.Trace, "lambda.batch")
		defer bsp.Finish()
	}
	batchPerMetric := make([][]store.Synopsis, len(req.Metrics))
	if view != nil {
		for i, metric := range req.Metrics {
			keys := keysPerMetric[i]
			if len(keys) == 0 {
				continue
			}
			res, err := view.Query(ctx, store.QueryRequest{Metric: metric, Keys: keys, From: req.From, To: req.To})
			if err != nil {
				return store.QueryResult{}, err
			}
			batchPerMetric[i] = res.RawSynopses()
		}
	}
	if bsp != nil {
		bsp.SetAttrs(trace.Bool("view", view != nil), trace.Int("version", int64(a.version.Load())))
		bsp.Finish()
	}

	// Phase 2b: merge batch and speed cell-wise, then aggregate if asked.
	var msp *trace.Span
	if tr != nil {
		msp = tr.StartRemote(req.Trace, "lambda.merge")
		defer msp.Finish()
	}
	var answers []store.Answer
	mergedCells := 0
	for i, metric := range req.Metrics {
		if err := ctx.Err(); err != nil {
			return store.QueryResult{}, queryCancelled(err)
		}
		keys := keysPerMetric[i]
		batchSyns := batchPerMetric[i]
		merged := make([]store.Synopsis, len(keys))
		for j := range keys {
			var batchSyn, speedSyn store.Synopsis
			if batchSyns != nil {
				batchSyn = batchSyns[j]
			}
			if speedPerMetric[i] != nil {
				speedSyn = speedPerMetric[i][j]
			}
			if merged[j], err = store.CombineSnapshots(prototypes[i], batchSyn, speedSyn); err != nil {
				return store.QueryResult{}, err
			}
		}
		if t := a.tel.Load(); t != nil {
			t.merges.Add(uint64(len(keys)))
		}
		mergedCells += len(keys)
		if answers, err = store.AppendAnswers(answers, metric, prototypes[i], keys, merged, req.Aggregate); err != nil {
			return store.QueryResult{}, err
		}
	}
	if msp != nil {
		msp.SetAttrs(trace.Int("cells", int64(mergedCells)))
		msp.Finish()
	}
	return store.NewQueryResult(answers), nil
}

// queryCancelled wraps a context error so errors.Is still sees
// context.Canceled / context.DeadlineExceeded through the wrap.
func queryCancelled(err error) error {
	return fmt.Errorf("lambda: query cancelled: %w", err)
}

// viewKeys returns the metric's keys resident in the batch view (nil
// before the first batch run).
func viewKeys(view *store.FrozenView, metric string) []string {
	if view == nil {
		return nil
	}
	return view.Keys(metric)
}

// unionKeys merges key slices into one sorted, deduplicated union.
func unionKeys(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// BatchOnlyQuery answers from the serving layer alone — the stale answer
// a batch-only system would give between recomputes, used by the F1
// staleness experiment. Before the first batch run it answers empty.
// The range is inclusive, as in store.PointRequest.
func (a *Architecture) BatchOnlyQuery(metric, key string, from, to int64) (store.Synopsis, error) {
	if view := a.batch.Load(); view != nil {
		res, err := view.Query(context.TODO(), store.PointRequest(metric, key, from, to))
		if err != nil {
			return nil, err
		}
		return res.Raw(), nil
	}
	newSynopsis, err := a.metrics.Lookup(metric)
	if err != nil {
		return nil, err
	}
	return newSynopsis(), nil
}

// Keys returns the union of keys for the metric across the batch and
// speed layers (sorted, deduplicated — the union Query resolves
// AllKeys against). As in Query, the layer pair is snapshotted under the
// cutover's read lock. Like any read it is a first use; a start that
// fails lists nothing, and the next Query reports why.
func (a *Architecture) Keys(metric string) []string {
	if a.ensureStarted() != nil {
		return nil
	}
	a.speedMu.RLock()
	defer a.speedMu.RUnlock()
	return unionKeys(a.speed.Keys(metric), viewKeys(a.batch.Load(), metric))
}

// BatchView returns the current sealed batch view (nil before the first
// RunBatch).
func (a *Architecture) BatchView() *store.FrozenView { return a.batch.Load() }

// Staleness returns the number of master-log records not yet covered by
// the batch view — the speed layer's raison d'être. It counts the log, not
// this process's appends, so the history a reopened durable master
// carries is stale until the first RunBatch covers it.
func (a *Architecture) Staleness() uint64 {
	var covered uint64
	if view := a.batch.Load(); view != nil {
		for _, e := range view.EndOffsets() {
			covered += e
		}
	}
	return a.MasterLen() - covered
}

// MasterLen returns the total number of messages ever appended to the
// master topic (per-partition end offsets are monotone, so this counts
// through retention).
func (a *Architecture) MasterLen() uint64 {
	var total uint64
	for _, end := range a.topic.EndOffsets() {
		total += end
	}
	return total
}

// Appended returns the observations dispatched through ObserveBatch.
func (a *Architecture) Appended() uint64 { return a.appended.Load() }

// Topic returns the master-dataset topic — the replay surface oracles
// and audits rebuild from.
func (a *Architecture) Topic() *mqlog.Topic { return a.topic }

// Stats snapshots the speed layer's store counters — how much the
// realtime view currently absorbs (the sealed batch view reports
// separately via BatchView().Stats()).
func (a *Architecture) Stats() store.Stats {
	a.speedMu.RLock()
	defer a.speedMu.RUnlock()
	return a.speed.Stats()
}

// Close releases the architecture: the master topic is closed — for a
// durable topic that is the final flush+fsync of its segment files. The
// topic's in-memory state survives: a closed architecture's log can still
// be replayed.
func (a *Architecture) Close() error { return a.topic.Close() }
