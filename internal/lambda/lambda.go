// Package lambda implements the Lambda Architecture of the tutorial's
// Figure 1 on the repo's real subsystems, with each numbered stage of the
// figure as an explicit component:
//
//  1. incoming data is dispatched to both the batch and speed layers
//     (ObserveBatch): the master dataset is an immutable mqlog topic —
//     every observation is encoded with the store wire codec and
//     appended, keyed so a series always lands in one partition — and
//     the same observation feeds the speed layer;
//  2. the batch layer recomputes batch views from the master dataset
//     alone (RunBatch): a fresh sketch store replayed up to a frozen
//     end-offset snapshot (store.FreezeAt over an end-offset-bounded
//     mqlog reader), never patched incrementally;
//  3. the serving layer indexes the batch view for low-latency reads:
//     the sealed store.FrozenView, swapped in atomically;
//  4. the speed layer absorbs what the batch view does not yet cover: a
//     sharded store.Store fed synchronously by ObserveBatch, or — behind
//     Config.Cluster — a partitioned dstore cluster consuming the master
//     topic through its router;
//  5. queries merge the batch and realtime views (Query): the two
//     synopsis snapshots combine through store.CombineSnapshots, so one
//     code path answers counters, cardinality, quantiles and top-k.
//
// # Offset fencing
//
// The two layers partition the log by offset, per partition: a batch view
// frozen at end-offset snapshot E answers exactly for [0, E), and the
// speed layer is truncated to [E, ...) at every batch handoff — a fresh
// speed store replayed from the fence (single-store mode, atomically
// under the append lock) or dstore.TruncateBelow + rebuild (cluster
// mode). Merged answers therefore cover every appended observation
// exactly once; TestMergedMatchesOracleAcrossBoundaries and experiment
// F1.2 pin this against a replay-everything oracle across batch
// boundaries. Retention on the master topic bounds recomputation the
// usual way: history the log has dropped is gone for every layer equally
// (FrozenView.Truncated reports it).
//
// The old package-local master dataset (an event slice) and keyed-counter
// speed layer are gone: the same store/mqlog/dstore seams the rest of the
// repo serves production traffic through are the only implementation.
package lambda

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dstore"
	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config tunes an Architecture.
type Config struct {
	// Topic names the master-dataset topic (default "lambda-master").
	// Ignored in cluster mode, where the cluster's ingest topic — named,
	// partitioned and retained by Cluster's own config — is the master.
	Topic string
	// Partitions is the master topic's partition count (default 4).
	// Ignored in cluster mode (see Topic).
	Partitions int
	// Retention is the per-partition retention limit in messages
	// (0 = unlimited). Batch recomputation replays the retained prefix,
	// so retention bounds how far back a batch view can reach. Ignored in
	// cluster mode (see Topic): set Cluster.Retention instead.
	Retention int
	// Batch is the batch-layer store geometry views are recomputed with.
	Batch store.Config
	// Speed is the speed-layer store geometry (single-store mode).
	Speed store.Config
	// Cluster, when non-nil, replaces the single speed store with a
	// partitioned dstore cluster: writes route through the cluster's
	// Router onto its ingest topic (which becomes the master dataset) and
	// speed queries are owner-routed. Cluster.Store supplies the per-node
	// geometry; Config.Speed is ignored.
	Cluster *dstore.Config
	// ClusterNodes is how many nodes to start in cluster mode (default 2).
	ClusterNodes int
	// Durable, when non-nil, backs the master topic with segmented
	// on-disk persistence (see mqlog.DurableConfig), so the master
	// dataset survives a process restart. In cluster mode it is copied
	// into the cluster config (unless Cluster.Durable is already set),
	// since the cluster's ingest topic is the master.
	Durable *mqlog.DurableConfig
	// CheckpointDir, when non-empty, makes batch recomputation
	// incremental across restarts: RunBatch writes each installed view's
	// checkpoint there, and the next RunBatch (in this process or a
	// restarted one) seeds its view from the snapshot and replays only
	// the log suffix past it (store.FreezeAtFrom).
	CheckpointDir string
}

func (c Config) withDefaults() Config {
	if c.Topic == "" {
		c.Topic = "lambda-master"
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.ClusterNodes <= 0 {
		c.ClusterNodes = 2
	}
	return c
}

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

	// protoMu guards protos; the map is read on every write and query in
	// single-store mode, so reads go through an RLock (cluster mode reads
	// the cluster's lock-free table instead).
	protoMu sync.RWMutex
	protos  map[string]store.Prototype

	// speedMu is the handoff lock: writes dispatch under RLock, RunBatch
	// swaps the truncated speed store under Lock, so a batch cutover sees
	// a drained, frozen log tail. Cluster mode never takes it on the write
	// path (the router is the synchronization point).
	speedMu sync.RWMutex
	speed   *store.Store

	cluster *dstore.Cluster
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
	if cfg.Retention < 0 {
		return nil, core.Errf("Lambda", "Retention", "%d must be >= 0", cfg.Retention)
	}
	cfg = cfg.withDefaults()
	a := &Architecture{cfg: cfg, protos: make(map[string]store.Prototype)}
	// Validate both layer geometries eagerly: a config that cannot build a
	// store must fail here, not at the first batch run.
	if _, err := store.New(cfg.Batch); err != nil {
		return nil, fmt.Errorf("lambda: batch store config: %w", err)
	}
	if cfg.Cluster != nil {
		ccfg := *cfg.Cluster
		if ccfg.Durable == nil {
			// The cluster's ingest topic is the master dataset, so the
			// architecture's durability setting belongs to it.
			ccfg.Durable = cfg.Durable
		}
		cl, err := dstore.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("lambda: cluster speed layer: %w", err)
		}
		a.cluster = cl
		a.topic = cl.Topic()
		return a, nil
	}
	speed, err := store.New(cfg.Speed)
	if err != nil {
		return nil, fmt.Errorf("lambda: speed store config: %w", err)
	}
	a.speed = speed
	topic, err := mqlog.NewBroker().CreateTopicDurable(cfg.Topic, cfg.Partitions, cfg.Retention, cfg.Durable)
	if err != nil {
		return nil, err
	}
	a.topic = topic
	return a, nil
}

// RegisterMetric binds a metric name to the synopsis prototype both
// layers build buckets with. Register every metric before the first
// write (cluster nodes rebuild stores from the registered set, and a
// batch view recomputed without a metric could not absorb its history).
func (a *Architecture) RegisterMetric(name string, proto store.Prototype) error {
	if a.started.Load() {
		return fmt.Errorf("lambda: register metric %q before the first append", name)
	}
	if a.cluster != nil {
		if err := a.cluster.RegisterMetric(name, proto); err != nil {
			return err
		}
	} else {
		if err := a.speed.RegisterMetric(name, proto); err != nil {
			return err
		}
	}
	a.protoMu.Lock()
	a.protos[name] = proto
	a.protoMu.Unlock()
	return nil
}

// Metrics returns the registered metric names (unordered).
func (a *Architecture) Metrics() []string {
	a.protoMu.RLock()
	defer a.protoMu.RUnlock()
	out := make([]string, 0, len(a.protos))
	for name := range a.protos {
		out = append(out, name)
	}
	return out
}

func (a *Architecture) proto(metric string) (store.Prototype, error) {
	a.protoMu.RLock()
	p, ok := a.protos[metric]
	a.protoMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lambda: %w %q", store.ErrUnknownMetric, metric)
	}
	return p, nil
}

// protoTable snapshots the registered metrics for a batch recompute.
func (a *Architecture) protoTable() map[string]store.Prototype {
	a.protoMu.RLock()
	defer a.protoMu.RUnlock()
	out := make(map[string]store.Prototype, len(a.protos))
	for name, p := range a.protos {
		out[name] = p
	}
	return out
}

// ensureStarted performs the lazy cluster-node start on the first append
// or query, after which the metric set is immutable.
func (a *Architecture) ensureStarted() error {
	if a.started.Load() {
		return nil
	}
	a.startMu.Lock()
	defer a.startMu.Unlock()
	if a.started.Load() {
		return nil
	}
	if a.cluster != nil {
		for i := 0; i < a.cfg.ClusterNodes; i++ {
			if _, err := a.cluster.StartNode(); err != nil {
				return err
			}
		}
	}
	a.started.Store(true)
	return nil
}

// ObserveBatch dispatches a slice of observations to both layers
// (Figure 1, step 1): each wire-encoded observation is appended to the
// master topic — keyed by its Key, so a series replays in append order
// — and the same observations land in the speed layer. The entire batch
// is validated first: the master dataset is immutable, so a rejected
// batch appends NOTHING. In single-store mode one append-lock
// acquisition covers every Produce, the speed store absorbs the batch
// through its own amortized path, and the write is synchronous
// (read-your-writes). In cluster mode the router validates, groups
// records per partition and batches them onto the log, and the owning
// node applies them (Drain the architecture's Cluster for
// read-your-writes). Per-key order is input order in both modes, so an
// accepted batch is byte-identical to one observation per call.
func (a *Architecture) ObserveBatch(obs []store.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	if err := a.ensureStarted(); err != nil {
		return err
	}
	if a.cluster != nil {
		// One dispatch reaches both layers because both read the same
		// log: the router appends, the nodes consume.
		if err := a.cluster.Router().ObserveBatch(obs); err != nil {
			return err
		}
		a.appended.Add(uint64(len(obs)))
		return nil
	}
	// The checks mirror the cluster router's, so a program can switch
	// speed-layer modes without its accepted-input surface moving.
	for i := range obs {
		o := &obs[i]
		if o.Time < 0 {
			return core.Errf("Lambda", "Time", "%d must be >= 0", o.Time)
		}
		if o.Key == "" {
			return core.Errf("Lambda", "Key", "must be non-empty (keys route the master log's partitions)")
		}
		if _, err := a.proto(o.Metric); err != nil {
			return err
		}
	}
	a.speedMu.RLock()
	defer a.speedMu.RUnlock()
	scratch := make([]byte, 0, 128) // reused per record: Produce copies the value
	for i := range obs {
		scratch = store.AppendObservation(scratch[:0], obs[i])
		a.topic.Produce(obs[i].Key, scratch)
	}
	a.appended.Add(uint64(len(obs)))
	return a.speed.ObserveBatch(obs)
}

// RunBatch recomputes the batch view from the master dataset alone
// (step 2), installs it in the serving layer (step 3), and truncates the
// speed layer to the uncovered suffix (step 4). The freeze point is an
// end-offset snapshot taken at entry; appends keep flowing into the old
// speed layer while the recompute runs, and the cutover — install view,
// swap in a speed store replayed from the fence — is atomic under the
// append lock (single-store mode) or handed to the cluster's truncation
// rebuild (cluster mode; exact once RunBatch returns, because it drains).
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
	if a.cluster != nil {
		// Settle producer-side batches so the freeze covers them.
		a.cluster.Router().Flush()
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
	view, err := store.FreezeAtFrom(a.cfg.Batch, a.protoTable(), a.topic, ends, a.cfg.CheckpointDir)
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

	if a.cluster != nil {
		// Install the view first, then shed the covered prefix: the brief
		// overlap double-covers (never drops) history, and the drain below
		// restores exactness before RunBatch returns. The version bumps
		// with the install, so even an error from the truncation or drain
		// below leaves BatchVersion counting the views actually serving.
		a.batch.Store(view)
		a.version.Add(1)
		if err := a.cluster.TruncateBelow(ends); err != nil {
			return BatchInfo{}, err
		}
		if err := a.cluster.Drain(); err != nil {
			return BatchInfo{}, err
		}
	} else {
		// Single-store cutover: block appends, replay the post-freeze
		// suffix [ends, live end) into a fresh speed store, swap both
		// pointers. The replay cost is one inter-batch delta — the same
		// work the old buffer-expiry rebuild paid, against the log.
		fresh, err := store.New(a.cfg.Speed)
		if err != nil {
			return BatchInfo{}, err
		}
		for name, proto := range a.protoTable() {
			if err := fresh.RegisterMetric(name, proto); err != nil {
				return BatchInfo{}, err
			}
		}
		if tel != nil {
			// Re-bind the speed layer's metric series and tracer to the
			// replacement store before it serves (re-registration swaps
			// the callbacks).
			fresh.SetTelemetry(tel.reg, "layer", "lambda_speed")
		}
		a.speedMu.Lock()
		for pid := 0; pid < a.topic.Partitions(); pid++ {
			if _, err := store.ReplayPartitionTo(fresh, a.topic, pid, ends[pid], a.topic.EndOffset(pid)); err != nil {
				a.speedMu.Unlock()
				return BatchInfo{}, err
			}
		}
		a.speed = fresh
		a.batch.Store(view)
		a.version.Add(1)
		a.speedMu.Unlock()
	}
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
// first batch run the answer is the speed layer's alone. In single-store
// mode the (batch view, speed store) pair is snapshotted under the same
// read lock RunBatch's cutover writes both sides under, so a query can
// never pair an old speed store with a new batch view (which would
// double-count the inter-batch delta) or the reverse (which would drop
// it); the speed side of every requested cell is gathered under that one
// read lock, so a multi-key query costs one handoff-lock round-trip, not
// one per key. In cluster mode the speed side is one generation-fenced
// scatter-gather per metric.
func (a *Architecture) Query(req store.QueryRequest) (store.QueryResult, error) {
	return a.QueryContext(context.Background(), req)
}

// queryCancelled wraps a context error so errors.Is still sees
// context.Canceled / context.DeadlineExceeded through the wrap.
func queryCancelled(err error) error {
	return fmt.Errorf("lambda: query cancelled: %w", err)
}

// QueryContext is Query honoring a deadline: ctx threads into the speed
// layer's gather (the store's per-shard fan-out, or the cluster's
// scatter-gather in cluster mode) and is re-checked between the merge
// phases, so a cancelled or expired context aborts the request with an
// error wrapping ctx.Err(). The batch view is sealed and the merge
// allocates only private state, so an aborted query leaves nothing to
// clean up. context.Background() recovers plain Query exactly.
func (a *Architecture) QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	if err := a.ensureStarted(); err != nil {
		return store.QueryResult{}, err
	}
	req, err := req.Normalize()
	if err != nil {
		return store.QueryResult{}, err
	}
	protos := make([]store.Prototype, len(req.Metrics))
	for i, metric := range req.Metrics {
		if protos[i], err = a.proto(metric); err != nil {
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
	var view *store.FrozenView
	keysPerMetric := make([][]string, len(req.Metrics))
	speedPerMetric := make([][]store.Synopsis, len(req.Metrics))
	gather := func(speed func(store.QueryRequest) (store.QueryResult, error), speedKeys func(string) []string) error {
		for i, metric := range req.Metrics {
			keys := req.Keys
			if req.AllKeys {
				keys = unionKeys(speedKeys(metric), viewKeys(view, metric))
			}
			keysPerMetric[i] = keys
			if len(keys) == 0 {
				continue
			}
			// The sub-request carries the speed span's context, so the
			// store's per-shard gather spans (and, in cluster mode, the
			// router's scatter spans) nest under lambda.speed.
			res, err := speed(store.QueryRequest{Metric: metric, Keys: keys, From: req.From, To: req.To, Trace: ssp.Context()})
			if err != nil {
				return err
			}
			speedPerMetric[i] = res.RawSynopses()
		}
		return nil
	}
	if a.cluster != nil {
		// Cluster mode: the handoff is install-view-then-truncate, so a
		// query racing a rebuild transiently double-covers (never drops)
		// history; RunBatch drains before returning to restore exactness.
		view = a.batch.Load()
		r := a.cluster.Router()
		speed := func(q store.QueryRequest) (store.QueryResult, error) { return r.QueryContext(ctx, q) }
		if err := gather(speed, r.Keys); err != nil {
			return store.QueryResult{}, err
		}
	} else {
		a.speedMu.RLock()
		view = a.batch.Load()
		speed := func(q store.QueryRequest) (store.QueryResult, error) { return a.speed.QueryContext(ctx, q) }
		err := gather(speed, a.speed.Keys)
		a.speedMu.RUnlock()
		if err != nil {
			return store.QueryResult{}, err
		}
	}
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
			if err := ctx.Err(); err != nil {
				return store.QueryResult{}, queryCancelled(err)
			}
			res, err := view.Query(store.QueryRequest{Metric: metric, Keys: keys, From: req.From, To: req.To})
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
			if merged[j], err = store.CombineSnapshots(protos[i], batchSyn, speedSyn); err != nil {
				return store.QueryResult{}, err
			}
		}
		if t := a.tel.Load(); t != nil {
			t.merges.Add(uint64(len(keys)))
		}
		mergedCells += len(keys)
		if req.Aggregate {
			comb, err := store.CombineSnapshots(protos[i], merged...)
			if err != nil {
				return store.QueryResult{}, err
			}
			answers = append(answers, store.NewAggregateAnswer(metric, comb))
			continue
		}
		for j, key := range keys {
			answers = append(answers, store.NewAnswer(metric, key, merged[j]))
		}
	}
	if msp != nil {
		msp.SetAttrs(trace.Int("cells", int64(mergedCells)))
		msp.Finish()
	}
	return store.NewQueryResult(answers), nil
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
		res, err := view.Query(store.PointRequest(metric, key, from, to))
		if err != nil {
			return nil, err
		}
		return res.Raw(), nil
	}
	proto, err := a.proto(metric)
	if err != nil {
		return nil, err
	}
	return proto(), nil
}

// Keys returns the union of keys for the metric across the batch and
// speed layers (unordered, deduplicated). As in Query, single-store mode
// snapshots the layer pair under the cutover's read lock.
func (a *Architecture) Keys(metric string) []string {
	seen := make(map[string]struct{})
	var view *store.FrozenView
	if a.cluster != nil {
		view = a.batch.Load()
		for _, k := range a.cluster.Router().Keys(metric) {
			seen[k] = struct{}{}
		}
	} else {
		a.speedMu.RLock()
		view = a.batch.Load()
		for _, k := range a.speed.Keys(metric) {
			seen[k] = struct{}{}
		}
		a.speedMu.RUnlock()
	}
	if view != nil {
		for _, k := range view.Keys(metric) {
			seen[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// BatchView returns the current sealed batch view (nil before the first
// RunBatch).
func (a *Architecture) BatchView() *store.FrozenView { return a.batch.Load() }

// BatchVersion returns how many batch views have been installed.
func (a *Architecture) BatchVersion() uint64 { return a.version.Load() }

// Staleness returns the number of appended observations not yet covered
// by the batch view — the speed layer's raison d'être. It counts against
// Appended rather than the log's end offsets so cluster-mode router
// buffers (appended from the caller's point of view, not yet flushed to
// the log) are included.
func (a *Architecture) Staleness() uint64 {
	var covered uint64
	if view := a.batch.Load(); view != nil {
		for _, e := range view.EndOffsets() {
			covered += e
		}
	}
	appended := a.appended.Load()
	if appended < covered {
		// Producers writing to the master topic directly (not through
		// ObserveBatch) inflate coverage past our own count; clamp.
		return 0
	}
	return appended - covered
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

// Topic returns the master-dataset topic (the cluster's ingest topic in
// cluster mode) — the replay surface oracles and audits rebuild from.
func (a *Architecture) Topic() *mqlog.Topic { return a.topic }

// Cluster returns the cluster speed layer, or nil in single-store mode.
func (a *Architecture) Cluster() *dstore.Cluster { return a.cluster }

// SpeedStats returns the speed layer's store counters (aggregated across
// nodes in cluster mode) — how much the realtime view currently absorbs.
func (a *Architecture) SpeedStats() store.Stats {
	if a.cluster != nil {
		return a.cluster.Stats().Store
	}
	a.speedMu.RLock()
	defer a.speedMu.RUnlock()
	return a.speed.Stats()
}

// Stats snapshots the speed layer's store counters — the
// analytics.Backend form of SpeedStats (the sealed batch view reports
// separately via BatchView().Stats()).
func (a *Architecture) Stats() store.Stats { return a.SpeedStats() }

// Flush settles producer-side buffers: in cluster mode the router's
// per-partition append batches reach the ingest log; in single-store mode
// appends are synchronous and Flush is a no-op. engine.SinkBolt calls it
// when a topology run completes.
func (a *Architecture) Flush() {
	if a.cluster != nil {
		a.cluster.Router().Flush()
	}
}

// Drain blocks until the speed layer has absorbed everything appended so
// far: a no-op in single-store mode (appends are synchronous), the
// cluster drain otherwise. Call before exact comparisons in cluster mode.
func (a *Architecture) Drain() error {
	if a.cluster != nil {
		return a.cluster.Drain()
	}
	return nil
}

// Close releases the architecture: cluster nodes stop, and the master
// topic is closed — for a durable topic that is the final flush+fsync
// of its segment files. The topic's in-memory state survives: a closed
// architecture's log can still be replayed.
func (a *Architecture) Close() error {
	if a.cluster != nil {
		return a.cluster.Close()
	}
	return a.topic.Close()
}
