// router.go is the cluster's client surface: it puts ObserveBatch
// traffic on the ingest topic through a store.LogWriter (one batched
// append per partition group, on the log before the call returns) and
// answers queries by routing to the owning node or scatter-gathering
// across nodes and combining the partial synopses.
package dstore

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

func errNodeStopped(name string) error {
	return fmt.Errorf("dstore: node %s stopped", name)
}

// queryCancelled wraps a context error so errors.Is still sees
// context.Canceled / context.DeadlineExceeded through the wrap.
func queryCancelled(err error) error {
	return fmt.Errorf("dstore: query cancelled: %w", err)
}

// Router is the cluster's ingest and query front end. One Router is safe
// for concurrent use. ObserveBatch returns only once every accepted
// observation is on the ingest log, so an ack is a write Cluster.Lag
// counts and Drain waits for.
type Router struct {
	c   *Cluster
	log *store.LogWriter
}

func newRouter(c *Cluster) *Router {
	return &Router{c: c, log: store.NewLogWriter(c.topic)}
}

// ObserveBatch puts a slice of observations on the ingest topic through
// a store.LogWriter: partitioned by key, so a series always lands in one
// partition and replays in order, with one append per partition group.
// The entire batch is validated first, producer-side, by the store's
// rule (store.MetricTable.Check) rather than poisoning the consumers: an
// unknown metric, an empty key (which would round-robin by value hash in
// the log, scattering one series across partitions that different nodes
// own) or a negative time fails the call and appends NOTHING. An
// accepted batch reaches the log in input order per partition, so
// per-series replay order matches one observation per call exactly.
// When ObserveBatch returns, every observation is on the log.
func (r *Router) ObserveBatch(obs []store.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	if err := r.c.metrics.Check(obs); err != nil {
		return err
	}
	r.log.Append(obs, r.c.trc)
	return nil
}

// RegisterMetric binds a metric on the cluster (see
// Cluster.RegisterMetric) — the router is the cluster's analytics.Backend
// face, so registration is reachable through it too.
func (r *Router) RegisterMetric(name string, proto store.Prototype) error {
	return r.c.RegisterMetric(name, proto)
}

// Stats snapshots the cluster's aggregated store counters — the
// analytics.Backend form of Cluster.Stats (which additionally reports
// node/recovery/lag counters).
func (r *Router) Stats() store.Stats {
	return r.c.Stats().Store
}

// unreachableError names exactly which partitions and members a fan-out
// could not resolve — the difference between "the cluster is down" and
// "node-3 is mid-rebalance" when a multi-key query fails.
func unreachableError(op string, unowned []int, gone []string) error {
	switch {
	case len(unowned) > 0 && len(gone) > 0:
		return fmt.Errorf("dstore: %s: partitions %v unowned and owners %v gone (rebalance in flight)", op, unowned, gone)
	case len(unowned) > 0:
		return fmt.Errorf("dstore: %s: partitions %v unowned (no live nodes)", op, unowned)
	default:
		return fmt.Errorf("dstore: %s: owners %v gone (rebalance in flight)", op, gone)
	}
}

// nodeErrors composes the per-node failures of a scatter-gather into one
// error naming every unreachable node, instead of surfacing whichever
// partial failed first.
func nodeErrors(op string, names []string, errs []error) error {
	var parts []string
	for i, err := range errs {
		if err != nil {
			parts = append(parts, fmt.Sprintf("%s: %v", names[i], err))
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return fmt.Errorf("dstore: %s: %d of %d nodes failed: %s", op, len(parts), len(names), strings.Join(parts, "; "))
}

// Query answers one serving-API request by scatter-gather: every
// requested (metric, key) cell is grouped by owning node under ONE
// assignment snapshot, the owning nodes are fanned out in parallel —
// each node range-merges its keys per metric in batched store queries —
// and the per-key partials come back in sorted key order, metric by
// metric. The whole round is generation-fenced once: if a rebalance
// moves the group generation across the gather, the routing is redone
// against the new assignment, so an answer never comes from a store
// whose assignment predates the ownership lookup, and a multi-metric
// answer never mixes assignments across metrics. Sustained membership
// churn surfaces as errors naming the unreachable partitions and nodes,
// never as a wrong answer. Aggregate answers merge the per-key partials
// in sorted key order through store.CombineSnapshots, byte-identical to
// issuing per-key queries and combining them caller-side.
//
// ctx threads through the scatter-gather into every owning node's store
// gather (and the wait for a node still mid-recovery), so a cancelled
// or expired context aborts the round with an error wrapping ctx.Err()
// instead of fanning out work nobody is waiting for. Cancellation never
// poisons node state — the query path is read-only and each node's
// event loop is untouched — and a cancelled round is never retried,
// even when a rebalance raced it.
func (r *Router) Query(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	req, err := req.Normalize()
	if err != nil {
		return store.QueryResult{}, err
	}
	prototypes := make([]store.Prototype, len(req.Metrics))
	for i, metric := range req.Metrics {
		if prototypes[i], err = r.c.metrics.Lookup(metric); err != nil {
			return store.QueryResult{}, err
		}
	}
	// nodeReq is one node's slice of the fan-out: for each metric index,
	// the node's keys (ascending request positions — grouping preserves
	// the sorted key order) and where their answers scatter back to.
	type nodeReq struct {
		n    *Node
		keys [][]string
		pos  [][]int
	}
	for {
		// A fenced retry re-enters here; a cancelled request stops instead
		// of re-routing against the new assignment.
		if err := ctx.Err(); err != nil {
			return store.QueryResult{}, queryCancelled(err)
		}
		// One assignment snapshot resolves every cell of every metric:
		// per-key Owner calls would rescan the member list under the group
		// lock once per key, and per-metric snapshots could fence different
		// metrics against different assignments.
		owners, gen := r.c.group.Owners()
		keysPer := make([][]string, len(req.Metrics))
		for i, metric := range req.Metrics {
			if req.AllKeys {
				keysPer[i] = r.Keys(metric) // sorted and deduplicated
			} else {
				keysPer[i] = req.Keys
			}
		}
		byName := make(map[string]*nodeReq)
		var order []*nodeReq
		var unowned []int
		var gone []string
		for mi := range req.Metrics {
			for ki, key := range keysPer[mi] {
				pid := r.c.topic.PartitionFor(key)
				member := owners[pid]
				if member == "" {
					if !slices.Contains(unowned, pid) {
						unowned = append(unowned, pid)
					}
					continue
				}
				nq, seen := byName[member]
				if !seen {
					n := r.c.node(member)
					if n == nil {
						if !slices.Contains(gone, member) {
							gone = append(gone, member)
						}
						continue
					}
					nq = &nodeReq{n: n, keys: make([][]string, len(req.Metrics)), pos: make([][]int, len(req.Metrics))}
					byName[member] = nq
					order = append(order, nq)
				}
				nq.keys[mi] = append(nq.keys[mi], key)
				nq.pos[mi] = append(nq.pos[mi], ki)
			}
		}
		if len(unowned) > 0 || len(gone) > 0 {
			sort.Ints(unowned)
			sort.Strings(gone)
			r.c.unreachable.Add(1)
			return store.QueryResult{}, unreachableError("query", unowned, gone)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].n.name < order[j].n.name })

		// One parallel round: each owning node answers all of its metrics'
		// key slices (one batched store query per metric) in one goroutine.
		names := make([]string, len(order))
		partials := make([][][]store.Synopsis, len(order)) // [node][metric][key]
		errs := make([]error, len(order))
		var fanStart time.Time
		if r.c.scatterHist != nil {
			fanStart = time.Now()
		}
		// A traced request records one span per fan-out round (a fenced
		// retry records another) with one child per node; the node hangs
		// its store's per-shard gather spans off its child via the
		// sub-request's Trace context.
		var ssp *trace.Span
		if r.c.trc != nil && req.Trace.Valid() {
			ssp = r.c.trc.StartRemote(req.Trace, "dstore.scatter")
			ssp.SetAttrs(trace.Int("nodes", int64(len(order))), trace.Int("generation", int64(gen)))
		}
		var wg sync.WaitGroup
		for i, nq := range order {
			names[i] = nq.n.name
			partials[i] = make([][]store.Synopsis, len(req.Metrics))
			wg.Add(1)
			go func(i int, nq *nodeReq) {
				defer wg.Done()
				nsp := ssp.Child("dstore.node")
				nsp.SetAttrs(trace.Str("node", nq.n.name))
				defer nsp.Finish()
				for mi, keys := range nq.keys {
					if len(keys) == 0 {
						continue
					}
					syns, err := nq.n.queryKeys(ctx, gen, req.Metrics[mi], keys, req.From, req.To, nsp.Context())
					if err != nil {
						errs[i] = err
						return
					}
					partials[i][mi] = syns
				}
			}(i, nq)
		}
		wg.Wait()
		r.c.scatterHist.ObserveSince(fanStart)
		if err := ctx.Err(); err != nil {
			// The context died mid-round; the partials are incomplete and
			// the per-node errors would just echo the cancellation.
			ssp.SetAttrs(trace.Bool("cancelled", true))
			ssp.Finish()
			return store.QueryResult{}, queryCancelled(err)
		}
		if r.c.group.Generation() != gen {
			// A rebalance raced the fan-out; the grouping (and possibly
			// some partials) reflect a stale assignment. Redo the routing.
			ssp.SetAttrs(trace.Bool("refenced", true))
			ssp.Finish()
			continue
		}
		ssp.Finish()
		if err := nodeErrors("query", names, errs); err != nil {
			r.c.unreachable.Add(1)
			return store.QueryResult{}, err
		}

		// Scatter the partials back into per-metric, key-ordered slices and
		// build the answer cells.
		var answers []store.Answer
		for mi, metric := range req.Metrics {
			syns := make([]store.Synopsis, len(keysPer[mi]))
			for i, nq := range order {
				for j, pos := range nq.pos[mi] {
					syns[pos] = partials[i][mi][j]
				}
			}
			if answers, err = store.AppendAnswers(answers, metric, prototypes[mi], keysPer[mi], syns, req.Aggregate); err != nil {
				return store.QueryResult{}, err
			}
		}
		return store.NewQueryResult(answers), nil
	}
}

// Keys returns every key of the metric resident in the cluster: the
// union of the live nodes' key sets, sorted and deduplicated (a key can
// transiently appear on two nodes around a rebalance).
func (r *Router) Keys(metric string) []string {
	var out []string
	for _, n := range r.c.liveNodes() {
		out = append(out, n.keys(metric)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
