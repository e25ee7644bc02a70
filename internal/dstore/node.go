// node.go is the cluster's scale-out unit: a single-threaded event loop
// (the Samza container model) owning one local store and the partitions
// the consumer group assigns it, with log-based recovery on every
// ownership change. See the package comment for the recovery state
// machine and the invariant it maintains.
package dstore

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/trace"
)

// idleBackoff is how long a node sleeps after an empty poll. It bounds
// the busy-poll cost of caught-up nodes without adding meaningful
// end-to-end latency (a batch is never more than one backoff away).
const idleBackoff = 50 * time.Microsecond

// Node is one cluster member: an event-loop goroutine, its local store,
// and its recovery state.
type Node struct {
	c    *Cluster
	name string

	mu      sync.RWMutex
	st      *store.Store  // serving store; nil while recovering
	gen     int           // group generation st was recovered for
	serveCh chan struct{} // closed when st is non-nil

	stopCh chan struct{}
	done   chan struct{}

	// ckptReq hands snapshot requests to the event loop: the loop is the
	// store's only writer, so a checkpoint taken there captures exactly
	// the state the committed offsets describe.
	ckptReq chan chan error

	// obs is the event loop's decode scratch, reused across polled
	// batches (ObserveBatch does not keep it).
	obs []store.Observation
}

func newNode(c *Cluster, name string) *Node {
	return &Node{
		c:       c,
		name:    name,
		gen:     -1, // force recovery before first serve
		serveCh: make(chan struct{}),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
		ckptReq: make(chan chan error),
	}
}

// Name returns the node's consumer-group member name.
func (n *Node) Name() string { return n.name }

func (n *Node) stop() {
	close(n.stopCh)
	<-n.done
}

func (n *Node) stopped() bool {
	select {
	case <-n.stopCh:
		return true
	default:
		return false
	}
}

// serving reports whether the node has a recovered store and for which
// group generation.
func (n *Node) serving() (gen int, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gen, n.st != nil
}

// currentStore returns the serving store, or nil while recovering.
func (n *Node) currentStore() *store.Store {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st
}

// run is the event loop: recover on generation change, otherwise poll the
// assigned partitions, apply, and commit with generation fencing.
func (n *Node) run() {
	defer close(n.done)
	for !n.stopped() {
		gen := n.c.group.Generation()
		n.mu.RLock()
		current := n.gen
		recovered := n.st != nil
		n.mu.RUnlock()
		if !recovered || current != gen {
			n.recover(gen)
			continue
		}

		// Service a checkpoint request only here — serving, at the current
		// generation, with every applied batch committed (a fence rejection
		// implies a generation change, which the check above routes to
		// recovery first). The snapshot therefore equals the committed
		// offsets exactly.
		select {
		case reply := <-n.ckptReq:
			reply <- n.writeCheckpoint(gen)
			continue
		default:
		}

		batches := n.c.group.Poll(n.name, pollBatch)
		if len(batches) == 0 {
			// Caught up (or unassigned): yield rather than spin on the
			// broker locks. A plain Sleep (not time.After in a select)
			// keeps the idle loop allocation-free; the loop condition
			// re-checks stopCh, bounding stop latency to one backoff.
			time.Sleep(idleBackoff)
			continue
		}
		st := n.currentStore()
		for _, b := range batches {
			n.apply(st, b)
			if !n.c.group.CommitFenced(n.name, gen, b.Partition, b.Next) {
				// A rebalance won mid-batch. The batch already landed in
				// our store, which may now hold rows for partitions we no
				// longer own — the next loop iteration rebuilds it from
				// the log, which also re-reads the uncommitted batch, so
				// nothing is double-counted or lost.
				n.c.fenceRejected.Add(1)
				break
			}
		}
	}
}

// apply lands one polled partition batch in st: the records decode into
// the node's reused observation slice, poison (see store.DecodeRecord)
// is counted and dropped — a record that can never apply must not wedge
// the partition, the log-consumer convention — and the rest go in one
// ObserveBatch. A batch holding a record with a trace header (a sampled
// ingest) opens one mqlog.fetch → dstore.apply pair on the first such
// record's trace, as the router opens one mqlog.append per flush, and
// that trace's records carry the apply span into the store, stitching
// onto the trace the router started on the far side of the log.
func (n *Node) apply(st *store.Store, b mqlog.PartitionBatch) {
	trc := n.c.trc
	n.obs = n.obs[:0]
	var fsp, asp *trace.Span
	var traced trace.TraceID
	for _, m := range b.Messages {
		obs, ok := st.DecodeRecord(m.Value)
		if !ok {
			continue
		}
		if trc != nil {
			if ctx := headerContext(m.Headers); ctx.Valid() {
				if fsp == nil {
					fsp = trc.StartRemote(ctx, "mqlog.fetch")
					fsp.SetAttrs(trace.Str("node", n.name),
						trace.Int("partition", int64(b.Partition)),
						trace.Int("offset", int64(m.Offset)))
					asp = fsp.Child("dstore.apply")
					traced = ctx.Trace
				}
				if ctx.Trace == traced {
					obs.Trace = asp.Context()
				}
			}
		}
		n.obs = append(n.obs, obs)
	}
	n.c.rejected.Add(uint64(len(b.Messages) - len(n.obs)))
	// DecodeRecord passes only what ObserveBatch accepts, so this cannot
	// fail; were it to, the batch is counted rejected like any poison.
	if err := st.ObserveBatch(n.obs); err != nil {
		n.c.rejected.Add(uint64(len(n.obs)))
	} else {
		n.c.applied.Add(uint64(len(n.obs)))
	}
	if fsp != nil {
		asp.SetAttrs(trace.Int("records", int64(len(n.obs))))
		asp.Finish()
		fsp.Finish()
	}
}

// recover rebuilds the node's store for the given generation: a store
// seeded from the node's checkpoint when store.NewFromCheckpoint accepts
// it for this assignment and an end-offset snapshot (else fresh), every
// now-owned partition replayed up to that snapshot, the replay ends
// committed (fenced), and only then the store swapped in for serving. If
// the generation moves again mid-recovery the attempt is abandoned; the
// event loop retries against the new assignment.
func (n *Node) recover(gen int) {
	start := time.Now()
	// Leave serving mode: queries block on serveCh until the swap.
	n.mu.Lock()
	if n.st != nil {
		n.st = nil
		n.serveCh = make(chan struct{})
	}
	n.mu.Unlock()

	assignment := n.c.group.Assignment(n.name)
	ends := n.c.topic.EndOffsets()
	var dir string
	if n.c.cfg.CheckpointDir != "" {
		dir = n.checkpointDir()
	}
	st, starts, err := store.NewFromCheckpoint(n.c.cfg.Store, n.c.metrics.Table(), dir, assignment, ends)
	if err != nil {
		// Config errors are permanent; park until stopped rather than
		// hot-loop (New validated the same store config up front, so
		// this is effectively unreachable).
		n.c.rejected.Add(1)
		select {
		case <-n.stopCh:
		case <-time.After(time.Millisecond):
		}
		return
	}
	// Without a checkpoint each partition replays from offset 0: fetch
	// resumes at the oldest retained message, so this is "replay the
	// whole retained, owned prefix" regardless of where retention has
	// truncated — the history below the horizon is unrecoverable by
	// construction. A restored snapshot already holds [0, offset), so
	// only the suffix replays.
	if starts != nil {
		n.c.ckptRestores.Add(1)
	} else {
		starts = make([]uint64, len(ends))
	}
	// Wire the store before it serves: re-registration re-binds the
	// node's metric series to the rebuilt store's counters, and the
	// store traces into the registry's tracer.
	st.SetTelemetry(n.c.reg, "layer", "dstore", "node", n.name)
	for _, pid := range assignment {
		if n.stopped() || n.c.group.Generation() != gen {
			return
		}
		// The replay skips and counts poison itself, so a bad record
		// cannot wedge recovery; an error here is structural, and the
		// event loop's next pass retries the whole recovery.
		rs, err := store.ReplayPartitionTo(st, n.c.topic, pid, starts[pid], ends[pid])
		n.c.replayed.Add(rs.Applied)
		n.c.rejected.Add(rs.Rejected)
		if err != nil {
			return
		}
		if !n.c.group.CommitFenced(n.name, gen, pid, rs.Next) {
			n.c.fenceRejected.Add(1)
			return
		}
	}
	if n.c.group.Generation() != gen {
		return
	}
	n.mu.Lock()
	n.st = st
	n.gen = gen
	close(n.serveCh)
	n.mu.Unlock()
	n.c.recoveries.Add(1)
	n.c.recoveryHist.ObserveSince(start)
}

// waitServing blocks until the node has a recovered store (or was
// stopped) and returns it.
func (n *Node) waitServing() (*store.Store, bool) {
	return n.waitServingAt(context.Background(), -1)
}

// waitServingAt blocks until the node serves at group generation >= gen
// (or was stopped) and returns the serving store. A node serving an
// older generation simply hasn't noticed the rebalance yet — there is no
// recovery channel to wait on in that state, so the wait yields on the
// idle backoff until the event loop catches up. A node's generation
// never exceeds the group's, so callers that snapshot the group
// generation, wait here, and see the group unchanged afterwards have a
// store built for exactly that assignment. A cancelled ctx abandons the
// wait (false) without touching node state — the event loop and any
// in-flight recovery continue unaffected, so an impatient caller cannot
// poison the node for the next one.
func (n *Node) waitServingAt(ctx context.Context, gen int) (*store.Store, bool) {
	for {
		n.mu.RLock()
		st, g, ch := n.st, n.gen, n.serveCh
		n.mu.RUnlock()
		if st != nil && g >= gen {
			return st, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
		if st != nil {
			if n.stopped() {
				return nil, false
			}
			time.Sleep(idleBackoff)
			continue
		}
		select {
		case <-ch:
		case <-n.stopCh:
			return nil, false
		case <-ctx.Done():
			return nil, false
		}
	}
}

// queryKeys answers for a set of keys (sorted, deduplicated by the
// router) out of the store recovered for generation >= gen: one batched
// store query per node — the store groups the keys by shard and gathers
// each shard under a single lock acquisition — returning one synopsis per
// key, in key order. tctx, when valid, is the router's per-node scatter
// span; the store hangs its per-shard gather spans off it. ctx bounds
// both the wait for a recovered store and the store gather itself; a
// cancelled sub-query surfaces the context error, which the router
// reports without retrying.
func (n *Node) queryKeys(ctx context.Context, gen int, metric string, keys []string, from, to int64, tctx trace.Context) ([]store.Synopsis, error) {
	st, ok := n.waitServingAt(ctx, gen)
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errNodeStopped(n.name)
	}
	res, err := st.Query(ctx, store.QueryRequest{Metric: metric, Keys: keys, From: from, To: to, Trace: tctx})
	if err != nil {
		return nil, err
	}
	return res.RawSynopses(), nil
}

// checkpointDir is the node's private snapshot directory.
func (n *Node) checkpointDir() string {
	return filepath.Join(n.c.cfg.CheckpointDir, n.name)
}

// requestCheckpoint hands a snapshot request to the event loop and waits
// for the result. The request is serviced only between fully committed
// batches (see run), so the snapshot never captures applied-but-
// uncommitted state.
func (n *Node) requestCheckpoint() error {
	reply := make(chan error, 1)
	select {
	case n.ckptReq <- reply:
	case <-n.stopCh:
		return errNodeStopped(n.name)
	}
	select {
	case err := <-reply:
		return err
	case <-n.stopCh:
		return errNodeStopped(n.name)
	}
}

// writeCheckpoint snapshots the serving store, stamped with the committed
// offsets of the owned partitions and the assignment itself — everything a
// later recovery needs to decide whether the snapshot still matches its
// world. Runs on the event loop; gen is the generation the loop is serving
// at, and a rebalance racing the write invalidates it (the manifest would
// describe an assignment the data does not match), so the pair is removed
// and the call fails.
func (n *Node) writeCheckpoint(gen int) error {
	st := n.currentStore()
	if st == nil {
		return fmt.Errorf("dstore: node %s has no serving store", n.name)
	}
	parts := n.c.group.Assignment(n.name)
	offsets := make([]uint64, n.c.topic.Partitions())
	for _, pid := range parts {
		offsets[pid] = n.c.broker.Committed(ingestGroup, ingestTopic, pid)
	}
	dir := n.checkpointDir()
	if _, err := store.WriteCheckpoint(st, dir, store.CheckpointMeta{
		Offsets:    offsets,
		Partitions: parts,
	}); err != nil {
		return err
	}
	if n.c.group.Generation() != gen {
		store.RemoveCheckpoint(dir)
		return fmt.Errorf("dstore: node %s rebalanced during checkpoint", n.name)
	}
	return nil
}

// keys returns the metric's keys resident on this node.
func (n *Node) keys(metric string) []string {
	st, ok := n.waitServing()
	if !ok {
		return nil
	}
	return st.Keys(metric)
}
