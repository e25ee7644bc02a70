// Package dstore is the partitioned store cluster: multi-node serving
// over the mqlog partitioned log, with scatter-gather queries and
// log-based recovery. It is the step the tutorial's Section 3 platforms
// all take to scale the speed layer past one process — Storm/Heron
// partition bolt state across workers, Samza pins a local store to each
// Kafka partition, MillWheel hangs per-key state off a sharded log — and
// the step ROADMAP's "Distribution" item names: partition internal/store
// across nodes using mqlog as the transport, with the store's replay
// machinery as the recovery story.
//
// Shape. One Cluster owns an ingest Topic (N partitions), a ConsumerGroup
// over it, and a set of Nodes. Each Node is a deliberately single-threaded
// event loop — Samza's container model, the scale-out unit is the node,
// not a thread pool — that polls the partitions the group assigns it,
// decodes observations with the store wire codec, and applies them to its
// own store.Store. Producers never talk to nodes: the Router partitions
// ObserveBatch traffic by key onto the topic (batched appends via
// Topic.ProduceBatchTo), so the log decouples producers from consumers
// exactly as in Figure 1's Lambda input dispatch.
//
// Ownership and recovery. Keys hash to partitions (Topic.PartitionFor)
// and partitions to nodes (the consumer group's range assignment), so
// every series has exactly one serving node between rebalances. Any
// membership change bumps the group generation; each node notices and
// runs the recovery state machine:
//
//	serving ──(generation changed)──► recovering: snapshot the end
//	   ▲                              offsets, build a store (seeded from
//	   │                              a checkpoint store.NewFromCheckpoint
//	   │                              accepts, else fresh), replay every
//	   │                              now-owned partition up to the
//	   │                              snapshot (store.ReplayPartitionTo),
//	   │                              commit the replay ends (fenced)
//	   └──────(replay complete)────── and swap the store in.
//
// Rebuilding from scratch — rather than patching the previous store —
// keeps one invariant that makes scatter-gather trivially correct: a
// serving node's store contains exactly the observations of its currently
// owned partitions, nothing else. A node that lost partitions holds no
// stale copy of them (no double counting when fanning out), and a node
// that gained partitions has their full retained history (no gaps).
// Commits use generation fencing (ConsumerGroup.CommitFenced), so a
// preempted former owner can never clobber the new owner's position.
//
// Queries. Router.Query groups a request's (metric, key) cells by the
// node that owns each key's partition and fans them out in one
// generation-fenced round; an aggregate request combines the per-key
// partials through store.CombineSnapshots in sorted key order — the
// mergeable-synopsis property is what makes the cluster answer equal a
// single store fed the same log (experiment T3.1 checks this equality
// through a kill-and-rejoin cycle).
package dstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mqlog"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config tunes a Cluster.
type Config struct {
	// Partitions is the ingest topic's partition count (default 8). It
	// bounds the useful node count: partitions are the unit of ownership.
	Partitions int
	// Store configures each node's local store. Per-node budgets
	// (MaxShardBytes) model per-node memory: adding nodes multiplies the
	// cluster's aggregate synopsis budget, which is the scaling story
	// T3.1 measures.
	Store store.Config
	// Durable, when non-nil, backs the ingest topic with segmented on-disk
	// persistence (see mqlog.DurableConfig): the log survives a process
	// restart, and a cluster rebuilt over the same directory recovers its
	// nodes from the persisted prefix. Nil keeps the in-memory topic.
	Durable *mqlog.DurableConfig
	// CheckpointDir, when non-empty, enables store snapshots: Checkpoint
	// writes each serving node's store into CheckpointDir/<node name>, and
	// node recovery seeds its rebuilt store from a still-valid snapshot,
	// replaying only the log suffix past it instead of the full retained
	// prefix.
	CheckpointDir string
}

const (
	// ingestTopic and ingestGroup name the ingest topic and the nodes'
	// consumer group.
	ingestTopic = "dstore-ingest"
	ingestGroup = "dstore"
	// pollBatch is the most messages a node takes per poll.
	pollBatch = 512
)

// Stats aggregates the cluster's counters. The counters are totals over
// the cluster's life, stopped nodes included, so they never fall; Nodes,
// Lag and Store describe the live nodes now.
type Stats struct {
	Nodes              int    // live nodes
	Recoveries         uint64 // completed node recoveries (includes first starts)
	Applied            uint64 // observations applied by node event loops
	Replayed           uint64 // observations applied by node recovery replays
	Rejected           uint64 // poison log records skipped (see store.DecodeRecord)
	Lag                uint64 // unconsumed messages across the group
	CheckpointRestores uint64 // recoveries seeded from a checkpoint (suffix replay)
	Store              store.Stats
}

// Cluster is a set of store nodes behind one partitioned ingest log.
type Cluster struct {
	cfg    Config
	broker *mqlog.Broker
	topic  *mqlog.Topic
	group  *mqlog.ConsumerGroup
	router *Router

	// metrics is the registered metric table, read lock-free:
	// Router.ObserveBatch checks every observation against it, and node
	// recovery builds each store from it.
	metrics store.MetricTable

	// Telemetry and tracer wiring (telemetry.go): set by SetTelemetry
	// before first use, nil when unwired.
	reg          *telemetry.Registry
	trc          *trace.Tracer
	recoveryHist *telemetry.Histogram
	scatterHist  *telemetry.Histogram

	// Always-on atomics every node adds to, so they count over the
	// cluster's life: generation-fence commit rejections, failed query
	// fan-outs, and the node counters Stats reports.
	fenceRejected atomic.Uint64
	unreachable   atomic.Uint64
	recoveries    atomic.Uint64
	applied       atomic.Uint64
	replayed      atomic.Uint64
	rejected      atomic.Uint64
	ckptRestores  atomic.Uint64

	mu     sync.Mutex
	nodes  map[string]*Node
	nextID int
	closed bool
}

// New returns a cluster with no nodes. Register metrics, then StartNode.
func New(cfg Config) (*Cluster, error) {
	// Validate the per-node store config now: node recovery builds stores
	// from it forever after, and a config that cannot construct would
	// otherwise leave every node retrying recovery and Drain hanging.
	if _, err := store.New(cfg.Store); err != nil {
		return nil, err
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	broker := mqlog.NewBroker()
	// CreateTopicDurable with a nil DurableConfig is exactly CreateTopic,
	// so the in-memory path is untouched; with one, the ingest log is
	// recovered from disk before the first node starts.
	topic, err := broker.CreateTopicDurable(ingestTopic, cfg.Partitions, 0, cfg.Durable)
	if err != nil {
		return nil, err
	}
	group, err := mqlog.NewConsumerGroup(broker, topic, ingestGroup)
	if err != nil {
		topic.Close()
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		broker: broker,
		topic:  topic,
		group:  group,
		nodes:  make(map[string]*Node),
	}
	c.router = newRouter(c)
	return c, nil
}

// RegisterMetric binds a metric name to the prototype every node's store
// will build buckets with. Metrics must be registered before the first
// node starts: node stores are rebuilt from the registered set on every
// recovery, and a metric appearing mid-flight would leave already-serving
// nodes unable to absorb its observations.
func (c *Cluster) RegisterMetric(name string, proto store.Prototype) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) > 0 {
		return fmt.Errorf("dstore: register metric %q before starting nodes", name)
	}
	return c.metrics.Register(name, proto)
}

// StartNode adds a node to the cluster and returns its name. The join
// rebalances the consumer group; the new node (and every node whose
// assignment changed) recovers its partitions from the log before
// serving.
func (c *Cluster) StartNode() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", fmt.Errorf("dstore: cluster closed")
	}
	name := fmt.Sprintf("node-%d", c.nextID)
	c.nextID++
	n := newNode(c, name)
	c.nodes[name] = n
	// Join under the cluster lock: registering the node first lets a
	// router fanning out by ownership always resolve the member, and
	// joining before the lock drops means a concurrent Close cannot slip
	// between them and leave a ghost member the group owns partitions
	// for but no goroutine serves.
	c.group.Join(name)
	c.mu.Unlock()
	go n.run()
	return name, nil
}

// StopNode kills a node: it leaves the group (survivors rebalance and
// recover its partitions from the log) and its local store is discarded —
// the crash model, not a graceful handoff, because log-based recovery
// must not depend on the dead node's state. Its store's series leave the
// wired registry, which would otherwise keep exporting (and keep alive)
// the dead store; what the node counted stays in the cluster totals.
func (c *Cluster) StopNode(name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if ok {
		delete(c.nodes, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("dstore: unknown node %q", name)
	}
	c.group.Leave(name)
	n.stop()
	// After the event loop exits, so no rebuild can register them again.
	c.reg.RemoveSeries("node", name)
	return nil
}

// node resolves a member name to its live node.
func (c *Cluster) node(name string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Node returns the live node with the given name, or nil.
func (c *Cluster) Node(name string) *Node { return c.node(name) }

// Assignment returns the partitions currently owned by the named node.
func (c *Cluster) Assignment(name string) []int { return c.group.Assignment(name) }

// liveNodes returns the live nodes in deterministic (name) order — the
// fan-out order scatter-gather combines partials in.
func (c *Cluster) liveNodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, name := range names {
		out[i] = c.nodes[name]
	}
	return out
}

// NodeNames returns the live node names, sorted.
func (c *Cluster) NodeNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Router returns the cluster's ingest/query router.
func (c *Cluster) Router() *Router { return c.router }

// Topic returns the ingest topic — the durable input log, shared with the
// batch layer (store.Rebuild over this topic, the same bounded replay
// node recovery runs, is the cluster's oracle).
func (c *Cluster) Topic() *mqlog.Topic { return c.topic }

// Lag returns unconsumed messages across the group. Every acknowledged
// ObserveBatch is already on the log, so Lag counts every acknowledged
// observation no node has applied yet.
func (c *Cluster) Lag() uint64 { return c.broker.Lag(ingestGroup, c.topic) }

// Drain blocks until every live node is serving its current assignment
// and the group lag is zero — the quiesced state experiments query in,
// where every acknowledged observation is visible to queries. It
// requires at least one live node (an empty cluster can never drain a
// non-empty log).
func (c *Cluster) Drain() error {
	for {
		c.mu.Lock()
		closed, n := c.closed, len(c.nodes)
		c.mu.Unlock()
		if closed {
			return fmt.Errorf("dstore: cluster closed while draining")
		}
		if n == 0 {
			return fmt.Errorf("dstore: no live nodes to drain %d lagging messages", c.Lag())
		}
		gen := c.group.Generation()
		settled := true
		for _, node := range c.liveNodes() {
			if g, serving := node.serving(); !serving || g != gen {
				settled = false
				break
			}
		}
		if settled && c.group.Generation() == gen && c.Lag() == 0 {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Checkpoint snapshots every live node's store into
// CheckpointDir/<node name> (manifest + data pair, see
// store.WriteCheckpoint), stamped with the node's committed offsets and
// its partition assignment. Each snapshot is taken on the owning node's
// event loop — the store's only writer — so it captures exactly the
// committed state, and a later recovery with the same assignment
// restores it and replays only the log suffix past the recorded offsets.
// Returns the first node error; nodes after a failing one are still
// attempted.
func (c *Cluster) Checkpoint() error {
	if c.cfg.CheckpointDir == "" {
		return fmt.Errorf("dstore: Checkpoint requires Config.CheckpointDir")
	}
	var first error
	for _, n := range c.liveNodes() {
		if err := n.requestCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats reports the cluster's counters and the live nodes' store stats.
func (c *Cluster) Stats() Stats {
	nodes := c.liveNodes()
	out := Stats{
		Nodes:              len(nodes),
		Recoveries:         c.recoveries.Load(),
		Applied:            c.applied.Load(),
		Replayed:           c.replayed.Load(),
		Rejected:           c.rejected.Load(),
		Lag:                c.Lag(),
		CheckpointRestores: c.ckptRestores.Load(),
	}
	for _, n := range nodes {
		if st := n.currentStore(); st != nil {
			out.Store.Add(st.Stats())
		}
	}
	return out
}

// Close stops every node, then closes the ingest topic — for a durable
// topic that is the final flush+fsync of its segment files. The broker
// and topic's in-memory state survive (a closed cluster's log can still
// be replayed into a batch store). Returns the topic's close error, if
// any.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[string]*Node)
	c.mu.Unlock()
	for _, n := range nodes {
		c.group.Leave(n.name)
		n.stop()
	}
	return c.topic.Close()
}
