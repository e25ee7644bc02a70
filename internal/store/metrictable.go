package store

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// MetricTable is the registered metric table every backend holds: the
// store, the cluster (whose nodes' stores are built from it) and Lambda
// (whose batch views and speed stores are). It is swapped copy-on-write
// under a mutex and read lock-free, since every write batch, query and
// replayed log record looks its metric up here. The zero value is an
// empty table, ready to use. Registration timing is the holder's rule:
// the table itself accepts a new name at any time.
type MetricTable struct {
	mu sync.Mutex
	m  atomic.Pointer[metricMaps]
}

// metricMaps is one snapshot of the table: each metric's Prototype, and
// the Prototype its buckets open with (see bucketProtoOf).
type metricMaps struct {
	protos, buckets map[string]Prototype
}

// Register binds a metric name to the Prototype that builds its bucket
// synopses and query accumulators. Re-registering a name is an error
// whose text says "already registered" (the serving edge answers it with
// 409).
func (t *MetricTable) Register(name string, proto Prototype) error {
	if name == "" {
		return core.Errf("Store", "metric", "name must be non-empty")
	}
	if proto == nil {
		return core.Errf("Store", "proto", "prototype for %q is nil", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur metricMaps
	if p := t.m.Load(); p != nil {
		cur = *p
	}
	if _, exists := cur.protos[name]; exists {
		return fmt.Errorf("store: metric %q already registered", name)
	}
	next := metricMaps{
		protos:  make(map[string]Prototype, len(cur.protos)+1),
		buckets: make(map[string]Prototype, len(cur.buckets)+1),
	}
	maps.Copy(next.protos, cur.protos)
	maps.Copy(next.buckets, cur.buckets)
	next.protos[name] = proto
	next.buckets[name] = bucketProtoOf(proto)
	t.m.Store(&next)
	return nil
}

// Lookup returns the metric's Prototype, or an error wrapping
// ErrUnknownMetric.
func (t *MetricTable) Lookup(metric string) (Prototype, error) {
	p, ok := t.Table()[metric]
	if !ok {
		return nil, fmt.Errorf("store: %w %q", ErrUnknownMetric, metric)
	}
	return p, nil
}

// Table returns a snapshot of the registered metrics. It is shared and
// never mutated: a later Register swaps in a new map.
func (t *MetricTable) Table() map[string]Prototype {
	if p := t.m.Load(); p != nil {
		return p.protos
	}
	return nil
}

// buckets returns a snapshot of the Prototypes the registered metrics'
// buckets open with, shared and never mutated like Table's.
func (t *MetricTable) buckets() map[string]Prototype {
	if p := t.m.Load(); p != nil {
		return p.buckets
	}
	return nil
}

// Check is the one accepted-input rule of every backend's write path:
// each observation has a non-negative time, a non-empty key (keys
// route the cluster's and Lambda's log partitions) and a registered
// metric (else an error wrapping ErrUnknownMetric). It returns the
// first violation.
func (t *MetricTable) Check(obs []Observation) error {
	protos := t.Table()
	for i := range obs {
		o := &obs[i]
		if o.Time < 0 {
			return core.Errf("Store", "Time", "%d must be >= 0", o.Time)
		}
		if o.Key == "" {
			return core.Errf("Store", "Key", "must be non-empty")
		}
		if protos[o.Metric] == nil {
			return fmt.Errorf("store: %w %q", ErrUnknownMetric, o.Metric)
		}
	}
	return nil
}
