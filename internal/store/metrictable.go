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
	m  atomic.Pointer[map[string]Prototype]
}

// Register binds a metric name to the Prototype that builds its bucket
// synopses and query accumulators, refusing one Validate refuses.
// Re-registering a name is an error whose text says "already registered"
// (the serving edge answers it with 409).
func (t *MetricTable) Register(name string, proto Prototype) error {
	if name == "" {
		return core.Errf("Store", "metric", "name must be non-empty")
	}
	if err := proto.Validate(); err != nil {
		return fmt.Errorf("store: metric %q: %w", name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.Table()
	if _, exists := cur[name]; exists {
		return fmt.Errorf("store: metric %q already registered", name)
	}
	next := make(map[string]Prototype, len(cur)+1)
	maps.Copy(next, cur)
	next[name] = proto
	t.m.Store(&next)
	return nil
}

// Lookup returns the metric's Prototype, or an error wrapping
// ErrUnknownMetric.
func (t *MetricTable) Lookup(metric string) (Prototype, error) {
	p, ok := t.Table()[metric]
	if !ok {
		return Prototype{}, fmt.Errorf("store: %w %q", ErrUnknownMetric, metric)
	}
	return p, nil
}

// Table returns a snapshot of the registered metrics. It is shared and
// never mutated: a later Register swaps in a new map.
func (t *MetricTable) Table() map[string]Prototype {
	if p := t.m.Load(); p != nil {
		return *p
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
		if _, ok := protos[o.Metric]; !ok {
			return fmt.Errorf("store: %w %q", ErrUnknownMetric, o.Metric)
		}
	}
	return nil
}
