// admit.go is the admission decorator over the Backend contract, in the
// Instrument idiom: wrap any serving backend and every write is priced
// against the controller's token buckets before it can touch state.
// Queries are never admitted — overload control protects the write
// path; reads are already bounded by deadlines and the read cache.
package analytics

import (
	"repro/internal/admission"
	"repro/internal/store"
)

// Admit wraps be so every ObserveBatch first clears ctrl.Admit for
// each of its metrics. A shed write returns the controller's typed
// *admission.Overload (matching admission.ErrOverloaded via errors.Is)
// and provably never reaches the backend — batches are admitted in full
// before a single observation is delegated, riding the all-or-nothing
// ObserveBatch contract underneath.
//
// A nil controller returns be unchanged, so call sites can wire
// admission unconditionally. The admitted-but-unthrottled hot path
// adds no allocations over the bare backend (pinned by the alloc gate
// in this package's benchmarks).
func Admit(be Backend, ctrl *admission.Controller) Backend {
	if ctrl == nil {
		return be
	}
	return &admitted{Backend: be, ctrl: ctrl}
}

// admitted embeds the wrapped Backend and overrides the write method;
// everything else (queries, Keys, Stats, registration) is the
// backend's own.
type admitted struct {
	Backend
	ctrl *admission.Controller
}

// ObserveBatch admits the whole batch before delegating any of it, so
// a shed batch mutates nothing. Each distinct metric is priced in one
// Admit call for its share of the batch, whatever order the batch is in
// (see eachMetric: the streams this repository generates interleave
// their metrics observation by observation). When a later metric sheds,
// tokens granted to earlier ones in the same batch stay spent:
// admission accounting is conservative under partial-batch shed, but
// backend state is untouched either way.
func (a *admitted) ObserveBatch(obs []store.Observation) error {
	if err := eachMetric(obs, a.ctrl.Admit); err != nil {
		return err
	}
	return a.Backend.ObserveBatch(obs)
}

// maxTally is how many distinct metrics eachMetric counts at a time.
const maxTally = 8

// eachMetric calls fn once per distinct metric of obs with the number
// of observations naming it, in order of first appearance, and stops at
// fn's first error. It is what both decorators price a batch by: the
// demo stream, the daemon's preload and the benchmark all emit one
// observation per metric per event, so the metric changes on every
// observation and a run-length pass would call fn once per observation.
// The tally is a fixed array scanned linearly — no allocation, and
// cheaper than a map at the handful of metrics a deployment registers.
// A batch with more than maxTally distinct metrics is reported in
// parts: when a ninth metric turns up the tally so far goes to fn and
// counting restarts, so a metric may then be reported more than once,
// which costs fn's callers a repeated lock, never a wrong total.
func eachMetric(obs []store.Observation, fn func(metric string, n int) error) error {
	var tally [maxTally]struct {
		metric string
		n      int
	}
	used := 0
	flush := func() error {
		for _, t := range tally[:used] {
			if err := fn(t.metric, t.n); err != nil {
				return err
			}
		}
		used = 0
		return nil
	}
next:
	for i := range obs {
		m := obs[i].Metric
		for j := range tally[:used] {
			if tally[j].metric == m {
				tally[j].n++
				continue next
			}
		}
		if used == maxTally {
			if err := flush(); err != nil {
				return err
			}
		}
		tally[used].metric, tally[used].n = m, 1
		used++
	}
	return flush()
}
