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

// Admit wraps be so every Observe and ObserveBatch first clears
// ctrl.Admit for its metric. A shed write returns the controller's
// typed *admission.Overload (matching admission.ErrOverloaded via
// errors.Is) and provably never reaches the backend — batches are
// admitted in full before a single observation is delegated, riding
// the all-or-nothing ObserveBatch contract underneath.
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

// admitted embeds the wrapped Backend and overrides the two write
// methods; everything else (queries, Keys, Stats, Flush, registration)
// is the backend's own.
type admitted struct {
	Backend
	ctrl *admission.Controller
}

func (a *admitted) Observe(obs store.Observation) error {
	if err := a.ctrl.Admit(obs.Metric, 1); err != nil {
		return err
	}
	return a.Backend.Observe(obs)
}

// ObserveBatch admits the whole batch before delegating any of it, so
// a shed batch mutates nothing. Runs of the same metric are priced in
// one Admit call (the common shape — the serving edge and the preload
// both batch per metric or in metric-major order). When a later run
// sheds, tokens granted to earlier runs in the same batch stay spent:
// admission accounting is conservative under partial-batch shed, but
// backend state is untouched either way.
func (a *admitted) ObserveBatch(obs []store.Observation) error {
	for i := 0; i < len(obs); {
		j := i + 1
		for j < len(obs) && obs[j].Metric == obs[i].Metric {
			j++
		}
		if err := a.ctrl.Admit(obs[i].Metric, j-i); err != nil {
			return err
		}
		i = j
	}
	return a.Backend.ObserveBatch(obs)
}
