// lambdabolt.go is the Lambda-Architecture face of the generic serving
// sink — kept as a deprecated alias now that SinkBolt sinks into any
// analytics.Backend. A Lambda-backed SinkBolt drives Figure 1's step 1:
// every tuple's observation reaches Architecture.ObserveBatch, which
// appends to the immutable master topic AND lands the observation in the
// speed layer in one call — and because a rejected observation never
// reaches the master log, an at-least-once replay cannot double-append.
package engine

import (
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/store"
)

// LambdaBolt dispatches each message's observation into a Lambda
// architecture (master log + speed layer).
//
// Deprecated: LambdaBolt is SinkBolt; use NewSinkBolt with any
// analytics.Backend (wrap it with analytics.Instrument for serving
// telemetry).
type LambdaBolt = SinkBolt

// NewLambdaBolt returns a bolt sinking into arch. extract maps a message
// to an observation, returning false to skip the message; nil uses
// DefaultExtract.
//
// Deprecated: use NewSinkBolt — a lambda.Architecture is an
// analytics.Backend, and analytics.Instrument adds telemetry to any of
// them.
func NewLambdaBolt(arch *lambda.Architecture, extract func(Message) (store.Observation, bool)) (*LambdaBolt, error) {
	if arch == nil {
		// Checked here, not in NewSinkBolt: a typed nil pointer would
		// otherwise hide inside a non-nil interface value.
		return nil, core.Errf("LambdaBolt", "arch", "must be non-nil")
	}
	return NewSinkBolt(arch, extract)
}
