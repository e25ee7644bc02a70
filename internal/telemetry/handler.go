package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/trace"
)

// DebugOptions selects the optional debug surfaces HandlerWith mounts
// next to /metrics. The zero value mounts nothing extra, making
// Handler(r) == HandlerWith(r, DebugOptions{}).
type DebugOptions struct {
	// Tracer, when non-nil, mounts /debug/traces (Chrome trace-event
	// JSON of the retained trace ring — load it in chrome://tracing or
	// Perfetto) and /debug/slow (the slow-query log).
	Tracer *trace.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/. Opt-in because
	// profiles expose process internals and a 30s CPU profile holds a
	// handler goroutine for its full window.
	Pprof bool
}

// Handler returns an http.Handler serving the registry's two surfaces:
//
//   - /metrics          — Prometheus text exposition (version 0.0.4)
//   - /debug/analytics  — JSON snapshot with histogram quantiles
//
// A nil registry serves an empty (but valid) payload on both, so callers
// can mount the handler unconditionally.
func Handler(r *Registry) http.Handler {
	return HandlerWith(r, DebugOptions{})
}

// HandlerWith is Handler plus the opt-in debug surfaces:
//
//   - /debug/traces — Chrome trace-event JSON (when opts.Tracer != nil)
//   - /debug/slow   — slow-query log entries, oldest first
//   - /debug/pprof/ — the standard pprof index (when opts.Pprof)
//
// The trace surfaces serve empty-but-valid payloads for a nil tracer,
// matching the registry's contract.
func HandlerWith(r *Registry, opts DebugOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/analytics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Families []SnapshotFamily `json:"families"`
		}{Families: r.Snapshot()})
	})
	if opts.Tracer != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = opts.Tracer.WriteChrome(w)
		})
		mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			slow := opts.Tracer.Slow()
			if slow == nil {
				slow = []trace.SlowEntry{}
			}
			_ = enc.Encode(struct {
				Slow []trace.SlowEntry `json:"slow"`
			}{Slow: slow})
		})
	}
	if opts.Pprof {
		// Mount the pprof handlers explicitly: the package's init only
		// registers them on http.DefaultServeMux, which we don't serve.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
