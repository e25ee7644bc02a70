package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/trace"
)

// Handler returns an http.Handler serving the registry's surfaces:
//
//   - /metrics          — Prometheus text exposition (version 0.0.4)
//   - /debug/analytics  — JSON snapshot with histogram quantiles
//   - /debug/traces     — Chrome trace-event JSON of the retained trace
//     ring, loadable in chrome://tracing or Perfetto (when r carries a
//     tracer)
//   - /debug/slow       — slow-query log entries, oldest first (when r
//     carries a tracer)
//   - /debug/pprof/     — the standard pprof endpoints (when pprof is set)
//
// pprof is opt-in because profiles expose process internals and a 30s
// CPU profile holds a handler goroutine for its full window. A nil
// registry serves an empty (but valid) payload on the first two, so
// callers can mount the handler unconditionally.
func Handler(r *Registry, pprofOn bool) http.Handler {
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
	if tr := r.Tracer(); tr != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tr.WriteChrome(w)
		})
		mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			slow := tr.Slow()
			if slow == nil {
				slow = []trace.SlowEntry{}
			}
			_ = enc.Encode(struct {
				Slow []trace.SlowEntry `json:"slow"`
			}{Slow: slow})
		})
	}
	if pprofOn {
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
