// server.go: the HTTP serving edge over the analytics.Backend contract.
//
// The server exposes the full contract — register, observe, query,
// keys, stats — as a small JSON API, and mounts the telemetry handler
// (/metrics, /debug/analytics, /debug/traces, /debug/slow, pprof) on
// the same mux, so one port serves both the data plane and the
// observability plane.
//
// Two pieces of request context cross the wire as headers:
//
//   - X-Analytics-Timeout carries the caller's per-request deadline as
//     a Go duration ("250ms"). The server clamps it to MaxTimeout,
//     derives a context, and threads it through the backend's gather
//     (store shard fan-out, cluster scatter-gather) via
//     Backend.Query; an expired deadline aborts the gather and
//     answers 504. Absent header: DefaultTimeout.
//   - X-Analytics-Trace carries the client's trace context (hex of
//     trace.EncodeContext). The server adopts the remote trace
//     (Tracer.AdoptRemote), so the edge span and every backend stage
//     span underneath stitch onto the CALLER's trace id, and the trace
//     surfaces on /debug/traces show the cross-process request end to
//     end.
//
// When a read cache (internal/rcache) is configured, every observation
// batch the edge forwards is written to the backend first and then bumps
// the cache's invalidation watermarks, and every query consults the
// cache before the backend; responses carry "cached": true when served
// from it. The cache keeps an answer only once its request shape was
// asked before, so a repeated query is cached from its third ask. The cache is exact from the
// edge's point of view as long as all writes enter through the edge —
// see the rcache package comment for the contract (and for the
// eventual-consistency caveat cluster-backed deployments inherit).
package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/freelist"
	"repro/internal/rcache"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Wire headers. TimeoutHeader holds a Go duration string; TraceHeader
// holds the 32-hex-char trace.EncodeContext form. DefaultTenantHeader
// names the tenant a write batch is billed to when admission is on.
const (
	TimeoutHeader       = "X-Analytics-Timeout"
	TraceHeader         = "X-Analytics-Trace"
	DefaultTenantHeader = "X-Analytics-Tenant"
)

// maxBodyBytes caps every request body the edge decodes, so a hostile
// POST cannot make the daemon allocate without bound. Far above any
// legitimate request (a 256-observation batch is ~30 KB).
const maxBodyBytes = 8 << 20

// Config assembles a Server.
type Config struct {
	// Backend serves the contract. Required. Wrap it with
	// analytics.Instrument first if per-backend metrics and query roots
	// are wanted — the server composes, it does not instrument the
	// backend itself.
	Backend analytics.Backend
	// Cache, when non-nil, caches sealed-range query results at the
	// edge. The server owns feeding its invalidation watermarks.
	Cache *rcache.Cache
	// Registry, when non-nil, receives the server's own metrics
	// (analytics_serve_*) and backs the mounted /metrics surface. When it
	// carries a tracer, the server adopts remote trace contexts into it
	// and mounts /debug/traces and /debug/slow.
	Registry *telemetry.Registry
	// Pprof mounts /debug/pprof/ (see telemetry.Handler).
	Pprof bool
	// DefaultTimeout bounds requests that carry no TimeoutHeader
	// (default 5s). MaxTimeout clamps the header (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Admission, when non-nil, runs the edge's per-tenant fairness
	// check: every observe batch clears AdmitTenant before it can touch
	// the backend, billed to the TenantHeader value (absent header: the
	// "" tenant — all anonymous traffic shares one bucket). Global and
	// per-metric budgets belong on the backend side via analytics.Admit,
	// so they also bound writes that bypass the edge; either way a shed
	// request answers 429 with Retry-After and mutates nothing.
	Admission *admission.Controller
	// TenantHeader overrides the header AdmitTenant bills to (default
	// DefaultTenantHeader).
	TenantHeader string
	// NegCache is ignored: the backend answers an unknown metric from
	// its own registry before any fan-out.
	//
	// Deprecated: kept so existing callers compile; set nothing.
	NegCache int
}

// Server is the HTTP serving edge. Build with NewServer and mount
// Handler() on an http.Server of your own, as cmd/analyticsd does.
type Server struct {
	cfg   Config
	be    analytics.Backend
	cache *rcache.Cache
	ctrl  *admission.Controller
	mux   *http.ServeMux

	mu    sync.RWMutex
	specs map[string]ProtoSpec

	// scratch keeps the per-request decode state between requests (see
	// observe.go); a free list, so its size does not follow GC timing.
	scratch freelist.List[scratch]

	queries  *telemetry.Counter
	observes *telemetry.Counter
	errs     map[string]*telemetry.Counter
	qryLat   *telemetry.Histogram
}

// NewServer wires the mux. The telemetry surfaces are mounted under /
// (so /metrics and /debug/* resolve), the data plane under /v1/.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: Config.Backend is required")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = time.Minute
	}
	if cfg.TenantHeader == "" {
		cfg.TenantHeader = DefaultTenantHeader
	}
	reg := cfg.Registry
	s := &Server{
		cfg:   cfg,
		be:    cfg.Backend,
		cache: cfg.Cache,
		ctrl:  cfg.Admission,
		mux:   http.NewServeMux(),
		specs: make(map[string]ProtoSpec),
		queries: reg.Counter("analytics_serve_queries_total",
			"Queries answered by the serving edge.", "layer", "serve"),
		observes: reg.Counter("analytics_serve_observations_total",
			"Observations ingested through the serving edge.", "layer", "serve"),
		errs: map[string]*telemetry.Counter{},
		qryLat: reg.Histogram("analytics_serve_query_seconds",
			"Query latency at the serving edge, cache hits included.", "layer", "serve"),
	}
	s.scratch.New, s.scratch.Max = newScratch, maxIdleScratch
	for _, route := range []string{"register", "observe", "query", "keys"} {
		s.errs[route] = reg.Counter("analytics_serve_errors_total",
			"Requests answered with a non-2xx status.", "layer", "serve", "route", route)
	}
	if s.cache != nil {
		s.cache.SetTelemetry(reg)
	}

	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("POST /v1/observe", s.handleObserve)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.Handle("/", telemetry.Handler(reg, cfg.Pprof))
	return s, nil
}

// Handler returns the server's mux: data plane under /v1/, telemetry
// and debug surfaces at their conventional paths.
func (s *Server) Handler() http.Handler { return s.mux }

// Register binds a metric in process — the daemon's preload path. It
// registers the materialized prototype with the backend and records the
// spec for /v1/metrics.
func (s *Server) Register(name string, spec ProtoSpec) error {
	proto, err := spec.Prototype()
	if err != nil {
		return err
	}
	if err := s.be.RegisterMetric(name, proto); err != nil {
		return err
	}
	s.mu.Lock()
	s.specs[name] = spec
	s.mu.Unlock()
	return nil
}

// requestContext derives the per-request deadline context from the
// timeout header (clamped), defaulting to DefaultTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if h := r.Header.Get(TimeoutHeader); h != "" {
		parsed, err := time.ParseDuration(h)
		if err != nil || parsed <= 0 {
			return nil, nil, errors.New("serve: " + TimeoutHeader + " must be a positive Go duration")
		}
		d = min(parsed, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// remoteSpan adopts the caller's trace context from the trace header,
// returning a finished-by-caller edge span (nil when untraced). The
// first adoption of a trace id starts a root at this tracer, so a
// remote client's request is retained and slow-logged like a local one.
func (s *Server) remoteSpan(r *http.Request, name string) *trace.Span {
	h := r.Header.Get(TraceHeader)
	trc := s.cfg.Registry.Tracer()
	if h == "" || trc == nil {
		return nil
	}
	raw, err := hex.DecodeString(h)
	if err != nil {
		return nil
	}
	tctx := trace.DecodeContext(raw)
	if !tctx.Valid() {
		return nil
	}
	return trc.AdoptRemote(tctx, name)
}

// jsonContentType is the Content-Type header value of every response,
// shared so setting it allocates nothing (net/http never writes to a
// header's value slice).
var jsonContentType = []string{"application/json"}

// writeBody answers 200 with a body already rendered as writeJSON
// would render it.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is the client's hang-up
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// fail writes the error body and counts it against route.
func (s *Server) fail(w http.ResponseWriter, route string, code int, err error) {
	if c := s.errs[route]; c != nil {
		c.Inc()
	}
	setRetryAfter(w, code, err)
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// setRetryAfter gives a 429 for an overload error its suggested backoff
// as a Retry-After header (integer seconds, rounded up so a sub-second
// wait never becomes "retry immediately").
func setRetryAfter(w http.ResponseWriter, code int, err error) {
	if d, ok := admission.Wait(err); ok && code == http.StatusTooManyRequests {
		secs := max(int64(math.Ceil(d.Seconds())), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
}

// errStatus maps a backend error to its wire status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrUnknownMetric):
		return http.StatusNotFound
	case errors.Is(err, admission.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get()
	defer s.release(sc)
	var req RegisterRequest
	if code, err := sc.decodeBody(w, r, &req); err != nil {
		s.fail(w, "register", code, err)
		return
	}
	if req.Name == "" {
		s.fail(w, "register", http.StatusBadRequest, errors.New("serve: register: name is required"))
		return
	}
	if err := s.Register(req.Name, req.Spec); err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already registered") {
			code = http.StatusConflict
		}
		s.fail(w, "register", code, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Registered string `json:"registered"`
	}{req.Name})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get()
	defer s.release(sc)
	body, code, err := sc.readBody(w, r)
	if err != nil {
		s.fail(w, "observe", code, err)
		return
	}
	// batch is the scratch's: valid until release, which is why
	// ObserveBatch must not keep the slice.
	batch, err := sc.decodeObserve(body)
	if err != nil {
		s.fail(w, "observe", http.StatusBadRequest, err)
		return
	}
	sp := s.remoteSpan(r, "serve.observe")
	if sp != nil {
		sp.SetAttrs(trace.Int("batch", int64(len(batch))))
		tctx := sp.Context()
		for i := range batch {
			batch[i].Trace = tctx
		}
		defer sp.Finish()
	}
	// Per-tenant fairness runs first, before anything can mutate: a shed
	// request provably left no trace anywhere below the edge.
	if err := s.ctrl.AdmitTenant(r.Header.Get(s.cfg.TenantHeader), len(batch)); err != nil {
		s.observeError(w, sp, err)
		return
	}
	// One batched write per request: the backends validate the whole
	// batch up front and absorb all of it or none (the ObserveBatch
	// contract), so a rejected batch reports accepted: 0 and the
	// invalidation watermarks below only move for acknowledged writes.
	if err := s.be.ObserveBatch(batch); err != nil {
		s.observeError(w, sp, err)
		return
	}
	if s.cache != nil {
		for i := range batch {
			// Invalidate after the write is absorbed: an acknowledged write
			// is never shadowed by a stale cached answer (see rcache).
			s.cache.NoteObserve(batch[i].Metric, batch[i].Time)
		}
	}
	s.observes.Add(uint64(len(batch)))
	writeBody(w, sc.renderAck(len(batch)))
}

// observeError answers one failed observe batch: nothing was absorbed,
// so accepted is 0; overloads carry Retry-After as on every other
// route.
func (s *Server) observeError(w http.ResponseWriter, sp *trace.Span, err error) {
	code := errStatus(err)
	if code == http.StatusInternalServerError {
		code = http.StatusBadRequest
	}
	if sp != nil {
		sp.SetAttrs(trace.Str("error", err.Error()))
	}
	s.errs["observe"].Inc()
	setRetryAfter(w, code, err)
	writeJSON(w, code, struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}{0, err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sc := s.scratch.Get()
	defer s.release(sc)
	var wq QueryRequest
	if code, err := sc.decodeBody(w, r, &wq); err != nil {
		s.fail(w, "query", code, err)
		return
	}
	req, err := wq.Request().Normalize()
	if err != nil {
		s.fail(w, "query", http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.fail(w, "query", http.StatusBadRequest, err)
		return
	}
	defer cancel()

	sp := s.remoteSpan(r, "serve.query")
	if sp != nil {
		sp.SetAttrs(trace.Str("metrics", strings.Join(req.Metrics, ",")),
			trace.Int("from", req.From), trace.Int("to", req.To))
		req.Trace = sp.Context()
		defer sp.Finish()
	}

	var (
		res store.QueryResult
		hit bool
		tok rcache.Token
	)
	if s.cache != nil {
		res, hit, tok = s.cache.Lookup(req)
	}
	if !hit {
		res, err = s.be.Query(ctx, req)
		if err != nil {
			if sp != nil {
				sp.SetAttrs(trace.Str("error", err.Error()))
			}
			s.fail(w, "query", errStatus(err), err)
			return
		}
		if s.cache != nil {
			s.cache.Fill(tok, res)
		}
	}

	out, err := sc.renderQuery(res, hit)
	if err != nil {
		s.fail(w, "query", http.StatusInternalServerError, err)
		return
	}
	if hit && sp != nil {
		sp.SetAttrs(trace.Bool("cached", true))
	}
	s.queries.Inc()
	s.qryLat.ObserveSince(t0)
	writeBody(w, out)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		s.fail(w, "keys", http.StatusBadRequest, errors.New("serve: keys: metric query parameter is required"))
		return
	}
	keys := s.be.Keys(metric)
	if keys == nil {
		keys = []string{}
	}
	sort.Strings(keys)
	writeJSON(w, http.StatusOK, KeysResponse{Metric: metric, Keys: keys})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{Stats: s.be.Stats()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make(map[string]ProtoSpec, len(s.specs))
	for name, spec := range s.specs {
		out[name] = spec
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, MetricsResponse{Metrics: out})
}
