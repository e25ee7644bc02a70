// client.go: the HTTP client side of the serving API — an
// analytics.Backend whose backend lives across a socket.
//
// The client satisfies the full contract, so anything written against
// analytics.Backend — a dashboard, a test, the conformance suite — can
// point at a remote analyticsd without changing a call site. Two
// impedance mismatches are explicit rather than papered over:
//
//   - RegisterMetric(name, proto) cannot cross the wire: a
//     store.Prototype is a closure. It returns an error directing
//     callers to Register(name, ProtoSpec) — the declarative form both
//     sides can materialize — or Sync, which pulls the server's schema.
//   - Keys and Stats are error-less in the contract; transport failures
//     there answer the contract's empty values (no keys, zero stats).
//
// Query decoding needs each metric's ProtoSpec to rebuild receiver
// synopses, so the client keeps a spec table fed by Register and Sync.
// Deadlines propagate twice on purpose: the request context cancels the
// client side mid-flight, and the remaining budget rides the
// X-Analytics-Timeout header so the server aborts its backend gather at
// the same instant instead of computing an answer nobody will read.
package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/store"
	"repro/internal/trace"
)

// Client speaks the serving API. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	mu    sync.RWMutex
	specs map[string]ProtoSpec
}

// NewClient returns a client for the analyticsd at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil hc uses http.DefaultClient; per-query
// deadlines come from Query contexts, not client-wide timeouts.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base:  baseURL,
		hc:    hc,
		specs: make(map[string]ProtoSpec),
	}
}

// do posts (or gets, when body is nil) and decodes into out, mapping
// non-2xx statuses to the server's error body.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doTraced(ctx, trace.Context{}, method, path, body, out)
}

// doTraced is the one request path: encode, attach the trace and
// remaining-deadline headers, send, map errors, decode.
func (c *Client) doTraced(ctx context.Context, tctx trace.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serve: client encode %s: %w", path, err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("serve: client request %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tctx.Valid() {
		req.Header.Set(TraceHeader, hex.EncodeToString(trace.EncodeContext(tctx)))
	}
	// Forward the remaining deadline budget so the server-side gather
	// aborts when the caller's context does.
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			req.Header.Set(TimeoutHeader, remaining.String())
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Surface the caller's own cancellation unadorned so errors.Is
		// matches the in-process backends' behavior.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("serve: %s cancelled: %w", path, ctxErr)
		}
		return fmt.Errorf("serve: client %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			return remoteError(resp.StatusCode, eb.Error, retryAfter(resp))
		}
		return fmt.Errorf("serve: client %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: client decode %s: %w", path, err)
	}
	return nil
}

// retryAfter parses the response's Retry-After header (integer
// seconds; the only form the server emits), answering 0 when absent or
// malformed.
func retryAfter(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// remoteError rehydrates the sentinel structure clients match on:
// a 404 wraps store.ErrUnknownMetric, a 504 wraps
// context.DeadlineExceeded, and a 429 rebuilds an
// *admission.Overload carrying the Retry-After header — so errors.Is
// (and admission.Wait) work identically against a remote backend and
// an in-process one, the property the conformance suite pins.
func remoteError(status int, msg string, wait time.Duration) error {
	switch status {
	case http.StatusNotFound:
		return fmt.Errorf("%s: %w", msg, store.ErrUnknownMetric)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%s: %w", msg, &admission.Overload{RetryAfter: wait, Scope: "remote"})
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%s: %w", msg, context.DeadlineExceeded)
	default:
		return fmt.Errorf("serve: remote error (status %d): %s", status, msg)
	}
}

// Register declares a metric on the server and records its spec for
// answer decoding.
func (c *Client) Register(name string, spec ProtoSpec) error {
	if _, err := spec.Prototype(); err != nil {
		return err
	}
	err := c.do(context.Background(), http.MethodPost, "/v1/register",
		RegisterRequest{Name: name, Spec: spec}, nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.specs[name] = spec
	c.mu.Unlock()
	return nil
}

// Sync pulls the server's metric schema into the client's spec table —
// how a read-only client learns to decode answers for metrics it never
// registered.
func (c *Client) Sync() error {
	var out MetricsResponse
	if err := c.do(context.Background(), http.MethodGet, "/v1/metrics", nil, &out); err != nil {
		return err
	}
	c.mu.Lock()
	for name, spec := range out.Metrics {
		c.specs[name] = spec
	}
	c.mu.Unlock()
	return nil
}

// spec looks up a metric's recorded ProtoSpec.
func (c *Client) spec(metric string) (ProtoSpec, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.specs[metric]
	return s, ok
}

// RegisterMetric implements analytics.Backend. A store.Prototype is a
// closure and cannot cross the wire, so this always fails: use
// Register(name, ProtoSpec) instead.
func (c *Client) RegisterMetric(name string, _ store.Prototype) error {
	return fmt.Errorf("serve: cannot register %q through RegisterMetric: a store.Prototype does not serialize; use Client.Register with a ProtoSpec", name)
}

// ObserveBatch implements analytics.Backend: one batch of observations,
// one request. The observations' trace contexts do not cross the wire
// individually; the first valid one rides the trace header and the
// server re-attaches it to the whole batch.
func (c *Client) ObserveBatch(batch []store.Observation) error {
	if len(batch) == 0 {
		return nil
	}
	req := ObserveRequest{Observations: make([]WireObservation, len(batch))}
	var tctx trace.Context
	for i, obs := range batch {
		req.Observations[i] = WireObservation{
			Metric: obs.Metric, Key: obs.Key, Item: obs.Item,
			Value: obs.Value, Time: obs.Time,
		}
		if !tctx.Valid() && obs.Trace.Valid() {
			tctx = obs.Trace
		}
	}
	var out ObserveResponse
	return c.doTraced(context.Background(), tctx, http.MethodPost, "/v1/observe", req, &out)
}

// Query implements analytics.Backend: ctx cancels the
// in-flight HTTP request, and its deadline rides the timeout header so
// the server aborts the backend gather too. The request's trace context
// rides the trace header; the server adopts it, so the remote spans
// land on this request's trace id.
func (c *Client) Query(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	nreq, err := req.Normalize()
	if err != nil {
		return store.QueryResult{}, err
	}
	var body QueryResponse
	if err := c.doTraced(ctx, nreq.Trace, http.MethodPost, "/v1/query", WireRequest(nreq), &body); err != nil {
		return store.QueryResult{}, err
	}
	return DecodeResult(body, c.spec)
}

// QueryWire answers a query and returns the raw wire response — the
// escape hatch for callers that care about transport-level fields like
// Cached. The typed Query path is built on the same endpoint.
func (c *Client) QueryWire(ctx context.Context, req store.QueryRequest) (QueryResponse, error) {
	nreq, err := req.Normalize()
	if err != nil {
		return QueryResponse{}, err
	}
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", WireRequest(nreq), &out); err != nil {
		return QueryResponse{}, err
	}
	return out, nil
}

// Keys implements analytics.Backend. Transport errors answer the
// contract's empty value (Keys is a discovery call, not a validation
// call).
func (c *Client) Keys(metric string) []string {
	var out KeysResponse
	err := c.do(context.Background(), http.MethodGet, "/v1/keys?metric="+url.QueryEscape(metric), nil, &out)
	if err != nil {
		return nil
	}
	return out.Keys
}

// Stats implements analytics.Backend; transport errors answer zeros.
func (c *Client) Stats() store.Stats {
	var out StatsResponse
	if err := c.do(context.Background(), http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return store.Stats{}
	}
	return out.Stats
}
