// wire.go: the JSON codec for the serving API's request and response
// bodies.
//
// The design rule: the synopsis itself crosses the wire as its binary
// checkpoint encoding (MarshalBinary, base64 inside JSON), so a client
// that knows the metric's ProtoSpec decodes an answer into a synopsis
// byte-identical to the server's — re-marshaling the decoded synopsis
// reproduces the wire bytes exactly, which the round-trip property test
// pins for all four families. Alongside the opaque bytes every answer
// carries a small human-readable view (distinct estimate, top items,
// canned quantiles) so `curl | jq` is useful without a decoder.
package serve

import (
	"encoding"
	"fmt"

	"repro/internal/store"
)

// WireObservation is one observation in an /v1/observe body.
type WireObservation struct {
	Metric string `json:"metric"`
	Key    string `json:"key,omitempty"`
	Item   string `json:"item,omitempty"`
	Value  uint64 `json:"value,omitempty"`
	Time   int64  `json:"time"`
}

// ObserveRequest is the /v1/observe body: a batch of observations,
// absorbed in order.
type ObserveRequest struct {
	Observations []WireObservation `json:"observations"`
}

// ObserveResponse acknowledges an ingest batch. Ingest is
// all-or-nothing at the edge: the batch is validated (and admitted)
// whole before anything mutates, so an error answers accepted: 0 and
// success answers the full batch size.
type ObserveResponse struct {
	// Accepted counts the observations absorbed: the whole batch on
	// success, 0 on error.
	Accepted int `json:"accepted"`
}

// RegisterRequest is the /v1/register body.
type RegisterRequest struct {
	Name string    `json:"name"`
	Spec ProtoSpec `json:"spec"`
}

// QueryRequest is the /v1/query body: store.QueryRequest minus the
// process-local trace context (which travels as the X-Analytics-Trace
// header instead).
type QueryRequest struct {
	Metrics   []string `json:"metrics"`
	Keys      []string `json:"keys,omitempty"`
	AllKeys   bool     `json:"all_keys,omitempty"`
	From      int64    `json:"from"`
	To        int64    `json:"to"`
	Aggregate bool     `json:"aggregate,omitempty"`
}

// Request converts the wire form to the store's typed request.
func (q QueryRequest) Request() store.QueryRequest {
	return store.QueryRequest{
		Metrics:   q.Metrics,
		Keys:      q.Keys,
		AllKeys:   q.AllKeys,
		From:      q.From,
		To:        q.To,
		Aggregate: q.Aggregate,
	}
}

// WireRequest converts a typed request to its wire form (the client's
// encode half). The trace context is dropped here and re-attached as a
// header by the client. The Metric/Key singletons are intentionally not
// mapped: the client normalizes before encoding, so the wire always
// carries the canonical plural form.
func WireRequest(req store.QueryRequest) QueryRequest {
	return QueryRequest{
		Metrics:   req.Metrics,
		Keys:      req.Keys,
		AllKeys:   req.AllKeys,
		From:      req.From,
		To:        req.To,
		Aggregate: req.Aggregate,
	}
}

// WireCounted is one heavy-hitter cell in a top-k answer view.
type WireCounted struct {
	Item  string `json:"item"`
	Count uint64 `json:"count"`
}

// WireAnswer is one answer cell. Synopsis is the cell's binary
// checkpoint encoding (base64 in JSON); the view fields are lossy
// conveniences derived from it at encode time.
type WireAnswer struct {
	Metric    string `json:"metric"`
	Key       string `json:"key,omitempty"`
	Aggregate bool   `json:"aggregate,omitempty"`
	Family    string `json:"family"`
	Items     uint64 `json:"items"`
	Synopsis  []byte `json:"synopsis"`

	// Human-readable views, per family.
	Distinct  uint64            `json:"distinct,omitempty"`  // distinct
	Top       []WireCounted     `json:"top,omitempty"`       // topk
	Quantiles map[string]uint64 `json:"quantiles,omitempty"` // quantile
}

// QueryResponse is the /v1/query response body.
type QueryResponse struct {
	Answers []WireAnswer `json:"answers"`
	// Cached marks an answer served from the read cache (sealed-range
	// results only; see internal/rcache).
	Cached bool `json:"cached"`
}

// wireFamily maps the store's family enum to wire names (ProtoSpec
// family strings).
func wireFamily(f store.Family) string {
	switch f {
	case store.FamilyDistinct:
		return FamilyDistinct
	case store.FamilyFreq:
		return FamilyFreq
	case store.FamilyTopK:
		return FamilyTopK
	case store.FamilyQuantile:
		return FamilyQuantile
	default:
		return "other"
	}
}

// viewTopK bounds the top-k view; the full summary rides in Synopsis.
const viewTopK = 10

// wirePhis are the quantile view's p50, p95 and p99, keyed in the view
// by wirePhiNames (which sort as encoding/json writes map keys).
var (
	wirePhis     = [...]float64{0.50, 0.95, 0.99}
	wirePhiNames = [len(wirePhis)]string{"p50", "p95", "p99"}
)

// synopsisBytes appends the binary encoding of a's synopsis to dst.
func synopsisBytes(dst []byte, a store.Answer) ([]byte, error) {
	b, err := store.AppendBinary(dst, a.Raw())
	if err != nil {
		return dst, fmt.Errorf("serve: encode answer %s/%s: %w", a.Metric, a.Key, err)
	}
	return b, nil
}

// EncodeAnswer renders one answer cell for the wire.
func EncodeAnswer(a store.Answer) (WireAnswer, error) {
	b, err := synopsisBytes(nil, a)
	if err != nil {
		return WireAnswer{}, err
	}
	w := WireAnswer{
		Metric:    a.Metric,
		Key:       a.Key,
		Aggregate: a.Aggregate,
		Family:    wireFamily(a.Family()),
		Items:     a.Items(),
		Synopsis:  b,
	}
	switch a.Family() {
	case store.FamilyDistinct:
		w.Distinct = a.Distinct()
	case store.FamilyTopK:
		for _, c := range a.TopK(viewTopK) {
			w.Top = append(w.Top, WireCounted{Item: c.Item, Count: c.Count})
		}
	case store.FamilyQuantile:
		var qs [len(wirePhis)]uint64
		a.QuantilesInto(wirePhis[:], qs[:])
		w.Quantiles = make(map[string]uint64, len(qs))
		for i, q := range qs {
			w.Quantiles[wirePhiNames[i]] = q
		}
	}
	return w, nil
}

// EncodeResult renders a full result for the wire. Marshaled as
// writeJSON marshals, it is the specification of the /v1/query body,
// which the server writes without it (see encode.go).
func EncodeResult(res store.QueryResult) (QueryResponse, error) {
	answers := res.Answers()
	out := QueryResponse{Answers: make([]WireAnswer, 0, len(answers))}
	for _, a := range answers {
		w, err := EncodeAnswer(a)
		if err != nil {
			return QueryResponse{}, err
		}
		out.Answers = append(out.Answers, w)
	}
	return out, nil
}

// DecodeAnswer rebuilds one typed answer cell from its wire form, using
// spec to construct the receiver synopsis. The decoded synopsis is
// byte-identical to the one the server marshaled (same parameters, same
// checkpoint codec), so re-encoding reproduces the wire bytes.
func DecodeAnswer(w WireAnswer, spec ProtoSpec) (store.Answer, error) {
	proto, err := spec.Prototype()
	if err != nil {
		return store.Answer{}, err
	}
	syn := proto()
	u, ok := syn.(encoding.BinaryUnmarshaler)
	if !ok {
		return store.Answer{}, fmt.Errorf("serve: synopsis %T has no binary decoding", syn)
	}
	if err := u.UnmarshalBinary(w.Synopsis); err != nil {
		return store.Answer{}, fmt.Errorf("serve: decode answer %s/%s: %w", w.Metric, w.Key, err)
	}
	if w.Aggregate {
		return store.NewAggregateAnswer(w.Metric, syn), nil
	}
	return store.NewAnswer(w.Metric, w.Key, syn), nil
}

// DecodeResult rebuilds a typed result from the wire, looking up each
// metric's ProtoSpec through specOf (typically the client's synced
// table). Unknown metrics fail the decode — an answer without a spec
// has no receiver to decode into.
func DecodeResult(res QueryResponse, specOf func(metric string) (ProtoSpec, bool)) (store.QueryResult, error) {
	answers := make([]store.Answer, 0, len(res.Answers))
	for _, w := range res.Answers {
		spec, ok := specOf(w.Metric)
		if !ok {
			return store.QueryResult{}, fmt.Errorf("serve: no ProtoSpec for metric %q (Register or Sync first)", w.Metric)
		}
		a, err := DecodeAnswer(w, spec)
		if err != nil {
			return store.QueryResult{}, err
		}
		answers = append(answers, a)
	}
	return store.NewQueryResult(answers), nil
}

// KeysResponse is the /v1/keys response body.
type KeysResponse struct {
	Metric string   `json:"metric"`
	Keys   []string `json:"keys"`
}

// MetricsResponse is the /v1/metrics response body: the server's
// registered metric schema.
type MetricsResponse struct {
	Metrics map[string]ProtoSpec `json:"metrics"`
}

// StatsResponse is the /v1/stats response body.
type StatsResponse struct {
	Stats store.Stats `json:"stats"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
