// admission_test.go: the serving edge's overload contract — a shed
// batch answers 429 with a Retry-After the client rehydrates into the
// same typed *admission.Overload an in-process caller sees, and tenant
// buckets isolate noisy neighbors at the front door.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/store"
)

// fakeClock is a hand-advanced clock for deterministic bucket refill.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// uniqBatch builds n same-metric observations against "uniq".
func uniqBatch(n int) []store.Observation {
	out := make([]store.Observation, n)
	for i := range out {
		out[i] = store.Observation{Metric: "uniq", Key: "k0", Item: fmt.Sprintf("u%d", i), Time: int64(i)}
	}
	return out
}

// postObserve sends a raw /v1/observe request (optionally with a tenant
// header) and returns the response; the caller owns Body.Close.
func postObserve(t *testing.T, url, tenant string, batch []store.Observation) *http.Response {
	t.Helper()
	req := ObserveRequest{Observations: make([]WireObservation, len(batch))}
	for i, o := range batch {
		req.Observations[i] = WireObservation{Metric: o.Metric, Key: o.Key, Item: o.Item, Value: o.Value, Time: o.Time}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/observe", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(DefaultTenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeOverload429 drives the edge past its admitted rate and pins
// the whole 429 exchange: header, body, typed client error, provable
// non-mutation, and recovery after exactly the quoted wait.
func TestServeOverload429(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	ctrl, err := admission.New(admission.Config{Rate: 1, Burst: 8, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: analytics.Admit(st, ctrl), Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if err := client.Register("uniq", DistinctSpec(12, 7)); err != nil {
		t.Fatal(err)
	}

	// Within the burst budget: the whole batch lands.
	if err := client.ObserveBatch(uniqBatch(8)); err != nil {
		t.Fatalf("batch within budget: %v", err)
	}
	if got := st.Stats().Observed; got != 8 {
		t.Fatalf("store observed %d, want 8", got)
	}

	// The bucket is empty: the next batch sheds whole, and the client
	// rehydrates the same typed sentinel an in-process caller gets.
	err = client.ObserveBatch(uniqBatch(4))
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("overloaded batch error %v, want ErrOverloaded", err)
	}
	wait, ok := admission.Wait(err)
	if !ok || wait <= 0 {
		t.Fatalf("rehydrated error %v carries no usable Retry-After (wait=%v ok=%v)", err, wait, ok)
	}
	var ov *admission.Overload
	if !errors.As(err, &ov) || ov.Scope != "remote" {
		t.Fatalf("rehydrated error %v, want *admission.Overload with scope remote", err)
	}
	if got := st.Stats().Observed; got != 8 {
		t.Fatalf("shed batch mutated the store: observed %d, want 8", got)
	}

	// The raw exchange: 429, integer-seconds Retry-After, accepted: 0.
	resp := postObserve(t, ts.URL, "", uniqBatch(4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if h := resp.Header.Get("Retry-After"); h == "" || h == "0" {
		t.Fatalf("Retry-After header %q, want >= 1 second", h)
	}
	var body struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 0 || body.Error == "" {
		t.Fatalf("429 body %+v, want accepted 0 and an error", body)
	}

	// Every rejection is accounted on the controller.
	if stats := ctrl.Stats(); stats.Shed != 8 {
		t.Fatalf("controller shed %d observations, want 8 (two rejected batches of 4)", stats.Shed)
	}

	// Waiting the quoted Retry-After re-admits.
	clk.advance(wait)
	if err := client.ObserveBatch(uniqBatch(1)); err != nil {
		t.Fatalf("batch after waiting the quoted Retry-After: %v", err)
	}
	if got := st.Stats().Observed; got != 9 {
		t.Fatalf("store observed %d after recovery, want 9", got)
	}
}

// TestServeTenantAdmission pins per-tenant fairness at the front door:
// one tenant exhausting its bucket sheds with 429 while another tenant
// (and thus the shared backend) keeps absorbing writes.
func TestServeTenantAdmission(t *testing.T) {
	st, err := store.New(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	ctrl, err := admission.New(admission.Config{TenantRate: 1, TenantBurst: 4, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Backend: st, Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if err := client.Register("uniq", DistinctSpec(12, 7)); err != nil {
		t.Fatal(err)
	}

	resp := postObserve(t, ts.URL, "alice", uniqBatch(4))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice within budget: status %d", resp.StatusCode)
	}
	resp = postObserve(t, ts.URL, "alice", uniqBatch(1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice past budget: status %d, want 429", resp.StatusCode)
	}
	// Tenant admission runs before anything mutates: the shed request
	// left no trace below the edge.
	if got := st.Stats().Observed; got != 4 {
		t.Fatalf("store observed %d, want 4 (alice's shed write leaked)", got)
	}
	// Bob's bucket is untouched by alice's exhaustion.
	resp = postObserve(t, ts.URL, "bob", uniqBatch(4))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob after alice's shed: status %d, want 200", resp.StatusCode)
	}
	if got := st.Stats().Observed; got != 8 {
		t.Fatalf("store observed %d, want 8", got)
	}
	if stats := ctrl.Stats(); stats.ShedTenant != 1 {
		t.Fatalf("controller shed %d tenant observations, want 1", stats.ShedTenant)
	}
}
