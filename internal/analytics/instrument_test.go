// The Instrument decorator's conformance extension: a wrapped backend
// must be observationally identical to the bare one — same answers cell
// for cell, same errors, same key discovery — across every serving
// implementation, while the registry records the traffic on the side.
package analytics

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestInstrumentTransparent feeds the conformance dataset through an
// Instrument-wrapped backend and through a bare one, for all four
// serving implementations, and requires identical answers — the wrapper
// may only ever count and time, never change a byte of the result.
func TestInstrumentTransparent(t *testing.T) {
	bare := newHarnesses(t)
	wrapped := newHarnesses(t)
	reg := telemetry.New()
	for i := range wrapped {
		wrapped[i].be = Instrument(wrapped[i].be, reg, wrapped[i].name)
	}

	for i, hb := range bare {
		hw := wrapped[i]
		t.Run(hw.name, func(t *testing.T) {
			registerFamilies(t, hb.be)
			registerFamilies(t, hw.be) // through the wrapper: delegation path
			feed(t, hb.be, conformanceSpan)
			feed(t, hw.be, conformanceSpan)
			if err := hb.drain(); err != nil {
				t.Fatal(err)
			}
			if err := hw.drain(); err != nil {
				t.Fatal(err)
			}

			req := store.QueryRequest{
				Metrics: []string{"uniq", "hits", "top", "lat"},
				AllKeys: true,
				From:    0, To: conformanceSpan,
			}
			want, err := hb.be.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hw.be.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answers(), want.Answers()) {
				t.Fatal("instrumented answers differ from bare answers")
			}

			// Errors pass through unchanged, including the sentinel.
			_, err = hw.be.Query(store.QueryRequest{Metric: "nope", Key: "k0", From: 0, To: 10})
			if !errors.Is(err, store.ErrUnknownMetric) {
				t.Fatalf("wrapped query error %v, want ErrUnknownMetric", err)
			}
			// Keys is unordered on some backends (Lambda documents it so);
			// compare as sets.
			wantKeys, gotKeys := hb.be.Keys("uniq"), hw.be.Keys("uniq")
			sort.Strings(wantKeys)
			sort.Strings(gotKeys)
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Fatal("Keys diverges under instrumentation")
			}
			if hw.be.Stats().Observed != hb.be.Stats().Observed {
				t.Fatal("Stats diverges under instrumentation")
			}
		})
	}

	// The side effect the wrapper exists for: per-backend, per-metric
	// operation counts in the registry.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, h := range wrapped {
		obs := fmt.Sprintf(`analytics_backend_observe_total{backend=%q,metric="hits"} %d`, h.name, conformanceSpan)
		if !strings.Contains(text, obs) {
			t.Errorf("exposition is missing %q", obs)
		}
	}
}

// TestInstrumentNilRegistry pins the zero-cost opt-out: a nil registry
// returns the backend itself, not a wrapper.
func TestInstrumentNilRegistry(t *testing.T) {
	st, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}
	if be := Instrument(st, nil, "store"); be != Backend(st) {
		t.Fatal("Instrument with nil registry did not return the bare backend")
	}
}

// TestInstrumentErrorCounting drives the error paths and checks they are
// counted per operation without perturbing the returned error.
func TestInstrumentErrorCounting(t *testing.T) {
	st, err := store.New(storeGeom())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	be := Instrument(st, reg, "store")
	if err := be.ObserveBatch([]store.Observation{{Metric: "nope", Key: "k", Item: "x"}}); !errors.Is(err, store.ErrUnknownMetric) {
		t.Fatalf("observe error %v", err)
	}
	if _, err := be.Query(store.QueryRequest{Metric: "nope", Key: "k", From: 0, To: 1}); !errors.Is(err, store.ErrUnknownMetric) {
		t.Fatalf("query error %v", err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"observe", "query"} {
		want := fmt.Sprintf(`analytics_backend_errors_total{backend="store",op=%q} 1`, op)
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}
