package lambda

import (
	"context"
	"encoding"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/mqlog"
	"repro/internal/store"
)

// durableObs is the deterministic observation stream both the crashing
// architecture and the never-restarted oracle append: all four synopsis
// families, monotone time, a handful of keys.
func durableObs(i int) store.Observation {
	key := fmt.Sprintf("k%d", (i*i)%7)
	now := int64(i)
	switch i % 4 {
	case 0:
		return store.Observation{Metric: "hits", Key: key, Item: fmt.Sprintf("u%d", i%16), Value: 1 + uint64(i)%5, Time: now}
	case 1:
		return store.Observation{Metric: "uniq", Key: key, Item: fmt.Sprintf("u%d", (i*2654435761)%4096), Time: now}
	case 2:
		return store.Observation{Metric: "top", Key: "global", Item: key, Time: now}
	default:
		return store.Observation{Metric: "lat", Key: key, Value: uint64(i*2654435761) % 50000, Time: now}
	}
}

// assertAnswersEqual issues one multi-metric, multi-key QueryRequest per
// family against both backends and requires every answer cell to match
// exactly. Returns the number of cells compared.
func assertAnswersEqual(t *testing.T, got, want interface {
	Query(context.Context, store.QueryRequest) (store.QueryResult, error)
	Keys(metric string) []string
}, to int64, stage string) int {
	t.Helper()
	checked := 0
	for _, metric := range []string{"hits", "uniq", "top", "lat"} {
		keys := want.Keys(metric)
		sort.Strings(keys)
		if len(keys) == 0 {
			t.Fatalf("%s: oracle serves no %s keys", stage, metric)
		}
		gotKeys := got.Keys(metric)
		if len(gotKeys) != len(keys) {
			t.Fatalf("%s: %s keys %d != oracle %d", stage, metric, len(gotKeys), len(keys))
		}
		req := store.QueryRequest{Metric: metric, Keys: keys, From: 0, To: to + 1}
		g, err := got.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %s query: %v", stage, metric, err)
		}
		w, err := want.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i, wa := range w.Answers() {
			ga := g.Answers()[i]
			switch metric {
			case "hits":
				for u := 0; u < 16; u++ {
					item := fmt.Sprintf("u%d", u)
					if ga.Count(item) != wa.Count(item) {
						t.Fatalf("%s: hits[%s].Count(%s) %d != oracle %d",
							stage, wa.Key, item, ga.Count(item), wa.Count(item))
					}
				}
			case "uniq":
				if ga.Distinct() != wa.Distinct() {
					t.Fatalf("%s: uniq[%s] %d != oracle %d", stage, wa.Key, ga.Distinct(), wa.Distinct())
				}
			case "top":
				gt, wt := ga.TopK(5), wa.TopK(5)
				if len(gt) != len(wt) {
					t.Fatalf("%s: top[%s] %d counters != oracle %d", stage, wa.Key, len(gt), len(wt))
				}
				for j := range wt {
					if gt[j] != wt[j] {
						t.Fatalf("%s: top[%s][%d] %v != oracle %v", stage, wa.Key, j, gt[j], wt[j])
					}
				}
			case "lat":
				for _, phi := range []float64{0.5, 0.9, 0.99} {
					if ga.Quantile(phi) != wa.Quantile(phi) {
						t.Fatalf("%s: lat[%s] p%g %d != oracle %d",
							stage, wa.Key, phi, ga.Quantile(phi), wa.Quantile(phi))
					}
				}
			}
			checked++
		}
	}
	return checked
}

// TestLambdaDurableRestartRoundTrip is the kill -9 acceptance test: an
// architecture running on a durable master log and a batch checkpoint is
// abandoned without Close mid-write (its last log record is torn), then
// reopened over the same directory. The reopened architecture must
// truncate the torn tail, seed its batch view from the checkpoint,
// replay only the log suffix past it, and answer typed queries exactly
// like an oracle architecture that saw the surviving stream and never
// restarted.
func TestLambdaDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	// Every write fsyncs before returning, so abandoning the
	// architecture without Close models a kill -9 faithfully: everything
	// acked is on disk, nothing is buffered in a background syncer.
	cfg.Durable = &mqlog.DurableConfig{Dir: filepath.Join(dir, "log"), SyncEveryAppend: true}
	cfg.CheckpointDir = filepath.Join(dir, "batch")

	// a1 is built without newArch: a crashed process never calls Close.
	a1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range testProtos(t) {
		if err := a1.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	const pre, post = 600, 201
	for i := 0; i < pre; i++ {
		if err := a1.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := a1.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.FromCheckpoint {
		t.Fatal("first batch run claims a checkpoint seed")
	}
	for i := pre; i < pre+post-1; i++ {
		if err := a1.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The final append is the one the crash will tear: note which
	// partition it lands on by diffing the end offsets around it.
	before := a1.Topic().EndOffsets()
	if err := a1.ObserveBatch([]store.Observation{durableObs(pre + post - 1)}); err != nil {
		t.Fatal(err)
	}
	victim := -1
	for p, end := range a1.Topic().EndOffsets() {
		if end != before[p] {
			victim = p
		}
	}
	if victim < 0 {
		t.Fatal("could not locate the last append's partition")
	}
	// Crash: no Close. Tear the victim partition's newest segment
	// mid-record, as a power cut during the last write would.
	segs, err := filepath.Glob(filepath.Join(dir, "log", masterTopic, fmt.Sprintf("p%04d", victim), "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments for partition %d: %v", victim, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same directory.
	a2 := newArch(t, cfg)
	ds := a2.Topic().DurabilityStats()
	if ds.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", ds.TornTruncations)
	}
	if got, want := a2.MasterLen(), uint64(pre+post-1); got != want {
		t.Fatalf("recovered master log holds %d messages, want %d (torn record dropped)", got, want)
	}
	info, err = a2.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromCheckpoint {
		t.Fatal("restarted batch run did not seed from the checkpoint")
	}
	if info.Restored == 0 {
		t.Fatal("checkpoint seed restored no bucket records")
	}
	// Only the post-checkpoint suffix may replay — the torn final record
	// is gone, so that is post-1 observations, not post.
	if got, want := info.Applied, uint64(post-1); got != want {
		t.Fatalf("restarted batch replayed %d observations, want %d (suffix past the checkpoint)", got, want)
	}

	// Oracle: an in-memory architecture that saw the surviving stream and
	// never restarted.
	oracle := newArch(t, testConfig())
	for i := 0; i < pre+post-1; i++ {
		if err := oracle.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := oracle.RunBatch(); err != nil {
		t.Fatal(err)
	}
	to := int64(pre + post)
	if n := assertAnswersEqual(t, a2, oracle, to, "after crash restart"); n == 0 {
		t.Fatal("nothing checked")
	}

	// The reopened architecture keeps serving: fresh appends and another
	// batch boundary, still equal to the oracle fed the same tail.
	for i := pre + post; i < pre+post+100; i++ {
		for _, arch := range []*Architecture{a2, oracle} {
			if err := arch.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	info, err = a2.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromCheckpoint || info.Applied != 100 {
		t.Fatalf("second restarted batch: FromCheckpoint=%v Applied=%d, want checkpoint seed of exactly the 100 new observations",
			info.FromCheckpoint, info.Applied)
	}
	if _, err := oracle.RunBatch(); err != nil {
		t.Fatal(err)
	}
	assertAnswersEqual(t, a2, oracle, to+100, "after post-restart traffic")
}

// TestLambdaDurableReopenServesBeforeBatch: an architecture reopened over
// a durable master must serve the history it recovered before any
// RunBatch covers it. The first use replays the retained log into the
// speed layer, so answers equal an oracle that never restarted — before
// the first batch run, across it, and with fresh appends on top — and the
// recovered records count as stale until a batch view covers them.
func TestLambdaDurableReopenServesBeforeBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Durable = &mqlog.DurableConfig{Dir: filepath.Join(dir, "log"), SyncEveryAppend: true}
	const n = 400

	a1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range testProtos(t) {
		if err := a1.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	oracle := newArch(t, testConfig())
	for i := 0; i < n; i++ {
		for _, arch := range []*Architecture{a1, oracle} {
			if err := arch.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	a2 := newArch(t, cfg)
	to := int64(n)
	if c := assertAnswersEqual(t, a2, oracle, to, "reopened, before any batch"); c == 0 {
		t.Fatal("nothing checked")
	}
	if got, want := a2.Staleness(), a2.MasterLen(); got != n || got != want {
		t.Fatalf("reopened staleness %d, want %d (MasterLen %d: nothing is batch-covered yet)", got, n, want)
	}
	if got := a2.Appended(); got != 0 {
		t.Fatalf("reopened Appended %d, want 0 (it counts this process's dispatches)", got)
	}

	if _, err := a2.RunBatch(); err != nil {
		t.Fatal(err)
	}
	if s := a2.Staleness(); s != 0 {
		t.Fatalf("staleness after RunBatch %d, want 0", s)
	}
	assertAnswersEqual(t, a2, oracle, to, "reopened, after the first batch")

	for i := n; i < n+50; i++ {
		for _, arch := range []*Architecture{a2, oracle} {
			if err := arch.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := a2.Staleness(); s != 50 {
		t.Fatalf("staleness after 50 appends %d, want 50", s)
	}
	assertAnswersEqual(t, a2, oracle, to+50, "reopened, with fresh appends")
}

// TestRunBatchIncrementalWithinProcess checks the checkpoint fast path
// without any restart: with a CheckpointDir configured, every RunBatch
// after the first seeds from the previous run's snapshot and replays
// only the delta appended since.
func TestRunBatchIncrementalWithinProcess(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "batch")
	a := newArch(t, cfg)
	for i := 0; i < 500; i++ {
		if err := a.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := a.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.FromCheckpoint {
		t.Fatal("first batch run claims a checkpoint seed")
	}
	if info.Applied != 500 {
		t.Fatalf("first batch applied %d, want 500", info.Applied)
	}
	for i := 500; i < 620; i++ {
		if err := a.ObserveBatch([]store.Observation{durableObs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err = a.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromCheckpoint {
		t.Fatal("second batch run did not seed from the first run's checkpoint")
	}
	if info.Applied != 120 {
		t.Fatalf("second batch replayed %d observations, want the 120-observation delta", info.Applied)
	}
	if info.Restored == 0 {
		t.Fatal("second batch restored no bucket records")
	}

	// The incremental view equals a from-scratch freeze of the same log.
	ends := a.Topic().EndOffsets()
	want, err := store.FreezeAtFrom(testConfig().Store, testProtos(t), a.Topic(), ends, "")
	if err != nil {
		t.Fatal(err)
	}
	got := a.BatchView()
	for _, metric := range []string{"hits", "uniq", "top", "lat"} {
		keys := want.Keys(metric)
		sort.Strings(keys)
		for _, key := range keys {
			g, err := queryPoint(got, metric, key, 0, 620)
			if err != nil {
				t.Fatal(err)
			}
			w, err := queryPoint(want, metric, key, 0, 620)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := g.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := w.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(gb) != string(wb) {
				t.Fatalf("incremental batch view %s[%s] differs from a from-scratch freeze", metric, key)
			}
		}
	}
}
