package engine

import (
	"fmt"
	"testing"

	"repro/internal/lambda"
	"repro/internal/store"
)

func lambdaWithHits(t *testing.T) *lambda.Architecture {
	t.Helper()
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	a, err := lambda.New(lambda.Config{Partitions: 4, Batch: geom, Speed: geom})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	proto, err := store.NewFreqProto(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMetric("hits", proto); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewLambdaBoltValidation(t *testing.T) {
	if _, err := NewLambdaBolt(nil, nil); err == nil {
		t.Fatal("nil architecture accepted")
	}
}

// A topology drives both Lambda layers through one LambdaBolt: every
// tuple lands in the master log AND the speed layer, so a batch recompute
// after the run and the merged query agree with the tuple count.
func TestLambdaBoltDrivesBothLayers(t *testing.T) {
	a := lambdaWithHits(t)
	const tuples = 4000
	emitted := 0
	spout := SpoutFunc(func() (Message, bool) {
		if emitted >= tuples {
			return Message{}, false
		}
		i := emitted
		emitted++
		return Message{
			Key: fmt.Sprintf("page%d", i%8),
			Value: store.Observation{
				Metric: "hits",
				Key:    fmt.Sprintf("page%d", i%8),
				Item:   "view",
				Value:  1,
				Time:   int64(i % 300),
			},
		}, true
	})
	sink, err := NewLambdaBolt(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewBuilder().
		AddSpout("events", spout).
		AddBolt("lambda", sink.Factory(), 4, FieldsFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["lambda"] != 0 {
		t.Fatalf("topology failures: %+v", stats)
	}
	if got := a.MasterLen(); got != tuples {
		t.Fatalf("master log has %d messages, want %d", got, tuples)
	}
	// Speed layer absorbed the stream (pre-batch merged answer is live).
	for k := 0; k < 8; k++ {
		syn, err := queryPoint(a, "hits", fmt.Sprintf("page%d", k), 0, 299)
		if err != nil {
			t.Fatal(err)
		}
		if got := syn.(*store.Freq).Count("view"); got != tuples/8 {
			t.Fatalf("page%d pre-batch merged count %d, want %d", k, got, tuples/8)
		}
	}
	// Batch recompute covers the whole run; answers are unchanged and the
	// speed layer is truncated to nothing.
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	if obs := a.SpeedStats().Observed; obs != 0 {
		t.Fatalf("speed layer holds %d observations after handoff", obs)
	}
	for k := 0; k < 8; k++ {
		syn, err := queryPoint(a, "hits", fmt.Sprintf("page%d", k), 0, 299)
		if err != nil {
			t.Fatal(err)
		}
		if got := syn.(*store.Freq).Count("view"); got != tuples/8 {
			t.Fatalf("page%d post-batch merged count %d, want %d", k, got, tuples/8)
		}
	}
}

// Messages the extractor rejects are skipped, not failed, and never
// reach the master log.
func TestLambdaBoltSkipsForeignMessages(t *testing.T) {
	a := lambdaWithHits(t)
	msgs := []Message{
		{Key: "a", Value: store.Observation{Metric: "hits", Key: "a", Item: "x", Value: 1, Time: 1}},
		{Key: "b", Value: "not an observation"},
		{Key: "c", Value: store.Observation{Metric: "hits", Key: "c", Item: "y", Value: 1, Time: 2}},
	}
	sink, _ := NewLambdaBolt(a, nil)
	topo, err := NewBuilder().
		AddSpout("events", &sliceSpout{msgs: msgs}).
		AddBolt("lambda", sink.Factory(), 2, ShuffleFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Dropped != 0 || stats.Errors["lambda"] != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if got := a.MasterLen(); got != 2 {
		t.Fatalf("master log has %d messages, want 2", got)
	}
}
