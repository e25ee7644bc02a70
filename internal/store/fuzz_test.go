// Native fuzz targets for the store's write/query paths. The fuzzer
// drives a byte-script of operations — writes with random keys, deltas
// and out-of-order (even far-backward) timestamps, interleaved queries,
// stats reads and flushes — against two stores fed the same stream through
// ObserveBatch: one in one-observation batches, and its twin in chunks,
// the writes collected into a batch that is flushed at every query,
// stats read and flush op and at the end. Invariants:
//
//   - nothing panics and no valid operation returns an error;
//   - byte accounting never goes negative (on either store);
//   - observations are conserved: Observed + DroppedLate == writes issued;
//   - a full-window query matches a serially-computed reference model of
//     the ring-retention semantics, exactly, on both stores;
//   - once flushed, the chunk-fed twin is indistinguishable from the
//     store fed one observation per batch: equal Stats and
//     MarshalBinary-equal answers.
//
// Seed corpus lives in testdata/fuzz/; run the fuzzer with
//
//	go test -run NONE -fuzz FuzzStoreObserve ./internal/store
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzRing is the ring depth both fuzz stores run with; small enough
// that scripted time jumps rotate and expire buckets constantly.
const (
	fuzzRing  = 8
	fuzzWidth = 8
	fuzzKeys  = 8
)

// refModel replays the store's documented retention semantics serially:
// per key, a write is accepted unless its bucket is more than the ring
// behind the key's newest bucket; at the end, the served window is the
// ring behind the final newest bucket.
type refModel struct {
	newest map[string]int64
	obs    map[string][][2]int64 // key -> (bucket, item id)
	drops  uint64
}

func newRefModel() *refModel {
	return &refModel{newest: map[string]int64{}, obs: map[string][][2]int64{}}
}

func (m *refModel) observe(key string, item int64, time int64) {
	bkt := time / fuzzWidth
	newest, seen := m.newest[key]
	if seen && bkt <= newest-fuzzRing {
		m.drops++
		return
	}
	if !seen || bkt > newest {
		m.newest[key] = bkt
	}
	m.obs[key] = append(m.obs[key], [2]int64{bkt, item})
}

// servedItems returns the item ids of the key's observations still inside
// the final retention window.
func (m *refModel) servedItems(key string) []int64 {
	horizon := m.newest[key] - fuzzRing
	var out []int64
	for _, o := range m.obs[key] {
		if o[0] > horizon {
			out = append(out, o[1])
		}
	}
	return out
}

func fuzzStores(t *testing.T) (loop, batched *Store) {
	t.Helper()
	cfg := Config{Shards: 4, BucketWidth: fuzzWidth, RingBuckets: fuzzRing}
	var err error
	if loop, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if batched, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{loop, batched} {
		proto, err := NewDistinctProto(10, 77)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("uniq", proto); err != nil {
			t.Fatal(err)
		}
	}
	return loop, batched
}

// sameBytes fails unless the two synopses serialize identically.
func sameBytes(t *testing.T, what string, got, want Synopsis) {
	t.Helper()
	gb, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: batch-fed answer differs from loop-fed answer", what)
	}
}

func FuzzStoreObserve(f *testing.F) {
	// Monotone writes across two keys.
	f.Add([]byte{0, 1, 2, 8, 0, 3, 4, 8, 0, 5, 6, 8, 1, 7, 8, 8})
	// Out-of-order and far-late writes that must be dropped.
	f.Add([]byte{0, 1, 1, 127, 0, 1, 2, 0, 0, 2, 3, 127, 0, 2, 4, 1})
	// Writes with interleaved queries, stats and flushes.
	f.Add([]byte{0, 1, 1, 16, 200, 1, 0, 0, 0, 1, 2, 16, 210, 0, 0, 0, 220, 0, 0, 0})
	// A skewed stream: a long run of writes to key 0, then a spread over
	// the other keys, all in one batch.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 96; i++ {
			b = append(b, 0, 0, byte(i), 4)
		}
		for i := 0; i < 64; i++ {
			b = append(b, 0, byte(1+i%7), byte(i), 6)
		}
		return b
	}())
	// One or two writes per bucket over several buckets, so each seals
	// into the compact form; then the time walks back and late writes
	// land in those compacted buckets, with queries in between and after.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 6; i++ {
			b = append(b, 0, byte(i%2), byte(i), 104) // +8: one bucket on
		}
		b = append(b, 200, 0, 0, 16)
		for i := 0; i < 4; i++ {
			b = append(b, 0, byte(i%2), byte(40+i), 88) // -8: one bucket back
		}
		return append(b, 200, 1, 0, 16, 0, 0, 50, 136, 200, 0, 0, 32)
	}())

	f.Fuzz(func(t *testing.T, script []byte) {
		loop, batched := fuzzStores(t)
		ref := newRefModel()
		var pending []Observation
		flush := func() {
			if err := batched.ObserveBatch(pending); err != nil {
				t.Fatalf("batch observe: %v", err)
			}
			pending = pending[:0]
		}
		var writes uint64
		var now, maxTime int64
		for i := 0; i+4 <= len(script); i += 4 {
			op, kb, ib, tb := script[i], script[i+1], script[i+2], script[i+3]
			switch {
			case op < 200:
				// A write: the time walks mostly forward, sometimes far
				// backward (tb is a signed delta biased positive).
				now += int64(tb) - 96
				if now < 0 {
					now = 0
				}
				if now > maxTime {
					maxTime = now
				}
				key := fmt.Sprintf("k%d", kb%fuzzKeys)
				item := int64(ib)
				obs := Observation{Metric: "uniq", Key: key, Item: fmt.Sprintf("i%d", item), Time: now}
				if err := loop.ObserveBatch([]Observation{obs}); err != nil {
					t.Fatalf("loop observe: %v", err)
				}
				pending = append(pending, obs)
				ref.observe(key, item, now)
				writes++
			case op < 220:
				flush()
				key := fmt.Sprintf("k%d", kb%fuzzKeys)
				from := int64(ib) * 4
				to := from + int64(tb)*4
				want, err := queryPoint(loop, "uniq", key, from, to)
				if err != nil {
					t.Fatalf("query [%d,%d]: %v", from, to, err)
				}
				got, err := queryPoint(batched, "uniq", key, from, to)
				if err != nil {
					t.Fatalf("query [%d,%d]: %v", from, to, err)
				}
				sameBytes(t, fmt.Sprintf("%s over [%d,%d]", key, from, to), got, want)
			case op < 240:
				flush()
				ls, bs := loop.Stats(), batched.Stats()
				if ls.Bytes < 0 || bs.Bytes < 0 {
					t.Fatalf("negative byte accounting: %d / %d", ls.Bytes, bs.Bytes)
				}
				if ls != bs {
					t.Fatalf("stats diverge: loop %+v, batch %+v", ls, bs)
				}
			default:
				flush()
			}
		}

		flush()
		for _, st := range []*Store{loop, batched} {
			stats := st.Stats()
			if stats.Bytes < 0 {
				t.Fatalf("negative byte accounting: %+v", stats)
			}
			if stats.Observed+stats.DroppedLate != writes {
				t.Fatalf("conservation: observed %d + dropped %d != writes %d (%+v)",
					stats.Observed, stats.DroppedLate, writes, stats)
			}
			if stats.DroppedLate != ref.drops {
				t.Fatalf("drops %d != reference %d", stats.DroppedLate, ref.drops)
			}
		}

		// Full-window answers must equal the serial reference, exactly:
		// bucketed HLL merging is lossless, so any deviation is a
		// retention or batching bug, not sketch noise.
		for kb := 0; kb < fuzzKeys; kb++ {
			key := fmt.Sprintf("k%d", kb)
			direct, err := NewDistinctProto(10, 77)
			if err != nil {
				t.Fatal(err)
			}
			want := direct.New()
			for _, item := range ref.servedItems(key) {
				want.Observe(fmt.Sprintf("i%d", item), 1)
			}
			var answers []Synopsis
			for name, st := range map[string]*Store{"loop": loop, "batch": batched} {
				got, err := queryPoint(st, "uniq", key, 0, maxTime)
				if err != nil {
					t.Fatal(err)
				}
				if ge, we := got.(*Distinct).Estimate(), want.(*Distinct).Estimate(); ge != we {
					t.Fatalf("%s %s full-window estimate %f != reference %f", name, key, ge, we)
				}
				answers = append(answers, got)
			}
			sameBytes(t, key+" full window", answers[1], answers[0])
		}
	})
}

func FuzzObservationCodec(f *testing.F) {
	f.Add(EncodeObservation(Observation{Metric: "m", Key: "k", Item: "i", Value: 7, Time: 42}))
	f.Add(EncodeObservation(Observation{}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{3, 'a'})
	f.Add(EncodeObservation(Observation{Metric: "latency-us", Key: "page-07", Value: 1 << 40, Time: -1 << 50}))
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, err := DecodeObservation(data)
		if err != nil {
			return // corrupt input rejected: fine
		}
		// Anything that decodes must survive a round trip bit-exactly.
		enc := EncodeObservation(obs)
		back, err := DecodeObservation(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", obs, err)
		}
		if back != obs {
			t.Fatalf("round trip %+v != %+v", back, obs)
		}
		// The encoding is exact-size, writes the bytes the over-reserving
		// encoder it replaced wrote, and appendObservation writes the same
		// bytes behind an existing prefix.
		if cap(enc) != len(enc) {
			t.Fatalf("EncodeObservation: %d bytes in a %d-byte buffer", len(enc), cap(enc))
		}
		if want := reserveEncodeObservation(obs); !bytes.Equal(enc, want) {
			t.Fatalf("EncodeObservation = %x, want %x", enc, want)
		}
		prefix := []byte("prefix")
		if got := appendObservation(prefix, obs); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], enc) {
			t.Fatalf("appendObservation behind a prefix = %x, want prefix + %x", got, enc)
		}
	})
}

// reserveEncodeObservation is the encoder EncodeObservation replaced,
// which reserved three maximal varints: the oracle for its bytes.
func reserveEncodeObservation(obs Observation) []byte {
	buf := make([]byte, 0, len(obs.Metric)+len(obs.Key)+len(obs.Item)+3*binary.MaxVarintLen64)
	for _, s := range []string{obs.Metric, obs.Key, obs.Item} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, obs.Value)
	return binary.AppendVarint(buf, obs.Time)
}
