// Store-level tests for seal-time compaction: a sealed low-occupancy
// bucket is held in its compact form, and nothing a caller can observe —
// answers, checkpoint bytes, concurrent reads — tells the difference.
package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// marshal returns syn's binary encoding, first checking that AppendBinary
// writes the same bytes behind a prefix into a reused buffer whose spare
// capacity holds stale bytes, as the checkpoint writer and the response
// encoder reuse theirs.
func marshal(t testing.TB, syn Synopsis) []byte {
	t.Helper()
	b, err := syn.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Repeat([]byte{0xa5}, 2+len(b))[:2]
	got, err := syn.AppendBinary(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], dirty) || !bytes.Equal(got[2:], b) {
		t.Fatalf("%T: AppendBinary into a reused buffer wrote other bytes", syn)
	}
	return b
}

// bucketCell names one (metric, key, bucket) cell of a store.
type bucketCell struct {
	metric, key string
	bkt         int64
}

// denseReference builds, straight from the observations, the dense
// synopsis each bucket cell would hold in a store that never compacts.
func denseReference(protos map[string]Prototype, width int64, obs []Observation) map[bucketCell]Synopsis {
	ref := map[bucketCell]Synopsis{}
	for _, o := range obs {
		c := bucketCell{o.Metric, o.Key, o.Time / width}
		if ref[c] == nil {
			ref[c] = protos[o.Metric].New()
		}
		ref[c].Observe(o.Item, o.Value)
	}
	return ref
}

// A late write lands in a sealed bucket held in a compact form — an HLL or
// Count-Min bucket born sparse, a q-digest compacted at its seal: the
// copy-on-write clone opens like any bucket and takes the sealed one's
// contents, and the answer is byte-equal to a dense synopsis built
// directly from the same observations.
func TestLateWriteIntoCompactedBucket(t *testing.T) {
	cfg := ckptGeom()
	st := ckptStore(t, cfg)
	protos := ckptProtos(t)
	var all []Observation
	for i := 0; i < 1200; i++ {
		all = append(all, ckptObs(i)...)
	}
	for _, o := range all {
		if err := st.ObserveBatch([]Observation{o}); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	if before.Compacted == 0 {
		t.Fatalf("no seal took the compact form: %+v", before)
	}
	// Late, in-window writes into buckets 2 and 5 of every key.
	var late []Observation
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("k%d", i%13)
		now := int64(200 + 300*(i%2) + i)
		late = append(late,
			Observation{Metric: "hits", Key: key, Item: fmt.Sprintf("late%d", i%7), Value: 2, Time: now},
			Observation{Metric: "uniq", Key: key, Item: fmt.Sprintf("late%d", i), Time: now},
			Observation{Metric: "lat", Key: key, Value: uint64(i*7919) % 50000, Time: now},
		)
	}
	for _, o := range late {
		if err := st.ObserveBatch([]Observation{o}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().DroppedLate != 0 {
		t.Fatalf("late writes fell out of the window: %+v", st.Stats())
	}
	if st.Stats().Bytes <= before.Bytes {
		t.Fatalf("re-expanded buckets not accounted: %d -> %d bytes", before.Bytes, st.Stats().Bytes)
	}
	checkHeld(t, st)
	ref := denseReference(protos, cfg.BucketWidth, append(all, late...))
	for c, want := range ref {
		if c.metric != "hits" && c.metric != "uniq" {
			continue
		}
		got, err := queryPoint(st, c.metric, c.key, c.bkt*cfg.BucketWidth, (c.bkt+1)*cfg.BucketWidth-1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Fatalf("%s/%s bucket %d: answer differs from the dense reference", c.metric, c.key, c.bkt)
		}
	}
	// The next roll seals the late-written buckets again: the q-digest
	// clones compact once more.
	for _, o := range ckptObs(1300) {
		if err := st.ObserveBatch([]Observation{o}); err != nil {
			t.Fatal(err)
		}
	}
	st.sealHistory()
	if after := st.Stats(); after.Compacted <= before.Compacted {
		t.Fatalf("late-written buckets did not re-compact: %+v", after)
	}
	checkHeld(t, st)
}

// readCheckpointRecords parses a checkpoint data file into its
// per-bucket synopsis bytes.
func readCheckpointRecords(t *testing.T, dir string) map[bucketCell][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, checkpointDataName))
	if err != nil {
		t.Fatal(err)
	}
	out := map[bucketCell][]byte{}
	for pos := 0; pos < len(data); {
		plen := int(binary.LittleEndian.Uint32(data[pos:]))
		payload := data[pos+8 : pos+8+plen]
		pos += 8 + plen
		metric, rest, err := cutUvarintString(payload)
		if err != nil {
			t.Fatal(err)
		}
		key, rest, err := cutUvarintString(rest)
		if err != nil {
			t.Fatal(err)
		}
		bkt, n := binary.Uvarint(rest)
		syn, _, err := cutUvarintBytes(rest[n:])
		if err != nil {
			t.Fatal(err)
		}
		out[bucketCell{metric, key, int64(bkt)}] = syn
	}
	return out
}

// A checkpoint of compacted history holds, record for record, the bytes
// the dense synopses marshal to — what the store wrote before it
// compacted anything — and a store restored from it is the same size as
// the live one and answers the same.
func TestCheckpointOfCompactedHistory(t *testing.T) {
	cfg := ckptGeom()
	src := ckptStore(t, cfg)
	var all []Observation
	const n = 3000
	for i := 0; i < n; i++ {
		all = append(all, ckptObs(i)...)
	}
	if err := src.ObserveBatch(all); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := WriteCheckpoint(src, dir, CheckpointMeta{})
	if err != nil {
		t.Fatal(err)
	}
	live := src.Stats()
	if live.Compacted == 0 {
		t.Fatalf("nothing compacted: %+v", live)
	}
	ref := denseReference(ckptProtos(t), cfg.BucketWidth, all)
	recs := readCheckpointRecords(t, dir)
	if len(recs) != len(ref) || uint64(len(recs)) != info.Records {
		t.Fatalf("checkpoint holds %d records (info %d), reference %d cells", len(recs), info.Records, len(ref))
	}
	dense := 0
	for c, want := range ref {
		if !bytes.Equal(recs[c], marshal(t, want)) {
			t.Fatalf("%s/%s bucket %d: checkpoint record differs from the dense synopsis' bytes", c.metric, c.key, c.bkt)
		}
		dense += want.Bytes()
	}
	if live.Bytes*2 > dense {
		t.Fatalf("live store holds %d bytes, dense reference %d: history not compacted", live.Bytes, dense)
	}

	dst := ckptStore(t, cfg)
	if _, err := RestoreCheckpoint(dst, dir); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats(); got.Bytes != live.Bytes || got.Entries != live.Entries {
		t.Fatalf("restored %d bytes / %d entries, live %d / %d", got.Bytes, got.Entries, live.Bytes, live.Entries)
	}
	checkHeld(t, src)
	checkHeld(t, dst)
	assertCheckpointAgree(t, dst, src, n, "restored vs live")
}

// Queries race bucket rolls: every roll seals a q-digest bucket into its
// compact form and drops the synopsis it vacated, while queries borrow
// and return their gathers' accumulators. (HLL and Count-Min buckets
// open sparse and have nothing to vacate.) A reader must never see a
// synopsis change under it — the finished history it asks for answers
// the same bytes throughout. Run under -race.
func TestQueryRacingRollNeverSeesRecycledSpare(t *testing.T) {
	cfg := Config{Shards: 2, BucketWidth: 10, RingBuckets: 256}
	st := ckptStore(t, cfg)
	keys := []string{"a", "b", "c", "d"}
	write := func(bkt int64) {
		for i, key := range keys {
			for j := 0; j < 3; j++ {
				item := fmt.Sprintf("u%d", (bkt*7+int64(i+j))%23)
				now := bkt*cfg.BucketWidth + int64(j)
				for _, o := range []Observation{
					{Metric: "uniq", Key: key, Item: item, Time: now},
					{Metric: "hits", Key: key, Item: item, Value: 1 + uint64(j), Time: now},
					{Metric: "lat", Key: key, Value: uint64(bkt*31+int64(i*7+j)) % 5000, Time: now},
				} {
					if err := st.ObserveBatch([]Observation{o}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}
	const history, rolls = 20, 200
	for bkt := int64(0); bkt <= history; bkt++ {
		write(bkt)
	}
	// Buckets [0, history) are sealed and final from here on.
	sealedReq := QueryRequest{Metrics: []string{"uniq", "hits", "lat"}, Keys: keys, From: 0, To: history * cfg.BucketWidth}
	want, err := st.Query(context.Background(), sealedReq)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes [][]byte
	for _, syn := range want.RawSynopses() {
		wantBytes = append(wantBytes, marshal(t, syn))
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for bkt := int64(history + 1); bkt <= history+rolls; bkt++ {
			write(bkt)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := st.Query(context.Background(), sealedReq)
				if err != nil {
					t.Error(err)
					return
				}
				for i, syn := range got.RawSynopses() {
					if !bytes.Equal(marshal(t, syn), wantBytes[i]) {
						t.Errorf("cell %d: sealed history changed under a concurrent roll", i)
						return
					}
				}
				// The open bucket is merged under the shard lock; whatever
				// it holds, the answer never exceeds what was written.
				all, err := st.Query(context.Background(), QueryRequest{Metric: "uniq", Key: "a", From: 0, To: (history + rolls + 1) * cfg.BucketWidth})
				if err != nil {
					t.Error(err)
					return
				}
				if n := all.Items(); n < 3*history || n > 3*(history+rolls+1) {
					t.Errorf("open-range answer absorbed %d items", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Stats().Compacted < rolls {
		t.Fatalf("rolls did not compact: %+v", st.Stats())
	}
}

// Queries over a fixed sealed range of a series race everything that
// moves the series' history: rolls that append sealed payloads to its
// arena and expire its oldest buckets, late writes into buckets outside
// the range that reopen history records (leaving them dead), and the
// copy-downs into a new arena that dead bytes trigger. Readers merge
// payload slices after releasing the shard lock, so arena bytes below
// its length must never be written again: every answer over the fixed
// range keeps its bytes throughout. Run under -race.
func TestQueryRacingHistoryMoves(t *testing.T) {
	const (
		width, ring = 10, 64
		lo, hi      = 50, 60 // the fixed range, in buckets
		last        = 109    // the newest bucket the rolls reach: lo stays in the window
		rounds      = 4
	)
	cfg := Config{Shards: 2, BucketWidth: width, RingBuckets: ring}
	write := func(st *Store, bkt int64, salt int) error {
		var batch []Observation
		for j := 0; j < 3; j++ {
			item := fmt.Sprintf("u%d", (int(bkt)*7+j+salt)%29)
			now := bkt*width + int64(j)
			batch = append(batch,
				Observation{Metric: "uniq", Key: "a", Item: item, Time: now},
				Observation{Metric: "hits", Key: "a", Item: item, Value: 1 + uint64(j), Time: now},
				Observation{Metric: "lat", Key: "a", Value: uint64(int(bkt)*31+j*7+salt) % 5000, Time: now})
		}
		return st.ObserveBatch(batch)
	}
	copyDowns, expiries, lates := 0, 0, 0
	for round := 0; round < rounds; round++ {
		st := ckptStore(t, cfg)
		for bkt := int64(0); bkt < ring; bkt++ {
			if err := write(st, bkt, round); err != nil {
				t.Fatal(err)
			}
		}
		req := QueryRequest{Metrics: []string{"uniq", "hits", "lat"}, Key: "a", From: lo * width, To: hi * width}
		want, err := st.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var wantBytes [][]byte
		for _, syn := range want.RawSynopses() {
			wantBytes = append(wantBytes, marshal(t, syn))
		}
		k := entryKey{metric: "lat", key: "a"}
		sh := st.shards[st.shardIndex(k)]
		var wg sync.WaitGroup
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for bkt := int64(ring); bkt <= last; bkt++ {
				sh.mu.RLock()
				h := &sh.entries[k].hist
				before, oldest := len(h.arena), h.bkt(h.index[0])
				sh.mu.RUnlock()
				// A roll, then late writes behind the range and just behind
				// the newest bucket, both outside [lo, hi) while bkt <= last.
				for _, b := range []int64{bkt, bkt - ring + 4, bkt - 2} {
					if err := write(st, b, round+1); err != nil {
						t.Error(err)
						return
					}
				}
				lates += 2
				sh.mu.RLock()
				if len(h.arena) < before { // only a copy-down shortens an arena
					copyDowns++
				}
				if h.bkt(h.index[0]) > oldest {
					expiries++
				}
				sh.mu.RUnlock()
			}
		}()
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					got, err := st.Query(context.Background(), req)
					if err != nil {
						t.Error(err)
						return
					}
					for i, syn := range got.RawSynopses() {
						if !bytes.Equal(marshal(t, syn), wantBytes[i]) {
							t.Errorf("round %d cell %d: a fixed sealed range changed under a moving history", round, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		checkHeld(t, st)
	}
	t.Logf("%d rounds: %d late writes, %d expiries and %d copy-downs of the lat/a arena", rounds, lates, expiries, copyDowns)
	if copyDowns == 0 || expiries == 0 {
		t.Fatalf("the history never moved: %d expiries, %d copy-downs", expiries, copyDowns)
	}
}

// Buckets are born sparse: a freshly opened HyperLogLog or Count-Min
// bucket holds only what it absorbed, and a roll that opens a new bucket
// for every series allocates far less than one dense array per series —
// under a dense HLL's 4 KiB register array, let alone the 32 KiB
// Count-Min matrix. Query accumulators stay dense: the Prototype's own
// instances.
func TestBucketsOpenSparse(t *testing.T) {
	const keys, width = 64, 100
	st := mustStore(t, Config{Shards: 8, BucketWidth: width, RingBuckets: 16})
	uniq, _ := NewDistinctProto(12, 42)
	hits, _ := NewFreqProto(1024, 4, 42)
	for name, p := range map[string]Prototype{"uniques": uniq, "page-hits": hits} {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}
	bucket := func(bkt int64) []Observation {
		var batch []Observation
		for k := 0; k < keys; k++ {
			page := fmt.Sprintf("page-%02d", k)
			now := bkt*width + int64(k%width)
			batch = append(batch,
				Observation{Metric: "uniques", Key: page, Item: fmt.Sprintf("user-%d", bkt), Time: now},
				Observation{Metric: "page-hits", Key: page, Item: page, Time: now})
		}
		return batch
	}
	if err := st.ObserveBatch(bucket(0)); err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, sh := range st.shards {
		for k, e := range sh.entries {
			if len(e.slots) != 1 {
				t.Fatalf("%s/%s holds %d buckets, want 1", k.metric, k.key, len(e.slots))
			}
			sl := e.slots[0]
			var sparse bool
			switch syn := sl.syn.(type) {
			case *Distinct:
				sparse = syn.h.IsSparse()
			case *Freq:
				sparse = syn.cm.IsSparse()
			}
			if !sparse || sl.sealed() {
				t.Fatalf("%s/%s: open bucket is %T, sparse %v, sealed %v", k.metric, k.key, sl.syn, sparse, sl.sealed())
			}
			open++
		}
	}
	if open != 2*keys {
		t.Fatalf("%d open buckets, want %d", open, 2*keys)
	}
	// The least of three rolls: TotalAlloc is process-wide.
	least := uint64(math.MaxUint64)
	for bkt := int64(1); bkt <= 3; bkt++ {
		batch := bucket(bkt)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a roll over %d series allocates %d bytes", 2*keys, least)
	if perSeries := least / (2 * keys); perSeries >= 4096 {
		t.Fatalf("a roll allocates %d bytes per series, a dense HLL is 4096", perSeries)
	}
	res, err := st.Query(context.Background(), QueryRequest{Metric: "page-hits", Keys: []string{"page-00", "page-01"}, From: 0, To: 4 * width, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Raw().(*Freq); !f.cm.IsSparse() {
		t.Fatal("a 2-key 4-bucket answer is not a compact copy")
	}
	if acc := hits.New().(*Freq); acc.cm.IsSparse() {
		t.Fatal("the Prototype's instance is not a dense accumulator")
	}
}

// A compact answer leaves its dense accumulator in the gather that lent
// it, and the next query on any goroutine that borrows that gather
// merges into it. The answer must
// share nothing with it: answers kept while concurrent queries recycle
// the accumulators — per-key and aggregate, compact and not — keep their
// bytes. Run under -race.
func TestAnswersSurviveAccumulatorRecycling(t *testing.T) {
	st := fourFamilyStore(t, Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}, 8, 500)
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	type kept struct {
		syn   Synopsis
		bytes []byte
	}
	const workers, queries = 4, 150
	got := make([][]kept, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				from := int64((g*7+i)%40) * 10
				res, err := st.Query(context.Background(), QueryRequest{
					Metrics: []string{"uniq", "hits"}, Keys: keys[i%4 : i%4+1+i%5],
					From: from, To: from + 10*int64(1+i%11), Aggregate: i%3 == 0,
				})
				if err != nil {
					t.Error(err)
					return
				}
				for _, syn := range res.RawSynopses() {
					b, err := syn.AppendBinary(nil)
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], kept{syn, b})
				}
			}
		}(g)
	}
	wg.Wait()
	compact := 0
	for _, answers := range got {
		for i, a := range answers {
			if !bytes.Equal(marshal(t, a.syn), a.bytes) {
				t.Fatalf("answer %d changed after later queries recycled accumulators", i)
			}
			// Compacted copies are sparse; a dense answer is its accumulator.
			switch s := a.syn.(type) {
			case *Distinct:
				if s.h.IsSparse() {
					compact++
				}
			case *Freq:
				if s.cm.IsSparse() {
					compact++
				}
			}
		}
	}
	if compact == 0 {
		t.Fatal("no answer took the compact form: nothing was recycled")
	}
}

// SealedFootprintStore builds the serving benchmark's preload shape — 64
// pages x 160 sealed buckets x 64 events over the daemon's four-family
// demo schema (`page-%02d` keys, Zipf s = 1.1), bucket width 100 — with
// bucket 160 left open. Exported to the external test package, whose
// cached-answer gate runs range_scan-shaped queries over it.
func SealedFootprintStore(t testing.TB) *Store {
	return preloadStore(t, "uniques", "page-hits", "top-pages", "latency-us")
}

// preloadStore builds SealedFootprintStore's shape holding only the
// metrics named: the same draws, with the other metrics' writes left out.
func preloadStore(t testing.TB, metrics ...string) *Store {
	const (
		pages, buckets, perBucket = 64, 160, 64
		width                     = 100
	)
	st := mustStore(t, Config{Shards: 8, BucketWidth: width, RingBuckets: 256})
	uniq, _ := NewDistinctProto(12, 42)
	hits, _ := NewFreqProto(1024, 4, 42)
	top, _ := NewTopKProto(32)
	lat, _ := NewQuantileProto(20, 512)
	protos := map[string]Prototype{"uniques": uniq, "page-hits": hits, "top-pages": top, "latency-us": lat}
	for _, name := range metrics {
		if err := st.RegisterMetric(name, protos[name]); err != nil {
			t.Fatal(err)
		}
	}
	rng := workload.NewRNG(1)
	zipf := workload.NewZipf(rng, pages, 1.1)
	var batch []Observation
	for bkt := int64(0); bkt <= buckets; bkt++ { // the last bucket stays open
		batch = batch[:0]
		for i := 0; i < perBucket; i++ {
			page := fmt.Sprintf("page-%02d", zipf.Draw())
			user := fmt.Sprintf("user-%d", rng.Uint64()%20000)
			now := bkt*width + int64(i)
			for _, o := range [...]Observation{
				{Metric: "uniques", Key: page, Item: user, Time: now},
				{Metric: "page-hits", Key: page, Item: page, Time: now},
				{Metric: "top-pages", Key: "all", Item: page, Time: now},
				{Metric: "latency-us", Key: page, Value: 100 + rng.Uint64()%9000, Time: now},
			} {
				if slices.Contains(metrics, o.Metric) {
					batch = append(batch, o)
				}
			}
		}
		if err := st.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSealedFootprint is the deterministic footprint gate: the serving
// benchmark's preload shape must stay under a pinned byte ceiling, and a
// 64-bucket range query over it within its allocation count. Dense
// history held 148 MB here; the ceiling leaves room above the 3.6 MB
// measured when the gate landed, not for a return of per-bucket dense
// arrays. The query cost 18 allocations while it merged into a fresh
// dense synopsis and grew its sealed-bucket list by append; a reused
// accumulator, a reused list and a compact answer took 9, and 8 once the
// answer held its sketch by value. The accumulator and the list are a
// gather's, on a free list the race detector leaves alone, so the gate
// holds under -race too (it was 17 there while they were sync.Pools).
func TestSealedFootprint(t *testing.T) {
	const (
		width     = 100
		ceiling   = 6 << 20
		maxAllocs = 8
	)
	st := SealedFootprintStore(t)
	stats := st.Stats()
	t.Logf("sealed footprint: %d bytes in %d entries, %d seals compacted", stats.Bytes, stats.Entries, stats.Compacted)
	if stats.Bytes > ceiling {
		t.Fatalf("store holds %d bytes, ceiling %d", stats.Bytes, ceiling)
	}
	req := QueryRequest{Metric: "uniques", Key: "page-01", From: 40 * width, To: 104 * width}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64-bucket range query: %v allocations", allocs)
	if allocs > float64(maxAllocs) {
		t.Fatalf("64-bucket range query costs %v allocations, gate %d", allocs, maxAllocs)
	}
}

// TestSealedHeapFootprint is the gate on what the preload shape's cells
// cost on the heap, bookkeeping included: TestSealedFootprint reads
// Stats.Bytes, which counts the synopses' and histories' payloads, not
// the slot arrays, entries and object headers that hold them. It logs
// the heap after GC that each family alone adds, and fails when the
// four-family SealedFootprintStore adds more than 1.25 MiB: 2.57 MiB with
// 40-byte slots and each sketch behind an adapter pointer, 2.10 MiB with
// 24-byte slots and sketches held by value, 0.56 MiB with sealed HLL,
// Count-Min and q-digest buckets as payloads in one arena per series.
func TestSealedHeapFootprint(t *testing.T) {
	const ceiling = 125 << 20 / 100 // 1.25 MiB
	if size := unsafe.Sizeof(slot{}); size > 24 {
		t.Fatalf("a slot takes %d bytes, gate 24", size)
	}
	held := func(metrics ...string) int64 {
		preloadStore(t, metrics...) // runs the build's one-time initialisation and grows its free lists
		before := HeapAfterGC()
		st := preloadStore(t, metrics...)
		n := int64(HeapAfterGC()) - int64(before)
		stats := st.Stats()
		runtime.KeepAlive(st)
		t.Logf("%v: %d heap bytes (Stats.Bytes %d) in %d entries", metrics, n, stats.Bytes, stats.Entries)
		return n
	}
	for _, m := range []string{"uniques", "page-hits", "top-pages", "latency-us"} {
		held(m)
	}
	if n := held("uniques", "page-hits", "top-pages", "latency-us"); n > ceiling {
		t.Fatalf("SealedFootprintStore holds %d heap bytes, ceiling %d", n, ceiling)
	}
}

// TestSealedHistoryHeapObjects is the gate on how many heap objects the
// preload shape holds after GC, all of which the collector marks on every
// cycle: at most 3 000. With every sealed bucket an object behind a slot
// it held 22 850; with sealed HLL, Count-Min and q-digest buckets as
// payloads in one pointer-free arena per series, what is left is the
// top-k buckets, the entries, the arenas and indexes, the open buckets
// and the slot arrays.
func TestSealedHistoryHeapObjects(t *testing.T) {
	const ceiling = 3000
	SealedFootprintStore(t) // runs the build's one-time initialisation and grows its free lists
	objects := func() uint64 {
		HeapAfterGC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := objects()
	st := SealedFootprintStore(t)
	n := int64(objects()) - int64(before)
	runtime.KeepAlive(st)
	t.Logf("SealedFootprintStore adds %d heap objects", n)
	if n > ceiling {
		t.Fatalf("SealedFootprintStore adds %d heap objects, ceiling %d", n, ceiling)
	}
}

// TestSealedTopKFootprint is the gate on a top-k bucket's footprint: the
// preload shape's 161 `top-pages` buckets (k = 32, 64 events each, 24.8
// counters on average) in a store that holds nothing else, 160 sealed
// and the newest open. A sealed bucket holds its counters flat, in one
// exact-size slice: under 1.5 KB of heap per bucket after GC, where the
// Stream-Summary (a map, a node per counter and a bucket per distinct
// count) held 3.4 KB. A 64-bucket range query over it is one k-way merge
// into a flat answer, gated at under 100 allocations (3 786 when it
// folded pairwise through SpaceSaving.Merge).
func TestSealedTopKFootprint(t *testing.T) {
	const (
		buckets   = 161
		perBucket = 1536
		width     = 100
		maxAllocs = 100
	)
	preloadStore(t, "top-pages") // runs the build's one-time initialisation and grows its free lists
	before := HeapAfterGC()
	st := preloadStore(t, "top-pages")
	held := int64(HeapAfterGC()) - int64(before)
	stats := st.Stats()
	runtime.KeepAlive(st)
	t.Logf("%d top-pages buckets hold %d heap bytes, %d per bucket (Stats.Bytes %d, %d seals compacted)",
		buckets, held, held/buckets, stats.Bytes, stats.Compacted)
	if stats.Compacted != buckets-1 {
		t.Fatalf("%d seals compacted, want the %d sealed buckets", stats.Compacted, buckets-1)
	}
	if held > buckets*perBucket {
		t.Fatalf("%d top-pages buckets hold %d heap bytes, %d per bucket: gate %d", buckets, held, held/buckets, perBucket)
	}
	req := QueryRequest{Metric: "top-pages", Key: "all", From: 40 * width, To: 104 * width}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64-bucket top-pages range query: %v allocations", allocs)
	if allocs >= maxAllocs {
		t.Fatalf("64-bucket top-pages range query costs %v allocations, gate < %d", allocs, maxAllocs)
	}
}

// BenchmarkQuantileRange and BenchmarkUniquesRange time the 64-bucket
// `latency-us` and `uniques` range queries on `page-01` over
// SealedFootprintStore — the serving benchmark's range_scan shape —
// which merge their sealed buckets from history payloads. Each fails at
// more than 8 allocations a query, TestSealedFootprint's and
// TestQuantileAnswerFootprint's gate.
func BenchmarkQuantileRange(b *testing.B) { benchmarkRange(b, "latency-us") }

func BenchmarkUniquesRange(b *testing.B) { benchmarkRange(b, "uniques") }

func benchmarkRange(b *testing.B, metric string) {
	const width = 100
	st := SealedFootprintStore(b)
	req := QueryRequest{Metric: metric, Key: "page-01", From: 40 * width, To: 104 * width}
	query := func() {
		if _, err := st.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, query); allocs > 8 {
		b.Fatalf("64-bucket %s range query costs %v allocations, gate 8", metric, allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// BenchmarkTopKRange times the 64-bucket `top-pages`/`all` range query
// over SealedFootprintStore, the paper's trending query over the serving
// benchmark's preload. It fails at 100 allocations a query or more.
func BenchmarkTopKRange(b *testing.B) {
	const width = 100
	st := SealedFootprintStore(b)
	req := QueryRequest{Metric: "top-pages", Key: "all", From: 40 * width, To: 104 * width}
	query := func() {
		if _, err := st.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, query); allocs >= 100 {
		b.Fatalf("64-bucket top-pages range query costs %v allocations, gate < 100", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// zipfQuantileBucket writes one bucket in the benchmark's ingest_zipf
// shape, in 256-observation batches, into a store that registers only the
// daemon's latency-us digest (logU 20, k 512): 76 800 events over 64 Zipf
// (s = 1.1) pages, values uniform in 100–9 099. The bucket stays open.
func zipfQuantileBucket(t *testing.T) *Store {
	st := mustStore(t, Config{Shards: 8, BucketWidth: zipfWidth, RingBuckets: 256})
	lat, _ := NewQuantileProto(20, 512)
	if err := st.RegisterMetric("latency-us", lat); err != nil {
		t.Fatal(err)
	}
	writeZipfQuantileBucket(t, st, 0)
	return st
}

const zipfWidth = 100 // zipfQuantileBucket's bucket width

// writeZipfQuantileBucket writes zipfQuantileBucket's events into bucket
// bkt of st.
func writeZipfQuantileBucket(t *testing.T, st *Store, bkt int64) {
	const pages, events, batchSize = 64, 76800, 256
	names := make([]string, pages) // formatted once: the events allocate nothing of their own
	for p := range names {
		names[p] = fmt.Sprintf("page-%02d", p)
	}
	rng := workload.NewRNG(1)
	zipf := workload.NewZipf(rng, pages, 1.1)
	batch := make([]Observation, 0, batchSize)
	for i := 0; i < events; i++ {
		page := names[zipf.Draw()]
		batch = append(batch, Observation{Metric: "latency-us", Key: page, Value: 100 + rng.Uint64()%9000, Time: bkt*zipfWidth + int64(i%zipfWidth)})
		if len(batch) == batchSize {
			if err := st.ObserveBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// TestNextQuantileBucketReusesSealedDigest is the gate on what a series'
// next q-digest bucket allocates: the seal copies the sealed digest's
// packed payload into the history, so no reader holds the open digest
// any more, and the next bucket opens in it, emptied, keeping its node
// and tail buffers. A second zipfQuantileBucket-shaped bucket allocates
// at most 1.0 MB (the least of three runs: TotalAlloc is process-wide;
// the events' key strings are made before it): 0.32 MB when the gate
// landed, where every bucket growing a new digest from empty took
// 1.29 MB.
func TestNextQuantileBucketReusesSealedDigest(t *testing.T) {
	const ceiling = 1 << 20
	least := uint64(math.MaxUint64)
	for range 3 {
		st := zipfQuantileBucket(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writeZipfQuantileBucket(t, st, 1)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		checkHeld(t, st)
	}
	t.Logf("the second bucket allocates %d bytes", least)
	if least > ceiling {
		t.Fatalf("the second bucket allocates %d bytes, ceiling %d", least, ceiling)
	}
}

// HeapAfterGC returns the live heap once collection has settled it.
// Nothing the store reuses needs more than one collection for that
// (TestHeapSettlesInOneGC), but other packages' sync.Pools do: the test
// runner's -run regexp keeps ≈ 37 KB in one, which a gate would count.
// Free lists — the q-digest scratch, the gathers — are never emptied by
// collection: a gate that must not count them grows them first.
func HeapAfterGC() uint64 {
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestOpenQuantileFootprint is the gate on an open q-digest bucket's
// footprint: the ingest_zipf-shaped bucket of zipfQuantileBucket, not
// sealed. A digest holds its unit-weight updates as 4-byte values until
// they could pass the compression bound, and a cold page never gets
// there, so most of the bucket is such values. When the gate landed its
// heap after GC was 600 KB; as 16-byte (id, count) pairs it was 1 345 KB.
func TestOpenQuantileFootprint(t *testing.T) {
	const ceiling = 700 << 10
	zipfQuantileBucket(t) // grows the q-digest scratch to what the measured build needs
	before := HeapAfterGC()
	st := zipfQuantileBucket(t)
	held := int64(HeapAfterGC()) - int64(before)
	stats := st.Stats()
	nodes := 0
	for _, sh := range st.shards {
		for _, e := range sh.entries {
			for _, sl := range e.slots {
				nodes += sl.syn.(*Quantiles).q.Nodes()
			}
		}
	}
	runtime.KeepAlive(st)
	t.Logf("the open bucket holds %d heap bytes (Stats.Bytes %d) for %d nodes", held, stats.Bytes, nodes)
	if held > ceiling {
		t.Fatalf("the open bucket holds %d heap bytes, ceiling %d", held, ceiling)
	}
}

// TestSealedQuantileFootprint is the gate on a sealed q-digest bucket's
// footprint: the ingest_zipf-shaped bucket of zipfQuantileBucket, sealed.
// Its 64 digests are history payloads, nodes packed, each record with
// its length and index word: 2.05 bytes per node and 95 KB when the gate
// landed (digest objects holding packed nodes, their headers uncounted),
// where (id, count) pairs held 16 bytes per node and 744 KB.
func TestSealedQuantileFootprint(t *testing.T) {
	const (
		pages, width = 64, 100
		maxPerNode   = 3
		ceiling      = 160 << 10
	)
	st := zipfQuantileBucket(t)
	batch := make([]Observation, 0, pages) // one write per page into the next bucket seals the first
	for p := 0; p < pages; p++ {
		batch = append(batch, Observation{Metric: "latency-us", Key: fmt.Sprintf("page-%02d", p), Value: 100, Time: width})
	}
	if err := st.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	lat, err := st.metrics.Lookup("latency-us")
	if err != nil {
		t.Fatal(err)
	}
	held, nodes, sealed := 0, 0, 0
	for _, sh := range st.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			for _, sl := range e.slots {
				if sl.sealed() {
					t.Fatalf("a sealed q-digest bucket kept as a %T slot", sl.syn)
				}
			}
			for _, r := range e.hist.index {
				p, size := e.hist.record(r)
				enc := lat.appendPayloadBinary(nil, p) // its header counts the nodes
				held += size + refSize
				nodes += int(binary.LittleEndian.Uint32(enc[21:]))
				sealed++
			}
		}
		sh.mu.RUnlock()
	}
	t.Logf("%d sealed q-digest buckets hold %d bytes for %d nodes (%.2f bytes per node; %d as id, count pairs)",
		sealed, held, nodes, float64(held)/float64(nodes), 16*nodes)
	if sealed != pages || nodes == 0 {
		t.Fatalf("%d sealed buckets with %d nodes, want %d", sealed, nodes, pages)
	}
	if held > maxPerNode*nodes || held > ceiling {
		t.Fatalf("sealed buckets hold %d bytes for %d nodes: gate %d per node and %d in all", held, nodes, maxPerNode, ceiling)
	}
}

// TestQuantileAnswerFootprint gates what a q-digest answer costs over the
// serving benchmark's preload: a 64-bucket `latency-us` range query on
// page-01 within its allocation count, and 410 such answers — about as
// many as range_scan's read cache keeps — within a heap ceiling. The
// merge accumulator is reused and the answer is its packed copy, about
// 2.5 bytes per node: 9 allocations, and 0.50 MB of heap for nodes that
// take 3.15 MB as (id, count) pairs. When the gate landed the answer
// held those pairs, 16 bytes per node, and 3.43 MB of heap; with the
// digest in a map the query cost 25 allocations and the same answers
// held 7.64 MB. The answer holding its digest by value took the count
// from 9 to 8. The accumulator is a gather's, on a free list, so the
// gate holds under -race too (it was 47 there while it was in a
// sync.Pool, which drops a quarter of what it is handed).
func TestQuantileAnswerFootprint(t *testing.T) {
	const (
		width     = 100
		answers   = 410
		ceiling   = 3.5 * (1 << 20)
		maxAllocs = 8
	)
	st := SealedFootprintStore(t)
	req := QueryRequest{Metric: "latency-us", Key: "page-01", From: 40 * width, To: 104 * width}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64-bucket latency-us range query: %v allocations", allocs)
	if allocs > float64(maxAllocs) {
		t.Fatalf("64-bucket latency-us range query costs %v allocations, gate %d", allocs, maxAllocs)
	}

	kept := make([]QueryResult, 0, answers)
	before := HeapAfterGC()
	nodes := 0
	for i := 0; i < answers; i++ {
		from := int64(i % (160 - 64 + 1))
		res, err := st.Query(context.Background(), QueryRequest{Metric: "latency-us", Key: "page-01", From: from * width, To: (from + 64) * width})
		if err != nil {
			t.Fatal(err)
		}
		nodes += res.Raw().(*Quantiles).q.Nodes()
		kept = append(kept, res)
	}
	held := int64(HeapAfterGC()) - int64(before)
	runtime.KeepAlive(st)
	runtime.KeepAlive(kept)
	t.Logf("%d latency-us answers hold %d heap bytes for %d nodes (%d bytes as id, count pairs)", answers, held, nodes, 16*nodes)
	if held > ceiling {
		t.Fatalf("%d latency-us answers hold %d heap bytes, ceiling %d", answers, held, int64(ceiling))
	}
}
