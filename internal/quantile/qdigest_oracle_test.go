package quantile

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// The differential tests: QDigest against mapDigest, the map-based
// implementation it replaced, over every universe size and compression
// factor shape the store can be configured with at its edges. Same
// inputs must give the same MarshalBinary bytes and the same answers.

var (
	oracleLogUs = []uint8{1, 8, 20, 32}
	oracleKs    = []uint64{1, 2, 7, 64, 512}
	oraclePhis  = []float64{-0.5, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1, 1.5}
)

// sameDigest fails the test unless q and ref marshal to the same bytes,
// count and hold alike, and answer every phi of the grid alike — singly
// and through QueryAll.
func sameDigest(t *testing.T, what string, q *QDigest, ref *mapDigest) {
	t.Helper()
	got, _ := q.MarshalBinary()
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the map oracle's %d (n %d vs %d)", what, len(got), len(want), q.Count(), ref.n)
	}
	if q.Count() != ref.n || q.Nodes() != len(ref.counts) {
		t.Fatalf("%s: count %d nodes %d, oracle %d and %d", what, q.Count(), q.Nodes(), ref.n, len(ref.counts))
	}
	all := make([]uint64, len(oraclePhis))
	q.QueryAll(oraclePhis, all)
	for i, phi := range oraclePhis {
		w := ref.Query(phi)
		if g := q.Query(phi); g != w || all[i] != w {
			t.Fatalf("%s: phi %v answers %d (QueryAll %d), oracle %d", what, phi, g, all[i], w)
		}
	}
}

// oracleValue draws a value for a digest over [0, 2^logU): mostly inside
// the universe (uniform, or clustered so that compress has families to
// merge), sometimes above it, where it clamps.
func oracleValue(rng *workload.RNG, logU uint8) uint64 {
	size := uint64(1) << logU
	switch rng.Intn(8) {
	case 0:
		return size + rng.Uint64()%size
	case 1, 2:
		return size/3 + rng.Uint64()%min(size, 64)
	default:
		return rng.Uint64() % size
	}
}

// oracleWeight draws a weight >= 1: mostly 1, as the store writes.
func oracleWeight(rng *workload.RNG) uint64 {
	switch rng.Intn(1024) {
	case 0, 1, 2, 3, 4, 5, 6, 7:
		return 2 + rng.Uint64()%1000
	case 8:
		return 1 << 30
	default:
		return 1
	}
}

// update feeds one weighted value to both sides.
func update(rng *workload.RNG, logU uint8, q *QDigest, ref *mapDigest) {
	v, w := oracleValue(rng, logU), oracleWeight(rng)
	q.Update(v, w)
	ref.Update(v, w)
}

// Random Update streams, read partway (an unfolded tail must not change
// what later updates do) and at the end.
func TestQDigestUpdateMatchesMapOracle(t *testing.T) {
	rng := workload.NewRNG(23)
	for _, logU := range oracleLogUs {
		for _, k := range oracleKs {
			q, _ := NewQDigest(logU, k)
			ref := newMapDigest(logU, k)
			for i := 1; i <= 8000; i++ {
				update(rng, logU, q, ref)
				if i%997 == 0 {
					sameDigest(t, fmt.Sprintf("logU %d k %d after %d updates", logU, k, i), q, ref)
				}
			}
			sameDigest(t, fmt.Sprintf("logU %d k %d", logU, k), q, ref)
		}
	}
}

// The tail holds values in 4 bytes. At logU 32 the top value, 2^32 - 1,
// and values past it, which clamp to it, must reach the top leaf through
// the tail without wrapping. Streams that mix unit and heavier weights —
// a heavy update folds the tail at once — read partway and then sealed
// must match the oracle throughout.
func TestQDigestTailEdges(t *testing.T) {
	prefix := []byte("prefix")
	sameAppend := func(t *testing.T, what string, q *QDigest, ref *mapDigest) {
		t.Helper()
		got, _ := q.AppendBinary(prefix)
		want, _ := ref.MarshalBinary()
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: AppendBinary differs from the map oracle's bytes", what)
		}
		sameDigest(t, what, q, ref)
	}

	top := uint64(1)<<32 - 1
	for _, k := range oracleKs {
		q, _ := NewQDigest(32, k)
		ref := newMapDigest(32, k)
		for _, v := range []uint64{top, top + 1, 1 << 40, ^uint64(0), 0, top - 1, 1 << 31} {
			q.Update(v, 1)
			ref.Update(v, 1)
		}
		what := fmt.Sprintf("logU 32 k %d", k)
		if k >= 2 && len(q.tail) == 0 {
			t.Fatalf("%s: the updates did not wait in the tail", what)
		}
		for _, v := range q.tail[:min(4, len(q.tail))] {
			if uint64(v) != top {
				t.Fatalf("%s: a clamped value is held as %d, not %d", what, v, top)
			}
		}
		if got := q.Query(1); got != top {
			t.Fatalf("%s: the maximum is %d, not %d", what, got, top)
		}
		sameAppend(t, what, q, ref)
		sameAppend(t, what+" sealed", compacted(q), ref)
	}

	rng := workload.NewRNG(47)
	for _, logU := range oracleLogUs {
		for _, k := range oracleKs {
			q, _ := NewQDigest(logU, k)
			ref := newMapDigest(logU, k)
			for i := 1; i <= 3000; i++ {
				v, w := oracleValue(rng, logU), uint64(1)
				if rng.Intn(4) == 0 {
					w = 2 + rng.Uint64()%50
				}
				q.Update(v, w)
				ref.Update(v, w)
				if i%701 == 0 {
					sameAppend(t, fmt.Sprintf("logU %d k %d after %d updates", logU, k, i), q, ref)
				}
			}
			sameAppend(t, fmt.Sprintf("logU %d k %d sealed", logU, k), compacted(q), ref)
		}
	}
}

// Chains of light and heavy merges into one accumulator, whose arguments
// hold unfolded tails, are packed copies or were decoded from the
// oracle's bytes; the accumulator is itself swapped for its packed
// copy now and then, and reused through Reset for a second chain.
func TestQDigestMergeMatchesMapOracle(t *testing.T) {
	rng := workload.NewRNG(29)
	for _, logU := range oracleLogUs {
		for _, k := range oracleKs {
			acc, _ := NewQDigest(logU, k)
			part, _ := NewQDigest(logU, k)
			decoded, _ := NewQDigest(logU, k)
			compressed := 0
			for chain := 0; chain < 2; chain++ {
				acc.Reset()
				ref := newMapDigest(logU, k)
				for step := 0; step < 24; step++ {
					what := fmt.Sprintf("logU %d k %d chain %d step %d", logU, k, chain, step)
					part.Reset()
					refPart := newMapDigest(logU, k)
					size := rng.Intn(12) // light: a handful of values
					if rng.Intn(3) == 0 {
						size = 200 + rng.Intn(int(7*k)) // heavy: enough to compress
					}
					for i := 0; i < size; i++ {
						update(rng, logU, part, refPart)
					}
					src := part
					switch rng.Intn(3) {
					case 1:
						if c := compacted(part); c != nil {
							src = c
						}
					case 2:
						b, _ := refPart.MarshalBinary()
						if err := decoded.UnmarshalBinary(b); err != nil {
							t.Fatalf("%s: decoding the oracle's bytes: %v", what, err)
						}
						src = decoded
					}
					before, _ := src.MarshalBinary()
					if err := acc.Merge(src); err != nil {
						t.Fatal(err)
					}
					if acc.Count()/k > 1 {
						compressed++
					}
					ref.Merge(refPart)
					if after, _ := src.MarshalBinary(); !bytes.Equal(before, after) {
						t.Fatalf("%s: merging changed its argument", what)
					}
					sameDigest(t, what, acc, ref)
					if step%7 == 3 {
						if c := compacted(acc); c != nil {
							acc = c
						}
					}
				}
			}
			if compressed == 0 {
				t.Fatalf("logU %d k %d: no merge ran the compress pass", logU, k)
			}
		}
	}
}

// compacted returns q's Compact copy, or nil when q offers none,
// in which case Compact must have left its destination alone.
func compacted(q *QDigest) *QDigest {
	var c QDigest
	if !q.Compact(&c) {
		if !reflect.DeepEqual(c, QDigest{}) {
			panic("Compact refused a copy yet wrote its destination")
		}
		return nil
	}
	return &c
}

// A packed copy is what it copies, held in one exact-size byte slice, and
// copying it again gives nil.
func TestQDigestCompactIsExact(t *testing.T) {
	rng := workload.NewRNG(31)
	q, _ := NewQDigest(20, 64)
	ref := newMapDigest(20, 64)
	for i := 0; i < 3000; i++ {
		update(rng, 20, q, ref)
		if i%300 != 0 {
			continue
		}
		c := compacted(q)
		if c == nil {
			t.Fatalf("after %d updates: no copy of a digest holding a tail", i)
		}
		if !c.packed || len(c.tail) != 0 || cap(c.nodes) != 0 || cap(c.enc) != len(c.enc) {
			t.Fatalf("after %d updates: copy packed %v, holds %d pending, %d nodes, %d/%d bytes", i, c.packed, len(c.tail), cap(c.nodes), len(c.enc), cap(c.enc))
		}
		if compacted(c) != nil {
			t.Fatalf("after %d updates: a packed copy copied again", i)
		}
		sameDigest(t, fmt.Sprintf("copy after %d updates", i), c, ref)
	}
}

// Merge only reads its argument: merged concurrently into eight digests
// while its tail is still unfolded, a digest keeps its bytes and its tail.
// Run under -race.
func TestQDigestMergeSourceReadOnly(t *testing.T) {
	rng := workload.NewRNG(37)
	src, _ := NewQDigest(20, 512)
	for i := 0; i < 2000; i++ {
		src.Update(oracleValue(rng, 20), 1)
	}
	if len(src.tail) == 0 {
		t.Fatal("source has no unfolded tail")
	}
	want, _ := src.MarshalBinary()
	tail := len(src.tail)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc, _ := NewQDigest(20, 512)
			for i := 0; i < 20; i++ {
				if err := acc.Merge(src); err != nil {
					t.Error(err)
					return
				}
				_ = src.Query(0.5)
				_ = src.Nodes()
			}
			if acc.Count() != 20*src.Count() {
				t.Errorf("merged %d of %d", acc.Count(), 20*src.Count())
			}
		}()
	}
	wg.Wait()
	if got, _ := src.MarshalBinary(); !bytes.Equal(got, want) || len(src.tail) != tail {
		t.Fatalf("source changed under concurrent merges: tail %d -> %d", tail, len(src.tail))
	}
}

// samePacked fails the test unless c, a packed copy, reads exactly as its
// source q: the same AppendBinary bytes behind a prefix, QueryAll answers,
// Count and Nodes.
func samePacked(t *testing.T, what string, c, q *QDigest) {
	t.Helper()
	if !c.packed {
		t.Fatalf("%s: the copy is not packed", what)
	}
	prefix := []byte("prefix")
	got, _ := c.AppendBinary(prefix)
	want, _ := q.AppendBinary(prefix)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: packed copy appends %d bytes, source %d", what, len(got), len(want))
	}
	if c.Count() != q.Count() || c.Nodes() != q.Nodes() {
		t.Fatalf("%s: packed copy counts %d in %d nodes, source %d in %d", what, c.Count(), c.Nodes(), q.Count(), q.Nodes())
	}
	ga, wa := make([]uint64, len(oraclePhis)), make([]uint64, len(oraclePhis))
	c.QueryAll(oraclePhis, ga)
	q.QueryAll(oraclePhis, wa)
	if !slices.Equal(ga, wa) {
		t.Fatalf("%s: packed copy answers %v, source %v", what, ga, wa)
	}
}

// The packed copy Compact takes against the digest it copies, over the
// map oracle's universes and compression factors. At logU 32 node ids
// reach 2^33, and a weight of 2^30 takes a five-byte count. Merged into
// a digest, the copy gives the source's bytes; merged into as the
// receiver, updated, compressed, reset or decoded into, it unpacks and
// gives the bytes a dense digest gives.
func TestQDigestPackedMatchesSource(t *testing.T) {
	rng := workload.NewRNG(43)
	var maxID uint64 // the largest id a packed copy held
	for _, logU := range oracleLogUs {
		for _, k := range oracleKs {
			q, _ := NewQDigest(logU, k)
			ref := newMapDigest(logU, k)
			other, _ := NewQDigest(logU, k)
			for i := 0; i < 64; i++ {
				update(rng, logU, q, ref)
				other.Update(oracleValue(rng, logU), oracleWeight(rng))
			}
			q.Update(1<<logU-1, 1) // the last leaf: id 2^(logU+1) - 1
			ref.Update(1<<logU-1, 1)
			for step := 0; step < 6; step++ {
				what := fmt.Sprintf("logU %d k %d step %d", logU, k, step)
				c := compacted(q)
				samePacked(t, what, c, q)
				if nodes := unpackNodes(nil, c.enc); len(nodes) > 0 {
					maxID = max(maxID, nodes[len(nodes)-1].id)
				}
				sameDigest(t, what, c, ref)
				if c.Bytes() >= q.Bytes() && q.Nodes() > 0 {
					t.Fatalf("%s: packed copy reports %d bytes, source %d", what, c.Bytes(), q.Bytes())
				}

				// dense is q decoded: the digest a writer on c must act like.
				dense, _ := NewQDigest(logU, k)
				qb, _ := q.MarshalBinary()
				if err := dense.UnmarshalBinary(qb); err != nil {
					t.Fatal(err)
				}
				fromPacked, _ := NewQDigest(logU, k)
				fromDense, _ := NewQDigest(logU, k)
				fromPacked.Update(3, 2)
				fromDense.Update(3, 2)
				if err := fromPacked.Merge(c); err != nil {
					t.Fatal(err)
				}
				if err := fromDense.Merge(dense); err != nil {
					t.Fatal(err)
				}
				equalBytes(t, what+": merged as the source", fromPacked, fromDense)

				recv, recvDense := compacted(q), cloneDigest(t, dense)
				if err := recv.Merge(other); err != nil {
					t.Fatal(err)
				}
				if err := recvDense.Merge(other); err != nil {
					t.Fatal(err)
				}
				equalBytes(t, what+": merged into", recv, recvDense)

				upd, updDense := compacted(q), cloneDigest(t, dense)
				for i := 0; i < 40; i++ {
					v, w := oracleValue(rng, logU), oracleWeight(rng)
					upd.Update(v, w)
					updDense.Update(v, w)
				}
				equalBytes(t, what+": updated", upd, updDense)

				comp, compDense := compacted(q), cloneDigest(t, dense)
				comp.Compress()
				compDense.Compress()
				equalBytes(t, what+": compressed", comp, compDense)

				dec := compacted(q)
				ob, _ := other.MarshalBinary()
				if err := dec.UnmarshalBinary(ob); err != nil {
					t.Fatal(err)
				}
				equalBytes(t, what+": decoded into", dec, other)
				dec.Reset()
				if dec.packed || dec.Count() != 0 || dec.Nodes() != 0 || dec.Bytes() != 32 {
					t.Fatalf("%s: a reset copy holds %d in %d nodes, %d bytes", what, dec.Count(), dec.Nodes(), dec.Bytes())
				}

				for i := 0; i < 1+rng.Intn(int(12*k)); i++ {
					update(rng, logU, q, ref)
				}
			}
		}
	}
	if maxID != 1<<33-1 {
		t.Fatalf("the largest packed id was %d, not the last leaf at logU 32", maxID)
	}
}

// An empty digest packs to a copy that holds nothing and still answers.
func TestQDigestPackedEmpty(t *testing.T) {
	q, _ := NewQDigest(20, 64)
	c := compacted(q)
	samePacked(t, "empty", c, q)
	if c.enc != nil || compacted(c) != nil {
		t.Fatalf("an empty copy holds %d bytes or copies again", len(c.enc))
	}
	c.Update(7, 1)
	if c.packed || c.Count() != 1 || c.Query(0.5) != 7 {
		t.Fatalf("update into an empty copy: packed %v, count %d, median %d", c.packed, c.Count(), c.Query(0.5))
	}
}

// QDigest stays in the allocator's 96-byte size class: the packed bytes
// take the place a second node slice would, not a header of their own.
func TestQDigestPackedStructSize(t *testing.T) {
	if size := unsafe.Sizeof(QDigest{}); size > 96 {
		t.Fatalf("QDigest is %d bytes, above the 96-byte size class", size)
	}
}

func cloneDigest(t *testing.T, q *QDigest) *QDigest {
	t.Helper()
	c, _ := NewQDigest(q.logU, q.k)
	b, _ := q.MarshalBinary()
	if err := c.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return c
}

func equalBytes(t *testing.T, what string, got, want *QDigest) {
	t.Helper()
	g, _ := got.MarshalBinary()
	w, _ := want.MarshalBinary()
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: %d bytes differ from the dense digest's %d", what, len(g), len(w))
	}
	if got.packed {
		t.Fatalf("%s: a written digest is still packed", what)
	}
}
