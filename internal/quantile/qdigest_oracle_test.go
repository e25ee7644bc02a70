package quantile

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

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

// Chains of light and heavy merges into one accumulator, whose arguments
// hold unfolded tails, are exact-size copies or were decoded from the
// oracle's bytes; the accumulator is itself swapped for its exact-size
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
						if c := part.Compact(); c != nil {
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
						if c := acc.Compact(); c != nil {
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

// An exact-size copy is what it copies, and copying it again gives nil.
func TestQDigestCompactIsExact(t *testing.T) {
	rng := workload.NewRNG(31)
	q, _ := NewQDigest(20, 64)
	ref := newMapDigest(20, 64)
	for i := 0; i < 3000; i++ {
		update(rng, 20, q, ref)
		if i%300 != 0 {
			continue
		}
		c := q.Compact()
		if c == nil {
			t.Fatalf("after %d updates: no copy of a digest holding a tail", i)
		}
		if len(c.tail) != 0 || cap(c.ids) != len(c.ids) || cap(c.cnts) != len(c.cnts) {
			t.Fatalf("after %d updates: copy holds %d pending, %d/%d ids", i, len(c.tail), len(c.ids), cap(c.ids))
		}
		if c.Compact() != nil {
			t.Fatalf("after %d updates: an exact-size copy copied again", i)
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
