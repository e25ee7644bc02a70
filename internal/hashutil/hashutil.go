// Package hashutil provides the seeded, non-cryptographic hash functions
// that the sketch packages are built on.
//
// Every probabilistic data structure in this repository (Bloom filters,
// Count-Min, HyperLogLog, KMV, AMS, ...) needs one or more of:
//
//   - a fast 64-bit hash of arbitrary bytes with a seed (Sum64),
//   - a pair of independent 64-bit hashes for Kirsch–Mitzenmacher double
//     hashing (Sum128),
//   - a family of k derived hash values (DoubleHash),
//   - a 4-universal family with provable moment bounds for AMS-style
//     sketches (Tabulation).
//
// The implementation is a from-scratch MurmurHash3 x64/128 variant plus
// splitmix64 finalizers; it depends only on the standard library.
package hashutil

import "encoding/binary"

// Sum64 returns a 64-bit hash of data under the given seed.
func Sum64(data []byte, seed uint64) uint64 {
	h1, _ := Sum128(data, seed)
	return h1
}

// Sum64String is Sum64 for strings without forcing the caller to convert.
func Sum64String(s string, seed uint64) uint64 {
	// The conversion copies, which is acceptable at the call rates of the
	// sketches in this repo; hot paths pre-hash once and reuse the value.
	return Sum64([]byte(s), seed)
}

// Sum64Uint64 hashes a fixed-width integer key. It uses the splitmix64
// finalizer, which is a bijection, xor-folded with the seed.
func Sum64Uint64(x, seed uint64) uint64 {
	return Mix64(x ^ (seed * 0x9e3779b97f4a7c15))
}

// Mix64 is the splitmix64 finalizer: a fast bijective mixer with full
// avalanche, suitable for integer keys and for deriving seed streams.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func rotl64(x uint64, r uint) uint64 { return (x << r) | (x >> (64 - r)) }

// Sum128 returns two 64-bit hash values of data under the given seed,
// following the MurmurHash3 x64/128 construction. The two halves are
// close enough to independent for double hashing (Kirsch–Mitzenmacher).
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	h1 := seed
	h2 := seed
	n := len(data)

	// Body: 16-byte blocks.
	for len(data) >= 16 {
		k1 := binary.LittleEndian.Uint64(data[0:8])
		k2 := binary.LittleEndian.Uint64(data[8:16])
		data = data[16:]

		k1 *= c1
		k1 = rotl64(k1, 31)
		k1 *= c2
		h1 ^= k1
		h1 = rotl64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2
		k2 = rotl64(k2, 33)
		k2 *= c1
		h2 ^= k2
		h2 = rotl64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// Tail.
	var k1, k2 uint64
	switch len(data) {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		k2 *= c2
		k2 = rotl64(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		k1 *= c1
		k1 = rotl64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// DoubleHash derives the i-th hash value from a (h1, h2) pair using the
// Kirsch–Mitzenmacher construction g_i(x) = h1 + i*h2 + i^2 ("less hashing,
// same performance"). The quadratic term avoids degenerate cycles when h2
// is small relative to the table size.
func DoubleHash(h1, h2 uint64, i uint) uint64 {
	ii := uint64(i)
	return h1 + ii*h2 + ii*ii
}

// Family is a deterministic family of seeded hash functions derived from a
// base seed. Row i of a Count-Min sketch uses Family.Seed(i); recreating a
// Family with the same base seed recreates identical functions, which is
// what makes sketches mergeable across processes.
type Family struct {
	base uint64
}

// NewFamily returns a hash family derived from base.
func NewFamily(base uint64) Family { return Family{base: base} }

// Seed returns the i-th derived seed.
func (f Family) Seed(i int) uint64 { return Mix64(f.base + uint64(i)*0x9e3779b97f4a7c15) }

// Hash hashes data with the i-th function of the family.
func (f Family) Hash(data []byte, i int) uint64 { return Sum64(data, f.Seed(i)) }

// HashUint64 hashes a 64-bit key with the i-th function of the family.
func (f Family) HashUint64(x uint64, i int) uint64 { return Sum64Uint64(x, f.Seed(i)) }
