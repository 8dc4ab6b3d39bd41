// Package hash provides the hashing primitives used by the sketching
// algorithms: a collision-resistant hash h that maps arbitrary byte strings
// to integers (MurmurHash3, 32-bit), and a uniform hash hu that maps
// integers to the unit interval [0, 1) (Fibonacci hashing).
//
// The sketches coordinate samples across tables by hashing join-key values
// with a shared seed: if two tables contain the same key k, both compute the
// same hu(h(k)) and therefore make the same inclusion decision. TUPSK
// additionally hashes the pair ⟨k, j⟩, where j is the occurrence index of k
// within its table, so that individual rows (rather than distinct keys)
// form the sampling frame.
package hash

// DefaultSeed is the seed used by sketches unless the caller overrides it.
// Sketches built with different seeds cannot be meaningfully joined.
const DefaultSeed uint32 = 0x9747b28c

// Murmur3 computes the 32-bit MurmurHash3 of data with the given seed.
// It implements the x86_32 variant of the public-domain reference
// algorithm by Austin Appleby.
func Murmur3(data []byte, seed uint32) uint32 {
	const (
		c1 = 0xcc9e2d51
		c2 = 0x1b873593
	)
	h := seed
	n := len(data)
	// Body: process 4-byte blocks.
	i := 0
	for ; i+4 <= n; i += 4 {
		k := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
		h = h<<13 | h>>19
		h = h*5 + 0xe6546b64
	}
	// Tail: up to 3 remaining bytes.
	var k uint32
	switch n & 3 {
	case 3:
		k ^= uint32(data[i+2]) << 16
		fallthrough
	case 2:
		k ^= uint32(data[i+1]) << 8
		fallthrough
	case 1:
		k ^= uint32(data[i])
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
	}
	// Finalization mix.
	h ^= uint32(n)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Murmur3String is Murmur3 applied to the bytes of s without copying
// semantics the caller needs to care about.
func Murmur3String(s string, seed uint32) uint32 {
	return Murmur3([]byte(s), seed)
}

// fibMult is 2^64 / φ rounded to odd, the multiplier for Fibonacci hashing
// (Knuth, TAOCP vol. 3, §6.4).
const fibMult = 11400714819323198485

// Unit maps a 64-bit integer to the unit interval [0, 1) using Fibonacci
// hashing. The multiplication by 2^64/φ scrambles the input so that
// consecutive integers land far apart; dividing by 2^64 yields a value
// distributed uniformly over [0, 1) for uniformly distributed input.
func Unit(x uint64) float64 {
	return float64(x*fibMult) / (1 << 64)
}

// Unit32 maps a 32-bit hash to [0, 1) via Unit.
func Unit32(x uint32) float64 {
	return Unit(uint64(x))
}

// Key hashes a join-key value (as a string) to its 32-bit identity h(k).
func Key(k string, seed uint32) uint32 {
	return Murmur3String(k, seed)
}

// TupleHash computes the 32-bit hash of the pair ⟨hk, j⟩ where hk = h(k) is
// the hash of a join key and j is the 1-based occurrence index of that key
// within its table. The pair uniquely identifies a row in the left table,
// which gives TUPSK its uniform per-row inclusion probability.
func TupleHash(hk uint32, j uint32, seed uint32) uint32 {
	var buf [8]byte
	buf[0] = byte(hk)
	buf[1] = byte(hk >> 8)
	buf[2] = byte(hk >> 16)
	buf[3] = byte(hk >> 24)
	buf[4] = byte(j)
	buf[5] = byte(j >> 8)
	buf[6] = byte(j >> 16)
	buf[7] = byte(j >> 24)
	return Murmur3(buf[:], seed)
}

// UnitTuple computes hu(⟨k, j⟩) from the key hash and occurrence index.
func UnitTuple(hk uint32, j uint32, seed uint32) float64 {
	return Unit32(TupleHash(hk, j, seed))
}

// Mix64 is SplitMix64's finalizer: a fast, high-quality 64-bit mixer used
// to derive independent sub-seeds from a master seed.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the i-th independent 64-bit seed from master.
func SubSeed(master uint64, i uint64) int64 {
	return int64(Mix64(master ^ Mix64(i)))
}
