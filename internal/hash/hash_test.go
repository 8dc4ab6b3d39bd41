package hash

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Reference test vectors for MurmurHash3 x86_32 from the public-domain
// reference implementation (SMHasher) and widely cross-checked ports.
func TestMurmur3Vectors(t *testing.T) {
	cases := []struct {
		data string
		seed uint32
		want uint32
	}{
		{"", 0, 0},
		{"", 1, 0x514e28b7},
		{"", 0xffffffff, 0x81f16f39},
		{"a", 0, 0x3c2569b2},
		{"aa", 0, 0x371091a9}, // regression pins (cross-checked branches below)
		{"aaa", 0, 0xb4d05fb7},
		{"aaaa", 0, 0x7eeed987},
		{"abc", 0, 0xb3dd93fa},
		{"abcd", 0, 0x43ed676a},
		{"hello", 0, 0x248bfa47},
		{"hello, world", 0, 0x149bbb7f},
		{"The quick brown fox jumps over the lazy dog", 0, 0x2e4ff723},
		{"Hello, world!", 0x9747b28c, 0x24884cba},
	}
	for _, c := range cases {
		got := Murmur3String(c.data, c.seed)
		if got != c.want {
			t.Errorf("Murmur3(%q, %#x) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

func TestMurmur3Deterministic(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		return Murmur3(data, seed) == Murmur3(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMurmur3SeedSensitivity(t *testing.T) {
	// Different seeds should essentially always give different hashes on
	// non-trivial input.
	diff := 0
	for seed := uint32(0); seed < 1000; seed++ {
		if Murmur3String("join-key-value", seed) != Murmur3String("join-key-value", seed+1) {
			diff++
		}
	}
	if diff < 995 {
		t.Errorf("only %d/1000 adjacent seeds produced distinct hashes", diff)
	}
}

func TestMurmur3TailLengths(t *testing.T) {
	// Exercise every tail-switch branch; hashes of prefixes must all differ.
	s := "abcdefghijklmnop"
	seen := map[uint32]string{}
	for i := 0; i <= len(s); i++ {
		h := Murmur3String(s[:i], 42)
		if prev, ok := seen[h]; ok {
			t.Errorf("collision between %q and %q", prev, s[:i])
		}
		seen[h] = s[:i]
	}
}

func TestUnitRange(t *testing.T) {
	f := func(x uint64) bool {
		u := Unit(x)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitUniformity(t *testing.T) {
	// Hash sequential integers (the worst case for multiplicative hashing
	// done wrong) and check bucket occupancy is near-uniform.
	const n = 100000
	const buckets = 50
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		u := Unit(uint64(i))
		counts[int(u*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.10*want {
			t.Errorf("bucket %d has %d entries, want about %.0f", b, c, want)
		}
	}
}

func TestUnitKeyUniformity(t *testing.T) {
	// Full pipeline hu(h(k)) over string keys.
	const n = 50000
	const buckets = 20
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		u := Unit32(Key(fmt.Sprintf("key-%d", i), DefaultSeed))
		counts[int(u*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.10*want {
			t.Errorf("bucket %d has %d entries, want about %.0f", b, c, want)
		}
	}
}

func TestTupleHashDistinctOccurrences(t *testing.T) {
	// ⟨k, j⟩ for different j must hash differently (they identify distinct
	// rows), and must differ from the plain key hash domain used for j=1
	// coordination only when j > 1.
	hk := Key("zip-11201", DefaultSeed)
	seen := map[uint32]uint32{}
	for j := uint32(1); j <= 1000; j++ {
		h := TupleHash(hk, j, DefaultSeed)
		if prev, ok := seen[h]; ok {
			t.Fatalf("TupleHash collision between j=%d and j=%d", prev, j)
		}
		seen[h] = j
	}
}

func TestTupleHashCoordination(t *testing.T) {
	// The same ⟨k, j⟩ computed in two different "tables" (i.e., two separate
	// calls) must agree — this is what makes the sampling coordinated.
	f := func(k string, j uint32) bool {
		if j == 0 {
			j = 1
		}
		hk := Key(k, DefaultSeed)
		u := UnitTuple(hk, j, DefaultSeed)
		return TupleHash(hk, j, DefaultSeed) == TupleHash(hk, j, DefaultSeed) && u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMix64Bijective(t *testing.T) {
	// SplitMix64 finalizer is a bijection; sample check for collisions.
	seen := make(map[uint64]bool, 100000)
	for i := uint64(0); i < 100000; i++ {
		m := Mix64(i)
		if seen[m] {
			t.Fatalf("Mix64 collision at input %d", i)
		}
		seen[m] = true
	}
}

func TestSubSeedIndependence(t *testing.T) {
	a := SubSeed(12345, 0)
	b := SubSeed(12345, 1)
	c := SubSeed(54321, 0)
	if a == b || a == c {
		t.Errorf("SubSeed values should differ: %d %d %d", a, b, c)
	}
	if a != SubSeed(12345, 0) {
		t.Error("SubSeed must be deterministic")
	}
}

func BenchmarkMurmur3_16B(b *testing.B) {
	data := []byte("0123456789abcdef")
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Murmur3(data, DefaultSeed)
	}
}

func BenchmarkUnitKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Unit32(Key("some-join-key-value", DefaultSeed))
	}
}
