package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Build constructs a kd-tree over pts. The input slice is not modified.
func Build(pts []Point) *Tree {
	t := &Tree{}
	t.Reset(pts)
	return t
}

// NewSorted1D builds the structure from vals (input not modified).
func NewSorted1D(vals []float64) *Sorted1D {
	s := &Sorted1D{}
	s.Reset(vals)
	return s
}

// bruteDists returns the L∞ distances from q to every point but selfIdx
// in ascending order, NaN distances left out.
func bruteDists(pts []Point, q Point, selfIdx int) []float64 {
	var ds []float64
	for i, p := range pts {
		if d := max(math.Abs(q.X-p.X), math.Abs(q.Y-p.Y)); i != selfIdx && d == d {
			ds = append(ds, d)
		}
	}
	sort.Float64s(ds)
	return ds
}

// bruteKNNDist is the O(n log n) reference for Tree.KNNDist and
// Grid2D.AllKNNDist: the k-th smallest distance bruteDists returns, +Inf
// if it returns fewer than k.
func bruteKNNDist(pts []Point, q Point, k, selfIdx int) float64 {
	if ds := bruteDists(pts, q, selfIdx); k <= len(ds) {
		return ds[k-1]
	}
	return math.Inf(1)
}

// bruteCountWithin is the O(n) reference for Tree.CountWithin.
func bruteCountWithin(pts []Point, q Point, r float64, selfIdx int) int {
	c := 0
	for i, p := range pts {
		if i == selfIdx {
			continue
		}
		if Chebyshev(q, p) <= r {
			c++
		}
	}
	return c
}

func randomPoints(rng *rand.Rand, n int, discrete bool) []Point {
	pts := make([]Point, n)
	for i := range pts {
		if discrete {
			// Heavy ties: small integer grid, the hard case for kd-trees.
			pts[i] = Point{X: float64(rng.Intn(5)), Y: float64(rng.Intn(5))}
		} else {
			pts[i] = Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		}
	}
	return pts
}

func TestChebyshev(t *testing.T) {
	if Chebyshev(Point{0, 0}, Point{3, -4}) != 4 {
		t.Error("Chebyshev wrong")
	}
	if Chebyshev(Point{1, 1}, Point{1, 1}) != 0 {
		t.Error("identical points should have distance 0")
	}
	for _, p := range []Point{{math.NaN(), 0}, {0, math.NaN()}} {
		if d := Chebyshev(Point{1, 5}, p); !math.IsNaN(d) {
			t.Errorf("Chebyshev to %v = %v, want NaN", p, d)
		}
	}
}

func TestKNNDistMatchesBruteForce(t *testing.T) {
	// The case list TestGrid2DMatchesBruteForce holds the grid to.
	var tree Tree
	eachKNNCase(t, func(name string, xs, ys []float64, k int, want map[int]float64) {
		pts := points(xs, ys)
		tree.Reset(pts)
		for i, w := range want {
			if got := tree.KNNDist(pts[i], k, i); got != w {
				t.Fatalf("%s n=%d k=%d: KNNDist(%d) = %v, want %v", name, len(pts), k, i, got, w)
			}
		}
	})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		discrete := trial%2 == 0
		n := 20 + rng.Intn(200)
		pts := randomPoints(rng, n, discrete)
		tree := Build(pts)
		for qi := 0; qi < 20; qi++ {
			i := rng.Intn(n)
			k := 1 + rng.Intn(5)
			got := tree.KNNDist(pts[i], k, i)
			want := bruteKNNDist(pts, pts[i], k, i)
			if got != want {
				t.Fatalf("trial %d: KNNDist(i=%d,k=%d) = %v, want %v (discrete=%v)",
					trial, i, k, got, want, discrete)
			}
		}
	}
}

func TestKNNDistIncludeAll(t *testing.T) {
	// selfIdx = -1 includes the query's own point: distance to 1-NN of a
	// member point is then 0.
	pts := []Point{{1, 1}, {2, 2}, {3, 3}}
	tree := Build(pts)
	if d := tree.KNNDist(Point{2, 2}, 1, -1); d != 0 {
		t.Errorf("got %v, want 0", d)
	}
}

func TestKNNPanicsWhenTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Build([]Point{{0, 0}, {1, 1}}).KNNDist(Point{0, 0}, 5, -1)
}

func TestCountWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		discrete := trial%2 == 0
		n := 20 + rng.Intn(200)
		pts := randomPoints(rng, n, discrete)
		tree := Build(pts)
		for qi := 0; qi < 20; qi++ {
			i := rng.Intn(n)
			r := rng.Float64() * 2
			got := tree.CountWithin(pts[i], r, i)
			want := bruteCountWithin(pts, pts[i], r, i)
			if got != want {
				t.Fatalf("trial %d: CountWithin(i=%d,r=%v) = %d, want %d",
					trial, i, r, got, want)
			}
		}
	}
}

func TestCountWithinZeroRadiusCountsTies(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tree := Build(pts)
	if got := tree.CountWithin(Point{1, 1}, 0, 0); got != 2 {
		t.Errorf("got %d duplicates, want 2", got)
	}
}

func TestTreeProperty(t *testing.T) {
	// Randomized agreement with brute force, via testing/quick.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		pts := randomPoints(rng, n, rng.Intn(2) == 0)
		tree := Build(pts)
		i := rng.Intn(n)
		k := 1 + rng.Intn(3)
		if tree.KNNDist(pts[i], k, i) != bruteKNNDist(pts, pts[i], k, i) {
			return false
		}
		r := rng.Float64()
		return tree.CountWithin(pts[i], r, i) == bruteCountWithin(pts, pts[i], r, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSorted1DCounts(t *testing.T) {
	s := NewSorted1D([]float64{1, 2, 2, 3, 5})
	if got := s.CountWithin(2, 1, 0); got != 4 { // 1,2,2,3
		t.Errorf("CountWithin(2,1) = %d, want 4", got)
	}
	if got := s.CountWithin(2, 1, 1); got != 3 { // excluding one self
		t.Errorf("CountWithin(2,1,excl) = %d, want 3", got)
	}
	if got := s.CountStrictlyWithin(2, 1, 0); got != 2 { // the two 2s
		t.Errorf("CountStrictlyWithin(2,1) = %d, want 2", got)
	}
	if got := s.CountEqual(2); got != 2 {
		t.Errorf("CountEqual(2) = %d, want 2", got)
	}
	if got := s.CountEqual(4); got != 0 {
		t.Errorf("CountEqual(4) = %d, want 0", got)
	}
}

func TestSorted1DKNNDist(t *testing.T) {
	s := NewSorted1D([]float64{0, 1, 3, 6, 10})
	// From 3 (a member, excluded): neighbors at distances 2 (1), 3 (0 and 6), 7 (10).
	if got := s.KNNDist(3, 1, true); got != 2 {
		t.Errorf("1-NN = %v, want 2", got)
	}
	if got := s.KNNDist(3, 2, true); got != 3 {
		t.Errorf("2-NN = %v, want 3", got)
	}
	if got := s.KNNDist(3, 4, true); got != 7 {
		t.Errorf("4-NN = %v, want 7", got)
	}
	// From a non-member without exclusion.
	if got := s.KNNDist(4, 1, false); got != 1 {
		t.Errorf("1-NN from 4 = %v, want 1 (value 3)", got)
	}
}

func TestSorted1DKNNDistWithTies(t *testing.T) {
	s := NewSorted1D([]float64{2, 2, 2, 5})
	// From 2, excluding one self occurrence: two other 2s at distance 0.
	if got := s.KNNDist(2, 1, true); got != 0 {
		t.Errorf("1-NN = %v, want 0", got)
	}
	if got := s.KNNDist(2, 2, true); got != 0 {
		t.Errorf("2-NN = %v, want 0", got)
	}
	if got := s.KNNDist(2, 3, true); got != 3 {
		t.Errorf("3-NN = %v, want 3", got)
	}
}

func TestSorted1DKNNMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(10)) // ties likely
		}
		s := NewSorted1D(vals)
		i := rng.Intn(n)
		k := 1 + rng.Intn(n-1)
		got := s.KNNDist(vals[i], k, true)
		// Brute force.
		var ds []float64
		skipped := false
		for j, v := range vals {
			if j != i {
				ds = append(ds, math.Abs(v-vals[i]))
			} else {
				skipped = true
			}
		}
		_ = skipped
		sort.Float64s(ds)
		return got == ds[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSorted1DPanicsTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSorted1D([]float64{1}).KNNDist(1, 1, true)
}

func BenchmarkTreeBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

func BenchmarkTreeKNN10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 10000, false)
	tree := Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNNDist(pts[i%len(pts)], 3, i%len(pts))
	}
}

// FuzzKNN holds both neighbor structures to the brute force on every
// point of a fuzzed point set: two bytes a point, each an int8
// coordinate scaled by 2^(8·ex) (x) or 2^(8·ey) (y), −128 reading NaN,
// so ties, extreme and tiny axis ranges and NaN points all occur.
func FuzzKNN(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(2), int8(0), int8(0))
	f.Add([]byte{0x80, 1, 2, 0x80, 3, 3, 3, 3, 9, 9, 0, 0}, uint8(1), int8(-100), int8(120))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 1, 0x80, 7, 2, 7, 2, 0, 9, 4, 4}, uint8(3), int8(-127), int8(-126))
	// NaN x values at split positions: a tree built over them prunes
	// the finite neighbors behind a NaN plane.
	f.Add([]byte("0\x800\x030\x030\x800  00 0 0\x00"), uint8(0), int8(-100), int8(120))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8, ex, ey int8) {
		n := min(len(data)/2, 512)
		k := 1 + int(kb)%70
		if n < k+1 {
			return
		}
		coord := func(b byte, e int8) float64 {
			if b == 0x80 {
				return math.NaN()
			}
			return math.Ldexp(float64(int8(b)), 8*int(e))
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = coord(data[2*i], ex), coord(data[2*i+1], ey)
		}
		pts := points(xs, ys)
		var g Grid2D
		g.Reset(xs, ys)
		out := make([]float64, n)
		g.AllKNNDist(k, out)
		tree := Build(pts)
		for i, p := range pts {
			want := bruteKNNDist(pts, p, k, i)
			if out[i] != want {
				t.Fatalf("n=%d k=%d: AllKNNDist[%d] = %v, want %v", n, k, i, out[i], want)
			}
			if got := tree.KNNDist(p, k, i); got != want {
				t.Fatalf("n=%d k=%d: KNNDist(%d) = %v, want %v", n, k, i, got, want)
			}
		}
	})
}
