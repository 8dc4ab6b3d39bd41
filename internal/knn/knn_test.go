package knn

import (
	"cmp"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// NewSorted1D builds the structure from vals (input not modified).
func NewSorted1D(vals []float64) *Sorted1D {
	s := &Sorted1D{vals: append([]float64(nil), vals...)}
	sort.Float64s(s.vals)
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

// bruteKNNDist is the O(n log n) reference for Grid2D.AllKNNDist: the
// k-th smallest distance bruteDists returns, +Inf if it returns fewer
// than k.
func bruteKNNDist(pts []Point, q Point, k, selfIdx int) float64 {
	if ds := bruteDists(pts, q, selfIdx); k <= len(ds) {
		return ds[k-1]
	}
	return math.Inf(1)
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

// TestKNNPanicsWhenTooFewPoints: AllKNNDist over k or fewer points has
// no k-th neighbour for some point and panics, through either reset.
func TestKNNPanicsWhenTooFewPoints(t *testing.T) {
	xs, ys := []float64{0, 1, 2}, []float64{0, 1, 2}
	order := []int32{0, 1, 2}
	for _, k := range []int{3, 5} {
		for _, ordered := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("k=%d ordered=%v: AllKNNDist over 3 points did not panic", k, ordered)
					}
				}()
				var g Grid2D
				if ordered {
					g.ResetOrdered(xs, ys, order, order)
				} else {
					g.Reset(xs, ys)
				}
				g.AllKNNDist(k, make([]float64, 3))
			}()
		}
	}
	var g Grid2D
	g.Reset(xs, ys)
	out := make([]float64, 3)
	g.AllKNNDist(2, out) // k = n−1 is the largest that answers
	if out[0] != 2 || out[1] != 1 || out[2] != 2 {
		t.Errorf("k=2 over 3 points: %v, want [2 1 2]", out)
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
}

// TestRadixOrderSorts: the radix sort orders every index by ascending
// value, NaN first and equal values (−0 and +0 among them) by index, on
// special values, raw bit patterns and few distinct values, at lengths
// that do and do not fill a byte's buckets, reusing one radixOrder.
func TestRadixOrderSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	var r radixOrder
	for _, n := range []int{0, 1, 2, 7, 256, 1000, 5000} {
		for shape := 0; shape < 3; shape++ {
			vals := make([]float64, n)
			for i := range vals {
				switch shape {
				case 0:
					vals[i] = specials[rng.Intn(len(specials))]
				case 1:
					vals[i] = math.Float64frombits(rng.Uint64())
				default:
					vals[i] = float64(rng.Intn(5))
				}
			}
			order := r.sort(vals)
			if len(order) != n {
				t.Fatalf("n=%d shape %d: %d indices", n, shape, len(order))
			}
			seen := make([]bool, n)
			for p, i := range order {
				if seen[i] {
					t.Fatalf("n=%d shape %d: index %d twice", n, shape, i)
				}
				seen[i] = true
				if p == 0 {
					continue
				}
				a, b := vals[order[p-1]], vals[i]
				// Equal values go by index; −0 and +0 in either order.
				c := cmp.Compare(a, b)
				if c == 0 && math.Signbit(a) == math.Signbit(b) && order[p-1] > i {
					c = 1
				}
				if c > 0 {
					t.Fatalf("n=%d shape %d: %v (index %d) before %v (index %d)", n, shape, a, order[p-1], b, i)
				}
			}
		}
	}
}

// TestRangeCountsMatchSearch: the rank walks count what the binary
// searches do — RangeCountStrict as CountStrictlyWithin with the query
// excluded, RangeCountTies as CountWithin at radius 0 — at every rank,
// for radii of 0, one too small to move large values, ordinary ones
// past rankScanCap, and +Inf, over runs of ties longer than the cap,
// ±Inf and wide magnitudes.
func TestRangeCountsMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(1000)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[i] = float64(rng.Intn(2))
			case 1:
				vals[i] = math.Inf(2*rng.Intn(2) - 1)
			case 2:
				vals[i] = 1e20 * float64(rng.Intn(3))
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		s := NewSorted1D(vals)
		sorted := s.Values()
		for rank, x := range sorted {
			for _, r := range []float64{0, 1e-10, 0.01, 0.5, 3, math.Inf(1)} {
				if got, want := RangeCountStrict(sorted, rank, r), s.CountStrictlyWithin(x, r, 1); got != want {
					t.Fatalf("trial %d: RangeCountStrict(rank %d = %v, r %v) = %d, CountStrictlyWithin %d", trial, rank, x, r, got, want)
				}
			}
			if got, want := RangeCountTies(sorted, rank), s.CountWithin(x, 0, 1)+1; got != want {
				t.Fatalf("trial %d: RangeCountTies(rank %d = %v) = %d, CountWithin %d", trial, rank, x, got, want)
			}
		}
	}
}

// FuzzKNN holds the grid, through both resets, to the brute force on
// every point of a fuzzed point set: two bytes a point, each an int8
// coordinate scaled by 2^(8·ex) (x) or 2^(8·ey) (y), −128 reading NaN,
// 127 +Inf and −127 −Inf, so ties, extreme and tiny axis ranges, NaN
// and infinite points all occur.
func FuzzKNN(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(2), int8(0), int8(0))
	f.Add([]byte{0x80, 1, 2, 0x80, 3, 3, 3, 3, 9, 9, 0, 0}, uint8(1), int8(-100), int8(120))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 1, 0x80, 7, 2, 7, 2, 0, 9, 4, 4}, uint8(3), int8(-127), int8(-126))
	// NaN x values among finite ones: slab bounds must ignore them.
	f.Add([]byte("0\x800\x030\x030\x800  00 0 0\x00"), uint8(0), int8(-100), int8(120))
	// ±Inf values in the edge slabs beside finite ones.
	f.Add([]byte{0x7f, 1, 2, 0x81, 3, 3, 0x81, 0x7f, 9, 9, 0x7f, 0x7f, 4, 2, 5, 1}, uint8(0), int8(0), int8(0))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8, ex, ey int8) {
		n := min(len(data)/2, 512)
		k := 1 + int(kb)%70
		if n < k+1 {
			return
		}
		coord := func(b byte, e int8) float64 {
			switch b {
			case 0x80:
				return math.NaN()
			case 0x7f:
				return math.Inf(1)
			case 0x81:
				return math.Inf(-1)
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
		plain := make([]float64, n)
		g.AllKNNDist(k, plain)
		g.ResetOrdered(xs, ys, ascendingOrder(xs), ascendingOrder(ys))
		ordered := make([]float64, n)
		g.AllKNNDist(k, ordered)
		for i, p := range pts {
			want := bruteKNNDist(pts, p, k, i)
			if plain[i] != want || ordered[i] != want {
				t.Fatalf("n=%d k=%d: AllKNNDist[%d] = %v after Reset, %v after ResetOrdered, want %v",
					n, k, i, plain[i], ordered[i], want)
			}
		}
	})
}
