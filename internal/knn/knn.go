// Package knn provides the nearest-neighbor machinery behind the
// KSG-family mutual information estimators: exact all-points k-NN
// distances under the Chebyshev (L∞ / max) norm from a grid cut at the
// marginal quantiles (Grid2D), and sorted-array utilities for 1-D
// interval counting.
//
// All KSG variants measure joint-space distances with the max norm, so
// that is the only metric implemented; marginal counts reduce to 1-D
// interval counting on sorted copies of each coordinate.
//
// The grid keeps "the k nearest so far" in a k-best list (offer) and
// prunes against its k-th entry: a distance involving a NaN coordinate
// (NaN) or an infinite one (NaN or +Inf) is never among the k best, and
// a query with fewer than k finite distances reads +Inf.
//
// Grid2D rebuilds in place, its sorted marginals (Sorted1D) with it, so
// a caller that estimates MI over many samples (the ranking hot path)
// can reuse one grid's backing arrays across samples instead of
// reallocating them per estimate.
package knn

import (
	"math"
	"slices"
	"sync"
)

// Point is a point in the joint (x, y) space.
type Point struct {
	X, Y float64
}

// Chebyshev returns the L∞ distance between two points: NaN when a
// coordinate of either is NaN. math.Abs compiles to a sign-bit mask;
// spelled as a branch it would mispredict half the time on random data.
func Chebyshev(a, b Point) float64 {
	return max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y))
}

// A k-best list holds the k smallest distances offered so far in
// descending order: best[0] is the k-th smallest, and +Inf until k
// distances have been offered, so it is the bound a search prunes
// against. A NaN distance fails d < best[0] and is never admitted.

// resetBest empties a k-best list.
func resetBest(best []float64) {
	for i := range best {
		best[i] = math.Inf(1)
	}
}

// offer admits d, which the caller has checked is below best[0],
// dropping the largest entry.
func offer(best []float64, d float64) {
	j := 1
	for j < len(best) && d < best[j] {
		best[j-1] = best[j]
		j++
	}
	best[j-1] = d
}

// Sorted1D supports 1-D interval-count queries over a fixed multiset of
// values, backed by a sorted copy (NaN first) that a Grid2D reset fills.
type Sorted1D struct {
	vals []float64
}

// Values returns the multiset in ascending order, NaN first: the slice
// RangeCountStrict and RangeCountTies read. It is valid until the grid
// holding it is reset.
func (s *Sorted1D) Values() []float64 {
	return s.vals
}

// signBit masks the IEEE-754 sign.
const signBit = 1 << 63

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order
// matches the float order (negatives have their bits flipped, positives
// their sign set), so float sorting reduces to integer sorting. −0 maps
// as +0, so the two are equal values, as they compare. No non-NaN value
// maps to 0.
func floatKey(v float64) uint64 {
	if v == 0 {
		return signBit
	}
	b := math.Float64bits(v)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// radixOrder is the reusable state of an ascending index sort.
type radixOrder struct {
	keys       []uint64
	order, tmp []int32
}

// sort returns the indices of vals by ascending value, NaN first and
// equal values (−0 and +0 among them) by index: a least-significant-digit
// radix sort of the values' floatKeys (NaN's is 0), one byte a pass,
// skipping each byte that every key has alike. It is valid until the
// next sort.
func (r *radixOrder) sort(vals []float64) []int32 {
	n := len(vals)
	keys, order, tmp := sized(&r.keys, n), sized(&r.order, n), sized(&r.tmp, n)
	var some, every uint64 = 0, ^uint64(0) // the bits some key has, every key has
	for i, v := range vals {
		var k uint64
		if v == v {
			k = floatKey(v)
		}
		keys[i], order[i] = k, int32(i)
		some, every = some|k, every&k
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte((some^every)>>shift) == 0 {
			continue
		}
		var c [256]int32
		for _, k := range keys {
			c[byte(k>>shift)]++
		}
		sum := int32(0)
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for _, i := range order {
			d := byte(keys[i] >> shift)
			tmp[c[d]] = i
			c[d]++
		}
		order, tmp = tmp, order
	}
	r.order, r.tmp = order, tmp
	return order
}

// orders recycles Order's sort state.
var orders = sync.Pool{New: func() any { return new(radixOrder) }}

// Order returns, in a new slice, the indices of vals by ascending value,
// NaN first and equal values (−0 and +0 among them) by index: the order
// a Grid2D reset sorts each axis into.
func Order(vals []float64) []int32 {
	r := orders.Get().(*radixOrder)
	out := slices.Clone(r.sort(vals))
	orders.Put(r)
	return out
}

// searchGE returns the smallest index i with vals[i] >= x (len(vals) if
// none) — sort.SearchFloat64s without the per-probe closure call. The
// single-sided "base advance" form compiles to a conditional move, so
// the probe sequence runs without the data-dependent branch mispredicts
// of the classic lo/hi bisection.
func searchGE(vals []float64, x float64) int {
	base := 0
	for n := len(vals); n > 1; {
		half := n >> 1
		if vals[base+half-1] < x {
			base += half
		}
		n -= half
	}
	if base < len(vals) && vals[base] < x {
		base++
	}
	return base
}

// searchGT returns the smallest index i with vals[i] > x (len(vals) if
// none).
func searchGT(vals []float64, x float64) int {
	base := 0
	for n := len(vals); n > 1; {
		half := n >> 1
		if vals[base+half-1] <= x {
			base += half
		}
		n -= half
	}
	if base < len(vals) && vals[base] <= x {
		base++
	}
	return base
}

// CountWithin returns |{v : |v − x| ≤ r}| minus excludeSelf occurrences of
// the query value itself (pass 1 when x is a member of the multiset and
// should not count itself, 0 otherwise).
func (s *Sorted1D) CountWithin(x, r float64, excludeSelf int) int {
	lo := searchGE(s.vals, x-r)
	hi := searchGT(s.vals, x+r)
	c := hi - lo - excludeSelf
	if c < 0 {
		c = 0
	}
	return c
}

// CountStrictlyWithin returns |{v : |v − x| < r}|, minus excludeSelf.
func (s *Sorted1D) CountStrictlyWithin(x, r float64, excludeSelf int) int {
	lo := searchGT(s.vals, x-r)
	hi := searchGE(s.vals, x+r)
	c := hi - lo - excludeSelf
	if c < 0 {
		c = 0
	}
	return c
}

// rankScanCap bounds the linear boundary scans below: a scan looks at
// the value rankScanCap places out first, and when the boundary lies
// beyond it — a long run of ties, a wide radius — a binary search of
// the rest finds it, so no query costs more than O(log n) past the cap.
const rankScanCap = 48

// RangeCountStrict returns |{v ∈ sorted : |v − sorted[rank]| < r}| − 1
// (the value's own occurrence excluded), floored at 0, over NaN-free
// sorted values. Knowing the query's rank lets the boundaries be found
// by short, branch-predictable walks outward — the interval around a
// k-NN radius typically spans a few dozen values — rather than two full
// binary searches. The walks start inside (x − r, x + r); an r that
// does not widen x both ways — 0, one too small to move x, or +Inf with
// an infinite x — searches the whole array instead. Results are
// identical to CountStrictlyWithin on the same multiset.
func RangeCountStrict(sorted []float64, rank int, r float64) int {
	x := sorted[rank]
	xm, xp := x-r, x+r
	if !(xm < x && x < xp) {
		return max(searchGE(sorted, xp)-searchGT(sorted, xm)-1, 0)
	}
	lo, hi := rank, rank
	if stop := max(rank-rankScanCap, 0); stop > 0 && sorted[stop-1] > xm {
		lo = searchGT(sorted[:stop], xm)
	} else {
		for lo > stop && sorted[lo-1] > xm {
			lo--
		}
	}
	if stop := min(rank+rankScanCap, len(sorted)); stop < len(sorted) && sorted[stop] < xp {
		hi = stop + searchGE(sorted[stop:], xp)
	} else {
		for hi < stop && sorted[hi] < xp {
			hi++
		}
	}
	return hi - lo - 1
}

// RangeCountTies returns the number of occurrences of sorted[rank],
// including itself — RangeCountStrict's zero-radius companion.
func RangeCountTies(sorted []float64, rank int) int {
	x := sorted[rank]
	lo, hi := rank, rank+1
	if stop := max(rank-rankScanCap, 0); stop > 0 && sorted[stop-1] == x {
		lo = searchGE(sorted[:stop], x)
	} else {
		for lo > stop && sorted[lo-1] == x {
			lo--
		}
	}
	if stop := min(rank+1+rankScanCap, len(sorted)); stop < len(sorted) && sorted[stop] == x {
		hi = stop + searchGT(sorted[stop:], x)
	} else {
		for hi < stop && sorted[hi] == x {
			hi++
		}
	}
	return hi - lo
}
