// Package knn provides the nearest-neighbor machinery behind the
// KSG-family mutual information estimators: exact all-points k-NN
// distances under the Chebyshev (L∞ / max) norm from a uniform grid
// (Grid2D) or a 2-D kd-tree (Tree), and sorted-array utilities for 1-D
// neighbor distances and range counting.
//
// All KSG variants measure joint-space distances with the max norm, so
// that is the only metric implemented; marginal counts reduce to 1-D
// interval counting on sorted copies of each coordinate.
//
// Both 2-D structures keep "the k nearest so far" in one k-best list
// (offer) and prune against its k-th entry, so they return the same
// distances on every input, NaN included: a distance involving a NaN
// coordinate is never among the k best, and a query with fewer than k
// non-NaN distances reads +Inf.
//
// Tree, Grid2D and Sorted1D rebuild in place via Reset, so a caller
// that estimates MI over many samples (the ranking hot path) can reuse
// one structure's backing arrays across samples instead of reallocating
// them per estimate.
package knn

import (
	"math"
	"slices"
	"sort"
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

// leafSize is the bucket size below which subtrees are left unsplit and
// queries fall back to a linear scan. Scanning a handful of contiguous
// points is faster than descending pointer-free but branchy tree levels,
// so buckets beat single-point leaves on every query type.
const leafSize = 8

// treeMaxDepth bounds the explicit traversal stacks. Every split puts the
// median at the midpoint, so subtree spans halve per level and the depth
// of a tree over n points is at most log2(n) + 1 ≪ 64.
const treeMaxDepth = 64

// Tree is a 2-D kd-tree over a fixed point set: an implicit median
// layout (the splitting point of pts[lo:hi] sits at (lo+hi)/2) with
// bucket leaves of at most leafSize points. Queries exclude or include
// the query point itself purely by index bookkeeping, so duplicate
// coordinates are handled exactly (important for mixed
// discrete-continuous data, where ties are the norm rather than the
// exception). A point with a NaN coordinate is no query's neighbor, so
// it is left out of the tree: it would break the median layout that
// pruning relies on.
//
// A Tree's query methods share internal scratch space: queries on one
// Tree must not run concurrently. Keep one Tree per goroutine (or per
// mi.Scratch) for parallel estimation.
type Tree struct {
	n    int     // points Reset was given, NaN ones included
	pts  []Point // the points without a NaN coordinate, in tree order
	idx  []int32 // original index of pts[i]
	axis []byte  // split axis per internal node (0 = X, 1 = Y)

	best  []float64                 // reusable k-best list
	stack [treeMaxDepth]searchFrame // reusable traversal stack
}

// Reset builds the tree in place over a new point set, reusing the
// existing backing arrays when they are large enough. The input slice is
// not modified. A Reset tree is indistinguishable from a fresh one Reset
// over the same points.
func (t *Tree) Reset(pts []Point) {
	t.n = len(pts)
	t.pts, t.idx = t.pts[:0], t.idx[:0]
	for i, p := range pts {
		if p.X == p.X && p.Y == p.Y {
			t.pts = append(t.pts, p)
			t.idx = append(t.idx, int32(i))
		}
	}
	n := len(t.pts)
	if cap(t.axis) < n {
		t.axis = make([]byte, n)
	} else {
		t.axis = t.axis[:n]
	}
	if n > leafSize {
		t.build(0, n)
	}
}

// build arranges pts[lo:hi] into kd-tree order: the median element sits
// at the midpoint, smaller elements (on the split axis) before it,
// larger after; spans of at most leafSize points stay unsplit as bucket
// leaves. The axis is selected by spread rather than strict alternation,
// which behaves far better on data with heavy ties in one coordinate.
func (t *Tree) build(lo, hi int) {
	ax := t.chooseAxis(lo, hi)
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, ax)
	t.axis[mid] = ax
	if mid-lo > leafSize {
		t.build(lo, mid)
	}
	if hi-(mid+1) > leafSize {
		t.build(mid+1, hi)
	}
}

// chooseAxis picks the coordinate with the larger spread in pts[lo:hi].
func (t *Tree) chooseAxis(lo, hi int) byte {
	p := t.pts[lo]
	minX, maxX := p.X, p.X
	minY, maxY := p.Y, p.Y
	for i := lo + 1; i < hi; i++ {
		p := t.pts[i]
		if p.X < minX {
			minX = p.X
		} else if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxX-minX >= maxY-minY {
		return 0
	}
	return 1
}

func (t *Tree) coord(i int, ax byte) float64 {
	if ax == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// nthElement partially sorts pts[lo:hi] so the element at position k is
// the one that would be there in full sorted order on axis ax
// (introselect via repeated partitioning with median-of-three pivots).
func (t *Tree) nthElement(lo, hi, k int, ax byte) {
	for hi-lo > 1 {
		p := t.medianOfThree(lo, hi, ax)
		i, j := lo, hi-1
		for i <= j {
			for t.coord(i, ax) < p {
				i++
			}
			for t.coord(j, ax) > p {
				j--
			}
			if i <= j {
				t.swap(i, j)
				i++
				j--
			}
		}
		if k <= j {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

func (t *Tree) medianOfThree(lo, hi int, ax byte) float64 {
	a := t.coord(lo, ax)
	b := t.coord((lo+hi)/2, ax)
	c := t.coord(hi-1, ax)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func (t *Tree) swap(i, j int) {
	t.pts[i], t.pts[j] = t.pts[j], t.pts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// searchFrame is one deferred far subtree on a query's traversal stack,
// with the splitting-plane distance that decides whether it can prune.
type searchFrame struct {
	lo, hi int32
	plane  float64
}

// KNNDist returns the L∞ distance from q to its k-th nearest neighbor in
// the tree, excluding the point whose original index is selfIdx (pass −1
// to include every point); +Inf if fewer than k points are at a non-NaN
// distance. It panics if fewer than k points are eligible.
func (t *Tree) KNNDist(q Point, k int, selfIdx int) float64 {
	eligible := t.n
	if uint(selfIdx) < uint(t.n) {
		eligible--
	}
	if eligible < k {
		panic("knn: not enough points for k-NN query")
	}
	if cap(t.best) < k {
		t.best = make([]float64, k)
	}
	best := t.best[:k]
	resetBest(best)
	t.searchKNN(q, int32(selfIdx), best)
	return best[0]
}

// searchKNN is an iterative depth-first k-NN search: it descends the near
// side of every split, stacks the far side with its plane distance, scans
// bucket leaves linearly, and revisits a stacked subtree only while its
// splitting plane is at most the current k-th best distance.
func (t *Tree) searchKNN(q Point, selfIdx int32, best []float64) {
	stack := &t.stack
	sp := 0
	lo, hi := 0, len(t.pts)
	for {
		for hi-lo > leafSize {
			mid := (lo + hi) / 2
			p := t.pts[mid]
			if t.idx[mid] != selfIdx {
				if d := Chebyshev(q, p); d < best[0] {
					offer(best, d)
				}
			}
			var plane float64
			if t.axis[mid] == 0 {
				plane = q.X - p.X
			} else {
				plane = q.Y - p.Y
			}
			if plane <= 0 {
				stack[sp] = searchFrame{int32(mid + 1), int32(hi), -plane}
				sp++
				hi = mid
			} else {
				stack[sp] = searchFrame{int32(lo), int32(mid), plane}
				sp++
				lo = mid + 1
			}
		}
		for i := lo; i < hi; i++ {
			if t.idx[i] == selfIdx {
				continue
			}
			p := t.pts[i]
			if d := Chebyshev(q, p); d < best[0] {
				offer(best, d)
			}
		}
		for {
			if sp == 0 {
				return
			}
			sp--
			f := stack[sp]
			if f.plane <= best[0] {
				lo, hi = int(f.lo), int(f.hi)
				break
			}
		}
	}
}

// CountWithin returns the number of tree points p with Chebyshev(q, p) ≤ r,
// excluding original index selfIdx (−1 to include all).
func (t *Tree) CountWithin(q Point, r float64, selfIdx int) int {
	if len(t.pts) == 0 {
		return 0
	}
	self := int32(selfIdx)
	count := 0
	var stack [treeMaxDepth]int64
	sp := 0
	lo, hi := 0, len(t.pts)
	for {
		for hi-lo > leafSize {
			mid := (lo + hi) / 2
			p := t.pts[mid]
			if t.idx[mid] != self && Chebyshev(q, p) <= r {
				count++
			}
			var qc, mc float64
			if t.axis[mid] == 0 {
				qc, mc = q.X, p.X
			} else {
				qc, mc = q.Y, p.Y
			}
			// At least one side always intersects the query slab
			// [qc−r, qc+r]: it cannot lie strictly left and strictly
			// right of the plane at once.
			if qc-r <= mc {
				if qc+r >= mc {
					stack[sp] = int64(mid+1)<<32 | int64(int32(hi))
					sp++
				}
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for i := lo; i < hi; i++ {
			if t.idx[i] == self {
				continue
			}
			p := t.pts[i]
			if Chebyshev(q, p) <= r {
				count++
			}
		}
		if sp == 0 {
			return count
		}
		sp--
		f := stack[sp]
		lo, hi = int(f>>32), int(int32(f))
	}
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

// Sorted1D supports 1-D neighbor and interval-count queries over a fixed
// multiset of values, backed by a sorted copy.
type Sorted1D struct {
	vals []float64
	keys []uint64 // scratch for the key-transform sort
}

// Reset builds the structure in place over a new value multiset,
// reusing the sorted backing array when it is large enough. The input
// slice is not modified.
func (s *Sorted1D) Reset(vals []float64) {
	s.vals = append(s.vals[:0], vals...)
	s.keys = sortFloats(s.vals, s.keys)
}

// signBit masks the IEEE-754 sign.
const signBit = 1 << 63

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order
// matches the float order (negatives have their bits flipped, positives
// their sign set), so float sorting reduces to integer sorting.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// sortFloats sorts vals ascending via order-preserving uint64 keys —
// roughly twice the speed of sort.Float64s, whose comparator pays for
// NaN ordering on every comparison. Inputs containing NaN fall back to
// sort.Float64s (NaNs first), keeping its contract. keys is a reusable
// scratch buffer, returned for the caller to retain.
func sortFloats(vals []float64, keys []uint64) []uint64 {
	n := len(vals)
	if cap(keys) < n {
		keys = make([]uint64, n)
	} else {
		keys = keys[:n]
	}
	for i, v := range vals {
		if v != v { // NaN
			sort.Float64s(vals)
			return keys
		}
		keys[i] = floatKey(v)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if k&signBit != 0 {
			k &^= signBit
		} else {
			k = ^k
		}
		vals[i] = math.Float64frombits(k)
	}
	return keys
}

// SortedView wraps an already-ascending slice without copying it, for
// callers that manage their own sorted buffers (e.g. per-class sections
// of one backing array). The slice must stay sorted and unmodified while
// the view is queried.
func SortedView(sorted []float64) Sorted1D {
	return Sorted1D{vals: sorted}
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

// CountEqual returns the number of occurrences of x.
func (s *Sorted1D) CountEqual(x float64) int {
	lo := searchGE(s.vals, x)
	hi := searchGT(s.vals, x)
	return hi - lo
}

// rankScanCap bounds the linear boundary scans below before they fall
// back to binary search, so pathological radii stay O(log n) instead of
// O(n) per query.
const rankScanCap = 48

// RangeCountStrict returns |{v ∈ sorted : |v − sorted[rank]| < r}| − 1
// (the value's own occurrence excluded), for r > 0. Knowing the query's
// rank lets the boundaries be found by short, branch-predictable walks
// outward — the interval around a k-NN radius typically spans a few
// dozen values — rather than two full binary searches; past rankScanCap
// steps a binary search on the remainder finishes the job. Results are
// identical to CountStrictlyWithin on the same multiset.
func RangeCountStrict(sorted []float64, rank int, r float64) int {
	x := sorted[rank]
	xm := x - r
	lo := rank
	stop := rank - rankScanCap
	if stop < 0 {
		stop = 0
	}
	for lo > stop && sorted[lo-1] > xm {
		lo--
	}
	if lo == stop && lo > 0 && sorted[lo-1] > xm {
		lo = searchGT(sorted[:lo], xm)
	}
	xp := x + r
	n := len(sorted)
	hi := rank
	stop = rank + rankScanCap
	if stop > n {
		stop = n
	}
	for hi < stop && sorted[hi] < xp {
		hi++
	}
	if hi == stop && hi < n && sorted[hi] < xp {
		hi += searchGE(sorted[hi:], xp)
	}
	return hi - lo - 1
}

// RangeCountTies returns the number of occurrences of sorted[rank],
// including itself — RangeCountStrict's zero-radius companion.
func RangeCountTies(sorted []float64, rank int) int {
	x := sorted[rank]
	lo := rank
	stop := rank - rankScanCap
	if stop < 0 {
		stop = 0
	}
	for lo > stop && sorted[lo-1] == x {
		lo--
	}
	if lo == stop && lo > 0 && sorted[lo-1] == x {
		lo = searchGE(sorted[:lo], x)
	}
	n := len(sorted)
	hi := rank + 1
	stop = rank + 1 + rankScanCap
	if stop > n {
		stop = n
	}
	for hi < stop && sorted[hi] == x {
		hi++
	}
	if hi == stop && hi < n && sorted[hi] == x {
		hi += searchGT(sorted[hi:], x)
	}
	return hi - lo
}

// KNNDist returns the distance from x to its k-th nearest neighbor among
// the stored values, excluding one occurrence of x itself when
// excludeSelf is true. Implemented by expanding a window around the
// insertion position of x.
func (s *Sorted1D) KNNDist(x float64, k int, excludeSelf bool) float64 {
	n := len(s.vals)
	pos := searchGE(s.vals, x)
	lo, hi := pos-1, pos // candidates: vals[lo] below, vals[hi] at/above
	skipped := false
	best := math.NaN()
	for found := 0; found < k; found++ {
		for {
			var dLo, dHi float64 = math.Inf(1), math.Inf(1)
			if lo >= 0 {
				dLo = x - s.vals[lo]
			}
			if hi < n {
				dHi = s.vals[hi] - x
			}
			if math.IsInf(dLo, 1) && math.IsInf(dHi, 1) {
				panic("knn: not enough values for 1-D k-NN query")
			}
			if dHi <= dLo {
				if excludeSelf && !skipped && s.vals[hi] == x {
					skipped = true
					hi++
					continue
				}
				best = dHi
				hi++
			} else {
				best = dLo
				lo--
			}
			break
		}
	}
	return best
}

// Len returns the number of stored values.
func (s *Sorted1D) Len() int { return len(s.vals) }
