package knn

import "math"

// Grid2D answers exact k-NN distance queries under the L∞ norm by
// bucketing the points into cells cut at the marginal quantiles: each
// axis is split into slabs holding about equally many points, never
// inside a run of equal values, so a cell's occupancy follows the
// sample's ranks rather than its value range and skewed, clustered or
// heavy-tailed values cost what uniform ones do. A query scans the 3×3
// block of cells around its own, then grows that rectangle one column
// or row at a time — always the side whose next boundary is nearest —
// until the nearest boundary is no nearer than its k-th best. Distances
// are computed exactly — the grid only prunes — and kept in a k-best
// list (offer).
//
// Reset sorts each axis's indices once, by a radix sort; ResetOrdered
// takes the caller's ascending orders. Either way every point's column
// and row come from one walk of each axis's order, with no search, and
// the orders stay available (Orders) for rank-based interval counts. A
// query touches an expected O(k) points on data without extreme
// clustering, independent of how x and y are correlated. A Grid2D is
// not safe for concurrent use.
type Grid2D struct {
	nx, ny int
	x, y   slabs      // the cut of each axis
	sx, sy Sorted1D   // the sample's x and y values, ascending
	xo, yo []int32    // the orders the points were placed by; nil over NaN
	rx, ry radixOrder // Reset's sorts

	cellOf    []int32 // cell index per point
	slotOf    []int32 // cellPts slot per point
	cellStart []int32 // CSR offsets per cell (len nx*ny+1)
	cellPts   []Point // points grouped by cell
	cellIdx   []int32 // original index of cellPts[i]
}

// slabs is one axis's cut: slab c holds the values in [lo[c], hi[c+1]].
// lo ends with +Inf and hi starts with −Inf, so the distance from a
// value to the slab past either edge of the grid is +Inf.
type slabs struct {
	lo, hi []float64
}

// gridCellsPerPoint is the grid density the reset aims for: about one
// cell per point, so the 3×3 block around a query holds about nine
// points and most k = 3 queries end there. Two and three cells a point
// measured slower across the shapes BenchmarkKNNAllPoints runs: the
// block then holds too few points, and more queries grow past it.
const gridCellsPerPoint = 1

// smallKMax is the largest k whose k-best list Grid2D.AllKNNDist keeps
// in a stack array; a larger k (the KSG estimators use 3 by default)
// allocates one list per call.
const smallKMax = 16

// Reset rebuilds the grid in place over a new paired sample, sorting
// the indices of each axis by value (NaN first) and reusing backing
// arrays when large enough. The inputs are not modified.
func (g *Grid2D) Reset(xs, ys []float64) {
	g.xo, g.yo = g.rx.sort(xs), g.ry.sort(ys)
	okx, oky := gather(&g.sx.vals, xs, g.xo), gather(&g.sy.vals, ys, g.yo)
	g.build(xs, ys, g.xo, g.yo)
	if !okx || !oky {
		g.xo, g.yo = nil, nil
	}
}

// ResetOrdered is Reset for a caller holding each axis's ascending
// order (xOrder[j] is the index of the j-th smallest x, equal values in
// any order): nothing is sorted. A sample holding NaN takes Reset.
func (g *Grid2D) ResetOrdered(xs, ys []float64, xOrder, yOrder []int32) {
	if !gather(&g.sx.vals, xs, xOrder) || !gather(&g.sy.vals, ys, yOrder) {
		g.Reset(xs, ys)
		return
	}
	g.xo, g.yo = xOrder, yOrder
	g.build(xs, ys, xOrder, yOrder)
}

// gather fills *dst with vals in order, reporting whether none is NaN.
func gather(dst *[]float64, vals []float64, order []int32) bool {
	out := sized(dst, len(order))
	nan := false
	for i, j := range order {
		v := vals[j]
		if v != v {
			nan = true
		}
		out[i] = v
	}
	return !nan
}

// Marginals returns the sample's x and y values in ascending order, NaN
// first, as the last Reset or ResetOrdered left them.
func (g *Grid2D) Marginals() (x, y *Sorted1D) {
	return &g.sx, &g.sy
}

// Orders returns the ascending orders the marginals were gathered by —
// the caller's after ResetOrdered, Reset's own after Reset — so that
// Marginals' values are xs[x[0]], xs[x[1]], …; both are nil when the
// sample holds NaN. They are valid until the next reset.
func (g *Grid2D) Orders() (x, y []int32) {
	return g.xo, g.yo
}

// build cuts both axes of the sorted marginals and groups the points by
// cell, walking each axis's order.
func (g *Grid2D) build(xs, ys []float64, xOrder, yOrder []int32) {
	n := len(xs)
	sx, sy := withoutNaN(g.sx.vals), withoutNaN(g.sy.vals)
	px, py := axisParts(spread(sx), spread(sy), n)
	cellOf := sized(&g.cellOf, n)
	clear(cellOf)
	// An axis with too few distinct values to fill half its slabs
	// leaves its share of the cells to the other: the ten columns of a
	// digit, or the one slab of a column that is mostly zeros, would
	// otherwise leave each cell holding many points.
	g.nx, g.ny = g.x.cut(sx, px), g.y.cut(sy, py)
	cells := max(n*gridCellsPerPoint, 1)
	if 2*g.nx < px {
		g.ny = g.y.cut(sy, cells/g.nx+1)
	} else if 2*g.ny < py {
		g.nx = g.x.cut(sx, cells/g.ny+1)
	}
	g.x.place(cellOf, xs, xOrder, 1)
	g.y.place(cellOf, ys, yOrder, int32(g.nx))

	nCells := g.nx * g.ny
	cellStart := sized(&g.cellStart, nCells+1)
	clear(cellStart)
	cellPts, cellIdx, slotOf := sized(&g.cellPts, n), sized(&g.cellIdx, n), sized(&g.slotOf, n)
	for _, c := range cellOf {
		cellStart[c+1]++
	}
	for c := 0; c < nCells; c++ {
		cellStart[c+1] += cellStart[c]
	}
	// Scatter, advancing cellStart[c] from cell start to cell end; the
	// closing shift restores the offsets.
	for i, c := range cellOf {
		p := cellStart[c]
		cellPts[p] = Point{X: xs[i], Y: ys[i]}
		cellIdx[p] = int32(i)
		slotOf[i] = p
		cellStart[c]++
	}
	copy(cellStart[1:], cellStart[:nCells])
	cellStart[0] = 0
}

// withoutNaN drops the leading NaN values of an ascending slice.
func withoutNaN(sorted []float64) []float64 {
	i := 0
	for i < len(sorted) && sorted[i] != sorted[i] {
		i++
	}
	return sorted[i:]
}

// spread is the extent of the central 80% of the ascending values, or
// their whole range when that is zero.
func spread(sorted []float64) float64 {
	m := len(sorted)
	if m == 0 {
		return 0
	}
	if s := sorted[m-1-m/10] - sorted[m/10]; s > 0 {
		return s
	}
	return sorted[m-1] - sorted[0]
}

// axisParts returns how many slabs to cut each axis into, from the two
// axes' spreads: equal extents on both axes keep the rectangle a query
// scans close to its k-NN square, so the counts follow the spread
// ratio, and multiply to n·gridCellsPerPoint. Each is clamped to that
// product: with one degenerate or vastly smaller spread the ratio would
// demand an absurd count on the wide axis, and the clamp caps the total
// at about twice the target. A ratio that is not finite — both spreads
// overflowed, or one overflows the other — counts as 1.
func axisParts(rx, ry float64, n int) (px, py int) {
	cells := float64(max(n*gridCellsPerPoint, 1))
	var fx, fy float64
	switch {
	case rx > 0 && ry > 0:
		ratio := rx / ry
		if !(ratio <= math.MaxFloat64) {
			ratio = 1
		}
		fx, fy = math.Sqrt(cells*ratio), math.Sqrt(cells/ratio)
	case rx > 0:
		fx = cells
	case ry > 0:
		fy = cells
	}
	return int(min(fx, cells)) + 1, int(min(fy, cells)) + 1
}

// cut splits the ascending non-NaN values into at most parts slabs of
// about equal count and returns the slab count: position p falls in
// quota p·parts/m, and a slab runs from its first position to the
// first of the next quota, extended over a run of equal values so
// equal values share a slab. With no values there is one slab.
func (s *slabs) cut(sorted []float64, parts int) int {
	lo, hi := s.lo[:0], append(s.hi[:0], math.Inf(-1))
	m := int64(len(sorted))
	for p := int64(0); p < m; {
		next := p*int64(parts)/m + 1
		q := min((next*m+int64(parts)-1)/int64(parts), m)
		for q < m && sorted[q] == sorted[q-1] {
			q++
		}
		lo, hi = append(lo, sorted[p]), append(hi, sorted[q-1])
		p = q
	}
	if m == 0 {
		lo, hi = append(lo, 0), append(hi, 0)
	}
	s.lo, s.hi = append(lo, math.Inf(1)), hi
	return len(s.lo) - 1
}

// place adds each point's slab times stride to cellOf by one walk of
// the ascending order: NaN values, first in it, fall in slab 0, and the
// walk stops at the last slab, which +Inf values join.
func (s *slabs) place(cellOf []int32, vals []float64, order []int32, stride int32) {
	slab, last := 0, len(s.lo)-2
	for _, j := range order {
		for slab < last && vals[j] >= s.lo[slab+1] {
			slab++
		}
		cellOf[j] += int32(slab) * stride
	}
}

// AllKNNDist computes the k-NN distance of every stored point (self
// excluded) into out[originalIndex] — the access pattern of the KSG
// estimators, which query each sample point exactly once. Batching by
// cell shares the 3×3 block and its bound between a cell's points and
// excludes the query point by its exact slot. The distances are exact
// (grid2d_test.go holds them to a brute-force scan); a point with fewer
// than k others at a non-NaN distance reads +Inf. It panics if fewer
// than k+1 points are stored.
func (g *Grid2D) AllKNNDist(k int, out []float64) {
	n := len(g.cellPts)
	if n-1 < k {
		panic("knn: not enough points for k-NN query")
	}
	var buf [smallKMax]float64
	best := buf[:]
	if k > smallKMax {
		best = make([]float64, k)
	}
	best = best[:k]
	nx, ny := g.nx, g.ny
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := cy*nx + cx
			clo, chi := g.cellStart[c], g.cellStart[c+1]
			if clo == chi {
				continue
			}
			// The 3×3 block around the cell, and how far every point
			// outside it is from every point of the cell: the narrowest
			// of the block's four outer columns and rows.
			bx0, bx1 := max(cx-1, 0), min(cx+1, nx-1)
			by0, by1 := max(cy-1, 0), min(cy+1, ny-1)
			bound := min(g.x.lo[cx]-g.x.hi[bx0], g.x.lo[bx1+1]-g.x.hi[cx+1],
				g.y.lo[cy]-g.y.hi[by0], g.y.lo[by1+1]-g.y.hi[cy+1])
			for self := clo; self < chi; self++ {
				q := g.cellPts[self]
				resetBest(best)
				// scan offers the points of cellPts[lo:hi], stopping
				// once the k-th best is 0: it cannot improve.
				scan := func(lo, hi int32) {
					for _, p := range g.cellPts[lo:hi] {
						if d := Chebyshev(q, p); d < best[0] {
							offer(best, d)
							if best[0] == 0 {
								return
							}
						}
					}
				}
				// The home cell first, without the query's own slot: its
				// own walls may already be past the k-th best.
				scan(clo, self)
				scan(self+1, chi)
				home := min(q.X-g.x.hi[cx], g.x.lo[cx+1]-q.X, q.Y-g.y.hi[cy], g.y.lo[cy+1]-q.Y)
				if home < best[0] {
					for gy := by0; gy <= by1; gy++ {
						row := gy * nx
						lo, hi := g.cellStart[row+bx0], g.cellStart[row+bx1+1]
						if gy == cy {
							scan(lo, clo)
							scan(chi, hi)
						} else {
							scan(lo, hi)
						}
					}
				}
				// Then grow the rectangle one column or row at a time —
				// the side whose next boundary is nearest q — until that
				// boundary is no nearer than the k-th best. A query with a
				// NaN or infinite coordinate stops at once (its distances
				// are NaN or +Inf, so its k-th best is +Inf whatever it
				// scans), and a NaN bound does not stop the growth: an
				// edge cell holding ±Inf puts Inf − Inf in it.
				for x0, x1, y0, y1 := bx0, bx1, by0, by1; home < best[0] && !(bound >= best[0]); {
					left, right := q.X-g.x.hi[x0], g.x.lo[x1+1]-q.X
					down, up := q.Y-g.y.hi[y0], g.y.lo[y1+1]-q.Y
					d := min(left, right, down, up)
					if !(d < best[0]) {
						break
					}
					switch d {
					case left, right:
						x := x1 + 1
						if d == left {
							x0--
							x = x0
						} else {
							x1++
						}
						for c := y0*nx + x; c <= y1*nx+x; c += nx {
							scan(g.cellStart[c], g.cellStart[c+1])
						}
					case down:
						y0--
						scan(g.cellStart[y0*nx+x0], g.cellStart[y0*nx+x1+1])
					default:
						y1++
						scan(g.cellStart[y1*nx+x0], g.cellStart[y1*nx+x1+1])
					}
				}
				out[g.cellIdx[self]] = best[0]
			}
		}
	}
}

// CountJointTies returns the number of stored points identical to point
// i (its index in the last reset's sample) in both coordinates,
// including the point itself: the zero-radius joint count Mixed-KSG
// needs in discrete regions. Equal values share a slab, so duplicates
// share a cell and one cell scan answers it.
func (g *Grid2D) CountJointTies(i int) int {
	c, q := g.cellOf[i], g.cellPts[g.slotOf[i]]
	count := 0
	for _, p := range g.cellPts[g.cellStart[c]:g.cellStart[c+1]] {
		if p.X == q.X && p.Y == q.Y {
			count++
		}
	}
	return count
}

// sized returns *buf resized to n, reallocating only when it is too
// small; the contents are unspecified.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
