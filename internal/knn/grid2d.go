package knn

import "math"

// Grid2D answers exact k-NN distance queries under the L∞ norm by
// bucketing the points into a uniform grid — near-square cells sized so
// a few cells hold each point on average, with per-axis clamps for
// extreme range ratios — and expanding square rings of cells around the
// query until the ring's minimum possible distance can no longer beat
// the current k-th best. Distances are computed exactly — the grid only
// prunes — and kept in the same k-best list (offer) as Tree.KNNDist's,
// so results are identical to Tree.KNNDist on the same points, NaN
// coordinates included.
//
// Reset is two O(n) counting passes (no sort, no tree build), and a
// query touches an expected O(k) points on data without extreme
// clustering, independent of how x and y are correlated — the regime a
// kd-tree or a marginal-sorted window cannot match at sketch scale. A
// Grid2D is not safe for concurrent use.
type Grid2D struct {
	minX, minY float64
	invW, invH float64 // 1/cell width per axis, 0 on a degenerate axis
	side       float64 // smallest prunable cell extent (see Reset)
	nx, ny     int

	cellOf    []int32 // scratch: cell index per point
	cellStart []int32 // CSR offsets per cell (len nx*ny+1)
	cellPts   []Point // points grouped by cell
	cellIdx   []int32 // original index of cellPts[i]
}

// gridCellsPerPoint is the grid density the reset aims for: ~3 cells
// per point. Cells this fine keep ring scans close to the true k-NN
// disk (few wasted distance computations) while the CSR offsets stay a
// small multiple of the sample in size; both coarser and finer grids
// measured slower on the ranking workload.
const gridCellsPerPoint = 3

// smallKMax is the largest k whose k-best list Grid2D.AllKNNDist keeps
// in a stack array; a larger k (the KSG estimators use 3 by default)
// allocates one list per call.
const smallKMax = 16

// Reset rebuilds the grid in place over a new paired sample, reusing
// backing arrays when large enough. The inputs are not modified.
func (g *Grid2D) Reset(xs, ys []float64) {
	n := len(xs)
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		if xs[i] < minX {
			minX = xs[i]
		}
		if xs[i] > maxX {
			maxX = xs[i]
		}
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	g.minX, g.minY = minX, minY
	rx, ry := maxX-minX, maxY-minY
	cells := n * gridCellsPerPoint
	if cells < 1 {
		cells = 1
	}
	// Aim for square cells of side sqrt(rx·ry/cells) — equal extent on
	// both axes keeps the ring-distance bound tight under the L∞ norm —
	// but clamp each axis to at most `cells` cells: with one degenerate
	// or vastly smaller range the square-cell formula would demand an
	// absurd count on the wide axis (and a range ratio near 1/0 would
	// overflow the int conversion outright). The clamp caps the total
	// at ~2·cells, because the unclamped per-axis counts multiply to
	// exactly `cells`. The counts come from the range ratio, not from
	// rx·ry, which underflows to 0 (and would clamp both axes) on two
	// tiny ranges.
	var fx, fy float64
	switch {
	case rx > 0 && ry > 0:
		ratio := rx / ry
		fx, fy = math.Sqrt(float64(cells)*ratio), math.Sqrt(float64(cells)/ratio)
	case rx > 0:
		fx, fy = float64(cells), 0
	case ry > 0:
		fx, fy = 0, float64(cells)
	}
	if !(fx < float64(cells)) && fx != 0 {
		fx = float64(cells)
	}
	if !(fy < float64(cells)) && fy != 0 {
		fy = float64(cells)
	}
	g.nx, g.ny = int(fx)+1, int(fy)+1
	// Per-axis cell extents for indexing, and the smallest extent an
	// index-distance ring can certify, for pruning: a ring-r cell
	// differs from the query's cell by r on some axis with more than
	// one cell, so its points are at least (r−1)·side away.
	g.invW, g.invH = 0, 0
	g.side = math.Inf(1)
	if g.nx > 1 {
		w := rx / float64(g.nx)
		g.invW = float64(g.nx) / rx
		g.side = w
	}
	if g.ny > 1 {
		h := ry / float64(g.ny)
		g.invH = float64(g.ny) / ry
		if h < g.side {
			g.side = h
		}
	}

	nCells := g.nx * g.ny
	if cap(g.cellOf) < n {
		g.cellOf = make([]int32, n)
	} else {
		g.cellOf = g.cellOf[:n]
	}
	if cap(g.cellStart) < nCells+1 {
		g.cellStart = make([]int32, nCells+1)
	} else {
		g.cellStart = g.cellStart[:nCells+1]
		clear(g.cellStart)
	}
	if cap(g.cellPts) < n {
		g.cellPts = make([]Point, n)
		g.cellIdx = make([]int32, n)
	} else {
		g.cellPts = g.cellPts[:n]
		g.cellIdx = g.cellIdx[:n]
	}
	for i := 0; i < n; i++ {
		c := int32(g.cellY(ys[i])*g.nx + g.cellX(xs[i]))
		g.cellOf[i] = c
		g.cellStart[c+1]++
	}
	for c := 0; c < nCells; c++ {
		g.cellStart[c+1] += g.cellStart[c]
	}
	// Scatter, advancing cellStart[c] from cell start to cell end; the
	// closing shift restores the offsets.
	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		p := g.cellStart[c]
		g.cellPts[p] = Point{X: xs[i], Y: ys[i]}
		g.cellIdx[p] = int32(i)
		g.cellStart[c]++
	}
	for c := nCells; c > 0; c-- {
		g.cellStart[c] = g.cellStart[c-1]
	}
	g.cellStart[0] = 0
}

func (g *Grid2D) cellX(x float64) int {
	c := int((x - g.minX) * g.invW)
	if c < 0 {
		c = 0
	} else if c >= g.nx {
		c = g.nx - 1
	}
	return c
}

func (g *Grid2D) cellY(y float64) int {
	c := int((y - g.minY) * g.invH)
	if c < 0 {
		c = 0
	} else if c >= g.ny {
		c = g.ny - 1
	}
	return c
}

// AllKNNDist computes the k-NN distance of every stored point (self
// excluded) into out[originalIndex] — the access pattern of the KSG
// estimators, which query each sample point exactly once. Batching by
// cell shares the ring geometry between a cell's points, fuses rings 0
// and 1 into one three-row block scan, and excludes the query point by
// its exact slot. The distances are exact (grid2d_test.go holds them to
// a brute-force scan); a point with fewer than k others at a non-NaN
// distance reads +Inf. It panics if fewer than k+1 points are stored.
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
	maxRing := max(nx, ny)
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := cy*nx + cx
			clo, chi := g.cellStart[c], g.cellStart[c+1]
			if clo == chi {
				continue
			}
			// Geometry of the rings-0-and-1 block, shared by every
			// point of this cell.
			bx0, bx1 := max(cx-1, 0), min(cx+1, nx-1)
			by0, by1 := max(cy-1, 0), min(cy+1, ny-1)
			for self := clo; self < chi; self++ {
				q := g.cellPts[self]
				resetBest(best)
				// Ring rows are contiguous in the row-major CSR layout.
				scanRange := func(lo, hi int32) {
					for _, p := range g.cellPts[lo:hi] {
						if d := Chebyshev(q, p); d < best[0] {
							offer(best, d)
						}
					}
				}
				// The query point lives in the home row's block; skipping
				// its exact slot by splitting the range there keeps the
				// scan loop free of a per-point self test.
				for gy := by0; gy <= by1; gy++ {
					row := gy * nx
					lo, hi := g.cellStart[row+bx0], g.cellStart[row+bx1+1]
					if gy == cy {
						scanRange(lo, self)
						scanRange(self+1, hi)
					} else {
						scanRange(lo, hi)
					}
				}
				// best[0] is +Inf until k distances are in, and side is
				// +Inf only when every point shares cell (0, 0).
				for r := 2; r <= maxRing; r++ {
					if float64(r-1)*g.side >= best[0] {
						break
					}
					x0, x1 := max(cx-r, 0), min(cx+r, nx-1)
					y0, y1 := cy-r, cy+r
					if y0 >= 0 {
						row := y0 * nx
						scanRange(g.cellStart[row+x0], g.cellStart[row+x1+1])
					}
					if y1 < ny {
						row := y1 * nx
						scanRange(g.cellStart[row+x0], g.cellStart[row+x1+1])
					}
					gy0, gy1 := max(y0+1, 0), min(y1-1, ny-1)
					left, right := cx-r, cx+r
					for gy := gy0; gy <= gy1; gy++ {
						row := gy * nx
						if left >= 0 {
							scanRange(g.cellStart[row+left], g.cellStart[row+left+1])
						}
						if right < nx {
							scanRange(g.cellStart[row+right], g.cellStart[row+right+1])
						}
					}
				}
				out[g.cellIdx[self]] = best[0]
			}
		}
	}
}

// CountJointTies returns the number of stored points identical to
// (x, y) — which must be a stored point — in both coordinates, including
// the point itself: the zero-radius joint count Mixed-KSG needs in
// discrete regions. Duplicates share a cell, so one cell scan answers
// it.
func (g *Grid2D) CountJointTies(x, y float64) int {
	c := g.cellY(y)*g.nx + g.cellX(x)
	lo, hi := g.cellStart[c], g.cellStart[c+1]
	count := 0
	for _, p := range g.cellPts[lo:hi] {
		if p.X == x && p.Y == y {
			count++
		}
	}
	return count
}
