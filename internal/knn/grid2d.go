package knn

import "math"

// Grid2D answers exact k-NN distance queries under the L∞ norm by
// bucketing the points into a uniform grid — near-square cells sized so
// a few cells hold each point on average, with per-axis clamps for
// extreme range ratios — and expanding square rings of cells around the
// query until the ring's minimum possible distance can no longer beat
// the current k-th best. Distances are computed exactly — the grid only
// prunes — so results are identical to Tree.KNNDist on the same points.
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

	heap distHeap // k-best scratch for large k
}

// gridCellsPerPoint is the grid density the reset aims for: ~3 cells
// per point. Cells this fine keep ring scans close to the true k-NN
// disk (few wasted distance computations) while the CSR offsets stay a
// small multiple of the sample in size; both coarser and finer grids
// measured slower on the ranking workload.
const gridCellsPerPoint = 3

// smallKMax is the largest k served by the insertion-array fast path of
// Grid2D.AllKNNDist; linear insertion into a tiny descending array beats
// heap maintenance (and its call overhead) up to well past the k the
// KSG estimators use (3 by default).
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
	// exactly `cells`.
	var fx, fy float64
	switch {
	case rx > 0 && ry > 0:
		side := math.Sqrt(rx * ry / float64(cells))
		fx, fy = rx/side, ry/side
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
// a brute-force scan). It panics if fewer than k+1 points are stored.
func (g *Grid2D) AllKNNDist(k int, out []float64) {
	n := len(g.cellPts)
	if n-1 < k {
		panic("knn: not enough points for k-NN query")
	}
	if k > smallKMax {
		for s := 0; s < n; s++ {
			p := g.cellPts[s]
			out[g.cellIdx[s]] = g.knnDistHeap(p.X, p.Y, k)
		}
		return
	}
	inf := math.Inf(1)
	nx, ny := g.nx, g.ny
	maxRing := nx
	if ny > maxRing {
		maxRing = ny
	}
	var best [smallKMax]float64
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := cy*nx + cx
			clo, chi := g.cellStart[c], g.cellStart[c+1]
			if clo == chi {
				continue
			}
			// Geometry of the rings-0-and-1 block, shared by every
			// point of this cell.
			bx0, bx1 := cx-1, cx+1
			if bx0 < 0 {
				bx0 = 0
			}
			if bx1 >= nx {
				bx1 = nx - 1
			}
			by0, by1 := cy-1, cy+1
			if by0 < 0 {
				by0 = 0
			}
			if by1 >= ny {
				by1 = ny - 1
			}
			for self := clo; self < chi; self++ {
				q := g.cellPts[self]
				x, y := q.X, q.Y
				for i := 0; i < k; i++ {
					best[i] = inf
				}
				// Ring rows are contiguous in the row-major CSR layout.
				// math.Abs compiles to a sign-bit mask; spelled as a
				// branch it would mispredict half the time on random data.
				scanRange := func(lo, hi int32) {
					for _, p := range g.cellPts[lo:hi] {
						d := max(math.Abs(x-p.X), math.Abs(y-p.Y))
						if d < best[0] {
							j := 1
							for j < k && d < best[j] {
								best[j-1] = best[j]
								j++
							}
							best[j-1] = d
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
				for r := 2; r <= maxRing; r++ {
					if best[0] < inf && float64(r-1)*g.side >= best[0] {
						break
					}
					x0, x1 := cx-r, cx+r
					if x0 < 0 {
						x0 = 0
					}
					if x1 >= nx {
						x1 = nx - 1
					}
					y0, y1 := cy-r, cy+r
					if y0 >= 0 {
						row := y0 * nx
						scanRange(g.cellStart[row+x0], g.cellStart[row+x1+1])
					}
					if y1 < ny {
						row := y1 * nx
						scanRange(g.cellStart[row+x0], g.cellStart[row+x1+1])
					}
					gy0, gy1 := y0+1, y1-1
					if gy0 < 0 {
						gy0 = 0
					}
					if gy1 >= ny {
						gy1 = ny - 1
					}
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

// scanCellHeap is the large-k counterpart of AllKNNDist's range scan,
// maintaining the bounded max-heap instead of the insertion array.
func (g *Grid2D) scanCellHeap(c int, x, y float64, k int, selfLeft *bool) {
	lo, hi := g.cellStart[c], g.cellStart[c+1]
	for _, p := range g.cellPts[lo:hi] {
		dx := math.Abs(x - p.X)
		dy := math.Abs(y - p.Y)
		if dy > dx {
			dx = dy
		}
		if dx == 0 && *selfLeft && p.X == x && p.Y == y {
			*selfLeft = false
			continue
		}
		if g.heap.size < k {
			g.heap.push(dx)
		} else if dx < g.heap.d[0] {
			g.heap.replaceTop(dx)
		}
	}
}

func (g *Grid2D) knnDistHeap(x, y float64, k int) float64 {
	g.heap.reset(k)
	selfLeft := true
	cx, cy := g.cellX(x), g.cellY(y)
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for r := 0; r <= maxRing; r++ {
		if g.heap.size == k && r >= 2 && float64(r-1)*g.side >= g.heap.d[0] {
			break
		}
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		if r == 0 {
			g.scanCellHeap(cy*g.nx+cx, x, y, k, &selfLeft)
			continue
		}
		for gx := x0; gx <= x1; gx++ {
			if gx < 0 || gx >= g.nx {
				continue
			}
			if y0 >= 0 {
				g.scanCellHeap(y0*g.nx+gx, x, y, k, &selfLeft)
			}
			if y1 < g.ny {
				g.scanCellHeap(y1*g.nx+gx, x, y, k, &selfLeft)
			}
		}
		for gy := y0 + 1; gy <= y1-1; gy++ {
			if gy < 0 || gy >= g.ny {
				continue
			}
			if x0 >= 0 {
				g.scanCellHeap(gy*g.nx+x0, x, y, k, &selfLeft)
			}
			if x1 < g.nx {
				g.scanCellHeap(gy*g.nx+x1, x, y, k, &selfLeft)
			}
		}
	}
	return g.heap.d[0]
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
