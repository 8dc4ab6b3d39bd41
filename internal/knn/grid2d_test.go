package knn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// points zips paired coordinates into points.
func points(xs, ys []float64) []Point {
	pts := make([]Point, len(xs))
	for i := range xs {
		pts[i] = Point{X: xs[i], Y: ys[i]}
	}
	return pts
}

// ascendingOrder returns the indices of vals by ascending value, NaN
// first: the order ResetOrdered takes.
func ascendingOrder(vals []float64) []int32 {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	return order
}

// knnCases produces the point sets the grid is held to the brute force
// on: correlated and independent continuous data, tie-heavy mixtures, a
// 10×10 integer lattice, degenerate axes, wildly mismatched axis ranges
// (the case that must not blow up the grid's cell count), a clustered
// shape that packs 99% of the points into a millionth of the range,
// heavy tails, a near-diagonal line, one NaN coordinate (at index n/2),
// and ±Inf coordinates on every eighth point, which share the edge slabs
// with finite points.
func knnCases(rng *rand.Rand, n int) map[string][2][]float64 {
	mk := func(f func(i int) (float64, float64)) [2][]float64 {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i], ys[i] = f(i)
		}
		return [2][]float64{xs, ys}
	}
	return map[string][2][]float64{
		"correlated": mk(func(int) (float64, float64) {
			x := rng.NormFloat64()
			return x, x + rng.NormFloat64()
		}),
		"independent": mk(func(int) (float64, float64) {
			return rng.NormFloat64(), rng.NormFloat64() * 10
		}),
		"ties": mk(func(int) (float64, float64) {
			return float64(rng.Intn(4)), float64(rng.Intn(3))
		}),
		"lattice": mk(func(int) (float64, float64) {
			return float64(rng.Intn(10)), float64(rng.Intn(10))
		}),
		"diagonal": mk(func(int) (float64, float64) {
			x := rng.NormFloat64()
			return x, x + 0.01*rng.NormFloat64()
		}),
		"degenerate-x": mk(func(int) (float64, float64) {
			return 7, rng.NormFloat64()
		}),
		"all-identical": mk(func(int) (float64, float64) {
			return 1, 2
		}),
		"extreme-ratio": mk(func(int) (float64, float64) {
			return rng.Float64() * 1e12, rng.Float64() * 1e-6
		}),
		"clustered": mk(func(int) (float64, float64) {
			return clustered(rng)
		}),
		"lognormal": mk(func(int) (float64, float64) {
			return math.Exp(3 * rng.NormFloat64()), math.Exp(3 * rng.NormFloat64())
		}),
		"nan": mk(func(i int) (float64, float64) {
			x := rng.NormFloat64()
			if i == n/2 {
				return math.NaN(), x
			}
			return x, x + rng.NormFloat64()
		}),
		"inf": mk(func(i int) (float64, float64) {
			x := rng.NormFloat64()
			switch i % 24 {
			case 5:
				return math.Inf(1), x
			case 13:
				return x, math.Inf(-1)
			case 21:
				return math.Inf(-1), math.Inf(1)
			}
			return x, x + rng.NormFloat64()
		}),
	}
}

// clustered draws a point of the clustered shape: 99% of points in a
// 1e-3 box, 1% spread to 1e6.
func clustered(rng *rand.Rand) (float64, float64) {
	if rng.Intn(100) == 0 {
		return rng.Float64() * 1e6, rng.Float64() * 1e6
	}
	return rng.Float64() * 1e-3, rng.Float64() * 1e-3
}

// eachKNNCase calls check for every cell of the shared case list: every
// knnCases shape at k ∈ {1, 3, 16, 17, 64} (both sides of smallKMax)
// and n ∈ {k+1, 256, 2048, 2049, 5000}, and the shapes that stress the
// grid (clustered, lognormal, ties, NaN, lattice, diagonal) at n =
// 50 000 and k ∈ {3, 64}. want maps the query points the cell
// holds to the brute force — every point up to 256, 100 evenly spread
// ones and the NaN point beyond.
func eachKNNCase(t *testing.T, check func(name string, xs, ys []float64, k int, want map[int]float64)) {
	t.Helper()
	ks := []int{1, 3, 16, 17, 64}
	rng := rand.New(rand.NewSource(8))
	run := func(n int, ks []int, shapes ...string) {
		for name, c := range knnCases(rng, n) {
			if len(shapes) > 0 && !slices.Contains(shapes, name) {
				continue
			}
			xs, ys := c[0], c[1]
			pts := points(xs, ys)
			stride := 1
			if n > 256 {
				stride = n / 100
			}
			dists := map[int][]float64{}
			for i := 0; i < n; i++ {
				if i%stride == 0 || i == n/2 {
					dists[i] = bruteDists(pts, pts[i], i)
				}
			}
			for _, k := range ks {
				want := map[int]float64{}
				for i, ds := range dists {
					want[i] = math.Inf(1)
					if k <= len(ds) {
						want[i] = ds[k-1]
					}
				}
				check(name, xs, ys, k, want)
			}
		}
	}
	for _, k := range ks {
		run(k+1, []int{k})
	}
	for _, n := range []int{256, 2048, 2049, 5000} {
		run(n, ks)
	}
	run(50000, []int{3, 64}, "clustered", "lognormal", "ties", "nan", "lattice", "diagonal")
}

// TestGrid2DMatchesBruteForce checks AllKNNDist and CountJointTies
// against brute force on the shared case list, NaN points reading +Inf,
// and that ResetOrdered gives every point the distance Reset does.
func TestGrid2DMatchesBruteForce(t *testing.T) {
	var g, ordered Grid2D
	eachKNNCase(t, func(name string, xs, ys []float64, k int, want map[int]float64) {
		n := len(xs)
		g.Reset(xs, ys)
		out := make([]float64, n)
		g.AllKNNDist(k, out)
		ordered.ResetOrdered(xs, ys, ascendingOrder(xs), ascendingOrder(ys))
		fromOrders := make([]float64, n)
		ordered.AllKNNDist(k, fromOrders)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(fromOrders[i]) {
				t.Fatalf("%s n=%d k=%d: AllKNNDist[%d] = %v after Reset, %v after ResetOrdered",
					name, n, k, i, out[i], fromOrders[i])
			}
		}
		for i, w := range want {
			if out[i] != w {
				t.Fatalf("%s n=%d k=%d AllKNNDist[%d] = %v, want %v", name, n, k, i, out[i], w)
			}
			ties := 0
			for j := range xs {
				if xs[j] == xs[i] && ys[j] == ys[i] {
					ties++
				}
			}
			if got := g.CountJointTies(i); got != ties {
				t.Fatalf("%s n=%d CountJointTies(%d) = %d, want %d", name, n, i, got, ties)
			}
		}
		if name == "nan" && !math.IsInf(out[n/2], 1) {
			t.Fatalf("n=%d k=%d: NaN point reads %v, want +Inf", n, k, out[n/2])
		}
	})
}

// TestGrid2DExtremeRangeRatioBounded is the regression test for grid
// sizing: a huge x spread against a tiny y spread must not allocate an
// axis-ratio-sized cell array (or overflow into a panic), and neither
// may two spreads whose ratio underflows or overflows, two spreads that
// both overflow (signed values up to ±1e308 on both axes: their ratio
// is Inf/Inf), or a sample that is 20% NaN on both axes. The cell count
// stays within [n, 2·n·gridCellsPerPoint + 4].
func TestGrid2DExtremeRangeRatioBounded(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(2))
	scaled := func(sx, sy float64) func(int) (float64, float64) {
		return func(int) (float64, float64) { return rng.Float64() * sx, rng.Float64() * sy }
	}
	for name, draw := range map[string]func(i int) (float64, float64){
		"1e18 by 1e-18":    scaled(1e18, 1e-18),
		"1e-200 by 1e-200": scaled(1e-200, 1e-200),
		"1e200 by 1e200":   scaled(1e200, 1e200),
		"±1e308 by ±1e308": func(int) (float64, float64) {
			return (2*rng.Float64() - 1) * 1e308, (2*rng.Float64() - 1) * 1e308
		},
		"20% NaN": func(i int) (float64, float64) {
			if i%5 == 0 {
				return math.NaN(), math.NaN()
			}
			return rng.NormFloat64(), rng.NormFloat64()
		},
	} {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = draw(i)
		}
		var g Grid2D
		g.Reset(xs, ys) // must not panic or balloon
		if cells := g.nx * g.ny; cells > 2*gridCellsPerPoint*n+4 || cells < n {
			t.Fatalf("%s: cell count %d (nx=%d ny=%d) outside [n, 2·n·gridCellsPerPoint+4]", name, cells, g.nx, g.ny)
		}
		out := make([]float64, n)
		g.AllKNNDist(3, out)
		for i, got := range out {
			if want := bruteKNNDist(points(xs, ys), Point{X: xs[i], Y: ys[i]}, 3, i); got != want {
				t.Fatalf("%s: AllKNNDist[%d] = %v, want %v", name, i, got, want)
			}
		}
	}
}

// TestGrid2DReuseShrinksCleanly reuses one grid across growing and
// shrinking samples, checking stale cells never leak into results.
func TestGrid2DReuseShrinksCleanly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var g Grid2D
	for _, n := range []int{300, 20, 150, 5} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = float64(rng.Intn(6))
		}
		g.Reset(xs, ys)
		out := make([]float64, n)
		g.AllKNNDist(3, out)
		for i, got := range out {
			if want := bruteKNNDist(points(xs, ys), Point{X: xs[i], Y: ys[i]}, 3, i); got != want {
				t.Fatalf("n=%d AllKNNDist[%d] = %v, want %v", n, i, got, want)
			}
		}
	}
}
