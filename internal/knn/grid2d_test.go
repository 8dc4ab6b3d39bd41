package knn

import (
	"math"
	"math/rand"
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

// knnCases produces the point sets both neighbor structures are held to
// the brute force on: correlated and independent continuous data,
// tie-heavy mixtures, degenerate axes, wildly mismatched axis ranges
// (the case that must not blow up the grid's cell count), a clustered
// shape that packs most points into one grid cell, heavy tails, and one
// NaN coordinate (at index n/2).
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
// and n ∈ {k+1, 256, 2048, 2049, 5000} (both sides of the estimators'
// grid/tree switch at 2 048). want maps the query points the cell holds
// to the brute force — every point up to 256, 100 evenly spread ones and
// the NaN point beyond.
func eachKNNCase(t *testing.T, check func(name string, xs, ys []float64, k int, want map[int]float64)) {
	t.Helper()
	ks := []int{1, 3, 16, 17, 64}
	rng := rand.New(rand.NewSource(8))
	run := func(n int, ks []int) {
		for name, c := range knnCases(rng, n) {
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
}

// TestGrid2DMatchesBruteForce checks AllKNNDist and CountJointTies
// against brute force on the shared case list, NaN points reading +Inf.
func TestGrid2DMatchesBruteForce(t *testing.T) {
	var g Grid2D
	eachKNNCase(t, func(name string, xs, ys []float64, k int, want map[int]float64) {
		n := len(xs)
		g.Reset(xs, ys)
		out := make([]float64, n)
		g.AllKNNDist(k, out)
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
			if got := g.CountJointTies(xs[i], ys[i]); got != ties {
				t.Fatalf("%s n=%d CountJointTies(%d) = %d, want %d", name, n, i, got, ties)
			}
		}
		if name == "nan" && !math.IsInf(out[n/2], 1) {
			t.Fatalf("n=%d k=%d: NaN point reads %v, want +Inf", n, k, out[n/2])
		}
	})
}

// TestGrid2DExtremeRangeRatioBounded is the regression test for grid
// sizing: a huge x range against a tiny y range must not allocate an
// axis-range-ratio-sized cell array (or overflow into a panic), and
// neither may two ranges whose product underflows or overflows.
func TestGrid2DExtremeRangeRatioBounded(t *testing.T) {
	n := 64
	xs := make([]float64, n)
	ys := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for _, scale := range [][2]float64{{1e18, 1e-18}, {1e-200, 1e-200}, {1e200, 1e200}} {
		for i := range xs {
			xs[i] = rng.Float64() * scale[0]
			ys[i] = rng.Float64() * scale[1]
		}
		var g Grid2D
		g.Reset(xs, ys) // must not panic or balloon
		if cells := g.nx * g.ny; cells > 2*gridCellsPerPoint*n+4 || cells < n {
			t.Fatalf("scales %v: cell count %d (nx=%d ny=%d) outside [n, ~2x target]", scale, cells, g.nx, g.ny)
		}
		out := make([]float64, n)
		g.AllKNNDist(3, out)
		for i, got := range out {
			if want := bruteKNNDist(points(xs, ys), Point{X: xs[i], Y: ys[i]}, 3, i); got != want {
				t.Fatalf("scales %v: AllKNNDist[%d] = %v, want %v", scale, i, got, want)
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
