package knn

import (
	"math"
	"math/rand"
	"testing"
)

func bruteKNNDistXY(xs, ys []float64, i, k int) float64 {
	var ds []float64
	for j := range xs {
		if j == i {
			continue
		}
		dx := math.Abs(xs[i] - xs[j])
		dy := math.Abs(ys[i] - ys[j])
		if dy > dx {
			dx = dy
		}
		ds = append(ds, dx)
	}
	// selection by repeated min extraction (k is tiny in tests)
	for round := 0; round < k; round++ {
		m := round
		for j := round + 1; j < len(ds); j++ {
			if ds[j] < ds[m] {
				m = j
			}
		}
		ds[round], ds[m] = ds[m], ds[round]
	}
	return ds[k-1]
}

// gridCases produces point sets covering the regimes the estimators
// feed the grid: correlated and independent continuous data, tie-heavy
// mixtures, degenerate axes, and wildly mismatched axis ranges (the
// case that must not blow up the cell count).
func gridCases(rng *rand.Rand, n int) map[string][2][]float64 {
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
	}
}

// TestGrid2DMatchesBruteForce checks AllKNNDist against brute force on
// every regime, on both sides of smallKMax (the insertion array and the
// heap).
func TestGrid2DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{5, 40, 200} {
		for name, c := range gridCases(rng, n) {
			xs, ys := c[0], c[1]
			var g Grid2D
			g.Reset(xs, ys)
			out := make([]float64, n)
			for _, k := range []int{1, 3, smallKMax + 4} {
				if n-1 < k {
					continue
				}
				g.AllKNNDist(k, out)
				for i := 0; i < n; i++ {
					want := bruteKNNDistXY(xs, ys, i, k)
					if out[i] != want {
						t.Fatalf("%s n=%d k=%d AllKNNDist[%d] = %v, want %v", name, n, k, i, out[i], want)
					}
				}
			}
			for i := 0; i < n; i++ {
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
		}
	}
}

// TestGrid2DExtremeRangeRatioBounded is the regression test for grid
// sizing: a huge x range against a tiny y range must not allocate an
// axis-range-ratio-sized cell array (or overflow into a panic).
func TestGrid2DExtremeRangeRatioBounded(t *testing.T) {
	n := 64
	xs := make([]float64, n)
	ys := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = rng.Float64() * 1e18
		ys[i] = rng.Float64() * 1e-18
	}
	var g Grid2D
	g.Reset(xs, ys) // must not panic or balloon
	if cells := g.nx * g.ny; cells > 2*gridCellsPerPoint*n+4 {
		t.Fatalf("cell count %d (nx=%d ny=%d) exceeds the ~2x target bound", cells, g.nx, g.ny)
	}
	out := make([]float64, n)
	g.AllKNNDist(3, out)
	for i, got := range out {
		if want := bruteKNNDistXY(xs, ys, i, 3); got != want {
			t.Fatalf("AllKNNDist[%d] = %v, want %v", i, got, want)
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
			if want := bruteKNNDistXY(xs, ys, i, 3); got != want {
				t.Fatalf("n=%d AllKNNDist[%d] = %v, want %v", n, i, got, want)
			}
		}
	}
}
