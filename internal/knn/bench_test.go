package knn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchPoints draws the benchmark point sets: "gauss" mirrors the
// estimator workload (correlated Gaussian pairs), "clustered" is the
// shape that packs 99% of the points into one grid cell (see clustered).
func benchPoints(shape string, n int) []Point {
	rng := rand.New(rand.NewSource(13))
	pts := make([]Point, n)
	for i := range pts {
		if shape == "clustered" {
			pts[i].X, pts[i].Y = clustered(rng)
			continue
		}
		x := rng.NormFloat64()
		pts[i] = Point{X: x, Y: x + rng.NormFloat64()}
	}
	return pts
}

// BenchmarkKNNAllPoints measures the all-points k-NN query pattern the
// KSG estimators perform — one distance per point, self excluded — on
// both neighbor structures, each at the sizes the estimators give it
// (the grid up to 2 048 points, the tree beyond), at the default k = 3
// and at two k past the grid's stack-array bound.
func BenchmarkKNNAllPoints(b *testing.B) {
	sizes := map[string][]int{"grid": {256, 2048}, "tree": {4096, 50000}}
	for _, structure := range []string{"grid", "tree"} {
		for _, shape := range []string{"gauss", "clustered"} {
			for _, n := range sizes[structure] {
				pts := benchPoints(shape, n)
				for _, k := range []int{3, 20, 64} {
					name := fmt.Sprintf("%s/%s/n=%d/k=%d", structure, shape, n, k)
					b.Run(name, func(b *testing.B) {
						run := allPointsGrid(pts, k)
						if structure == "tree" {
							run = allPointsTree(pts, k)
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							run()
						}
					})
				}
			}
		}
	}
}

func allPointsGrid(pts []Point, k int) func() {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	var g Grid2D
	g.Reset(xs, ys)
	out := make([]float64, len(pts))
	return func() { g.AllKNNDist(k, out) }
}

func allPointsTree(pts []Point, k int) func() {
	t := Build(pts)
	return func() {
		for j := range pts {
			t.KNNDist(pts[j], k, j)
		}
	}
}

// BenchmarkNeighborReset measures the rebuild-in-place paths.
func BenchmarkNeighborReset(b *testing.B) {
	for _, n := range []int{256, 4096} {
		pts := benchPoints("gauss", n)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			var t Tree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset(pts)
			}
		})
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			var g Grid2D
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset(xs, ys)
			}
		})
	}
}
