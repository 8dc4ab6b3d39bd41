package knn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchShapes are the point sets the benchmarks draw: "gauss" mirrors
// the estimator workload (correlated Gaussian pairs), the others are
// the shapes a grid's cost could depend on — heavy tails, 99% of the
// points in a millionth of the range (see clustered), uniform, one
// axis of ten integers, a 10×10 integer lattice, a near-diagonal line,
// and an x that is 0 for 85% of the points against a Gaussian y.
var benchShapes = []string{"gauss", "lognormal", "clustered", "uniform", "digits", "lattice", "diagonal", "zeros"}

// benchSample draws n points of one benchShapes shape.
func benchSample(shape string, n int) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(13))
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		switch shape {
		case "gauss":
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + rng.NormFloat64()
		case "lognormal":
			xs[i], ys[i] = math.Exp(3*rng.NormFloat64()), math.Exp(3*rng.NormFloat64())
		case "clustered":
			xs[i], ys[i] = clustered(rng)
		case "uniform":
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		case "digits":
			xs[i], ys[i] = float64(rng.Intn(10)), rng.NormFloat64()
		case "lattice":
			xs[i], ys[i] = float64(rng.Intn(10)), float64(rng.Intn(10))
		case "diagonal":
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + 0.01*rng.NormFloat64()
		case "zeros":
			ys[i] = rng.NormFloat64()
			if rng.Intn(100) >= 85 {
				xs[i] = rng.NormFloat64()
			}
		default:
			panic("unknown shape " + shape)
		}
	}
	return xs, ys
}

// BenchmarkKNNAllPoints measures the all-points k-NN pass the KSG
// estimators make on the rank path — ResetOrdered from precomputed
// orders, then AllKNNDist — on every shape at n ∈ {256, 2 048, 50 000}
// (lognormal also at 1 024, the diagonal also at 400 000) and k = 3,
// plus k ∈ {20, 64} for the Gaussian and clustered shapes.
func BenchmarkKNNAllPoints(b *testing.B) {
	for _, shape := range benchShapes {
		sizes := []int{256, 2048, 50000}
		switch shape {
		case "lognormal":
			sizes = []int{256, 1024, 2048, 50000}
		case "diagonal":
			sizes = append(sizes, 400000)
		}
		ks := []int{3}
		if shape == "gauss" || shape == "clustered" {
			ks = []int{3, 20, 64}
		}
		for _, n := range sizes {
			xs, ys := benchSample(shape, n)
			xo, yo := ascendingOrder(xs), ascendingOrder(ys)
			out := make([]float64, n)
			for _, k := range ks {
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", shape, n, k), func(b *testing.B) {
					var g Grid2D
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						g.ResetOrdered(xs, ys, xo, yo)
						g.AllKNNDist(k, out)
					}
				})
			}
		}
	}
}

// BenchmarkNeighborReset measures the two rebuild-in-place paths: Reset
// sorts each axis, ResetOrdered walks the caller's orders.
func BenchmarkNeighborReset(b *testing.B) {
	for _, n := range []int{256, 4096} {
		xs, ys := benchSample("gauss", n)
		xo, yo := ascendingOrder(xs), ascendingOrder(ys)
		var g Grid2D
		b.Run(fmt.Sprintf("sort/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reset(xs, ys)
			}
		})
		b.Run(fmt.Sprintf("ordered/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.ResetOrdered(xs, ys, xo, yo)
			}
		})
	}
}
