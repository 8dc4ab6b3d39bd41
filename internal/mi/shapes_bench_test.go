package mi

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// shapeSample draws n pairs of one of BenchmarkMixedKSGShapes' shapes,
// the ones knn's BenchmarkKNNAllPoints runs: correlated Gaussian,
// lognormal σ = 3 on both axes, 99% of the points in a 1e-3 box and 1%
// spread to 1e6, uniform, x ∈ {0..9} against a Gaussian y, a 10×10
// integer lattice, y = x + 0.01·noise, and an x that is 0 for 85% of
// the points against a Gaussian y.
func shapeSample(shape string, n int) (xs, ys []float64) {
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
			scale := 1e-3
			if rng.Intn(100) == 0 {
				scale = 1e6
			}
			xs[i], ys[i] = rng.Float64()*scale, rng.Float64()*scale
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
		}
	}
	return xs, ys
}

// BenchmarkMixedKSGShapes times Mixed-KSG at the default k on every
// shape at n ∈ {256, 2 048, 20 000}, hinted (the rank path: the
// caller's value orders) and plain (sorting for itself).
func BenchmarkMixedKSGShapes(b *testing.B) {
	order := func(vals []float64) []int32 {
		o := make([]int32, len(vals))
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortStableFunc(o, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
		return o
	}
	for _, shape := range []string{"gauss", "lognormal", "clustered", "uniform", "digits", "lattice", "diagonal", "zeros"} {
		for _, n := range []int{256, 2048, 20000} {
			xs, ys := shapeSample(shape, n)
			x, y := NumericColumn(xs), NumericColumn(ys)
			h := Hints{XOrder: order(xs), YOrder: order(ys)}
			var s Scratch
			b.Run(fmt.Sprintf("%s/n=%d/hinted", shape, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.EstimateHinted(x, y, DefaultK, h)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/plain", shape, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.MixedKSG(xs, ys, DefaultK)
				}
			})
		}
	}
}
