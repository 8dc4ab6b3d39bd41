package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// diffSizes are the sample sizes the differential tests sweep: empty,
// single row, exactly k, sketch scale, and full-join scale.
var diffSizes = []int{0, 1, 3, 256, 4096}

// diffSamples builds paired inputs for one size: continuous columns,
// tie-heavy numeric columns (few distinct values, the mixed
// discrete-continuous regime), and categorical columns.
func diffSamples(n int, rng *rand.Rand) (contX, contY, tieX, tieY []float64, catA, catB []string) {
	contX = make([]float64, n)
	contY = make([]float64, n)
	tieX = make([]float64, n)
	tieY = make([]float64, n)
	catA = make([]string, n)
	catB = make([]string, n)
	for i := 0; i < n; i++ {
		contX[i] = rng.NormFloat64()
		contY[i] = contX[i] + rng.NormFloat64()
		tieX[i] = float64(rng.Intn(5))
		tieY[i] = tieX[i] + float64(rng.Intn(3))
		catA[i] = fmt.Sprintf("a%d", rng.Intn(6))
		catB[i] = fmt.Sprintf("b%d", rng.Intn(4))
	}
	return
}

func requireBitIdentical(t *testing.T, name string, legacy, scratch float64) {
	t.Helper()
	if math.Float64bits(legacy) != math.Float64bits(scratch) {
		t.Errorf("%s: legacy %v (%#x) != scratch %v (%#x)",
			name, legacy, math.Float64bits(legacy), scratch, math.Float64bits(scratch))
	}
}

// TestScratchEstimatorsBitIdentical runs every estimator through both
// the legacy entry points (fresh state per call) and ONE reused Scratch
// that is deliberately carried, dirty, across all sizes and inputs. Any
// stale state surviving a reset, or any divergence between the fresh
// and reused code paths, breaks bitwise equality.
func TestScratchEstimatorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s Scratch // shared and reused across every case, never reset by hand
	for _, n := range diffSizes {
		contX, contY, tieX, tieY, catA, catB := diffSamples(n, rng)
		for _, k := range []int{1, 3} {
			prefix := fmt.Sprintf("n=%d/k=%d", n, k)
			requireBitIdentical(t, prefix+"/KSG/cont", KSG(contX, contY, k), s.KSG(contX, contY, k))
			requireBitIdentical(t, prefix+"/KSG/ties", KSG(tieX, tieY, k), s.KSG(tieX, tieY, k))
			requireBitIdentical(t, prefix+"/MixedKSG/cont", MixedKSG(contX, contY, k), s.MixedKSG(contX, contY, k))
			requireBitIdentical(t, prefix+"/MixedKSG/ties", MixedKSG(tieX, tieY, k), s.MixedKSG(tieX, tieY, k))
			requireBitIdentical(t, prefix+"/DCKSG/cont", DCKSG(catA, contY, k), s.DCKSG(catA, contY, k))
			requireBitIdentical(t, prefix+"/DCKSG/ties", DCKSG(catA, tieY, k), s.DCKSG(catA, tieY, k))
		}
		requireBitIdentical(t, fmt.Sprintf("n=%d/MLE", n), MLE(catA, catB), s.MLE(catA, catB))

		// The dispatching entry point across all column-type pairs.
		cases := []struct {
			name string
			x, y Column
		}{
			{"num-num", NumericColumn(contX), NumericColumn(contY)},
			{"num-num-ties", NumericColumn(tieX), NumericColumn(tieY)},
			{"cat-cat", CategoricalColumn(catA), CategoricalColumn(catB)},
			{"num-cat", NumericColumn(contX), CategoricalColumn(catB)},
			{"cat-num", CategoricalColumn(catA), NumericColumn(tieY)},
		}
		for _, c := range cases {
			legacy := Estimate(c.x, c.y, DefaultK)
			got := s.Estimate(c.x, c.y, DefaultK)
			if legacy.Estimator != got.Estimator || legacy.N != got.N {
				t.Errorf("n=%d/%s: dispatch mismatch: %+v vs %+v", n, c.name, legacy, got)
			}
			requireBitIdentical(t, fmt.Sprintf("n=%d/Estimate/%s", n, c.name), legacy.MI, got.MI)
		}
	}
}

// TestHintedEstimateBitIdentical verifies that supplying ordering hints
// — the ranking hot path's no-sort fast lane — never changes a single
// bit of the estimate, also on a column holding ±Inf (a record stored
// before ±Inf was refused may carry one).
func TestHintedEstimateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for _, n := range []int{4, 64, 256, 1024} {
		contX, contY, tieX, tieY, _, _ := diffSamples(n, rng)
		infX := append([]float64(nil), contX...)
		for i := 1; i < n; i += 7 {
			infX[i] = math.Inf(2*(i%2) - 1)
		}
		for _, pair := range [][2][]float64{{contX, contY}, {tieX, tieY}, {contX, tieY}, {infX, contY}, {tieY, infX}} {
			xs, ys := pair[0], pair[1]
			h := Hints{XOrder: ascOrder(xs), YOrder: ascOrder(ys)}
			plain := s.Estimate(NumericColumn(xs), NumericColumn(ys), DefaultK)
			hinted := s.EstimateHinted(NumericColumn(xs), NumericColumn(ys), DefaultK, h)
			requireBitIdentical(t, fmt.Sprintf("n=%d", n), plain.MI, hinted.MI)
		}
	}
}

// ascOrder computes the (value, index)-ascending order of xs the way
// core's probe derives it.
func ascOrder(xs []float64) []int32 {
	order := make([]int32, len(xs))
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < len(order); i++ { // insertion sort: simple and stable
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if xs[a] < xs[b] || (xs[a] == xs[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order
}

// TestScratchReuseAcrossShrinkingInputs reuses one Scratch on inputs
// that shrink, grow, and change type, hunting for stale-buffer leaks.
func TestScratchReuseAcrossShrinkingInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	sizes := []int{512, 8, 256, 0, 64, 1, 4096, 16}
	for _, n := range sizes {
		contX, contY, tieX, tieY, catA, _ := diffSamples(n, rng)
		requireBitIdentical(t, fmt.Sprintf("shrink/MixedKSG/n=%d", n),
			MixedKSG(contX, contY, 3), s.MixedKSG(contX, contY, 3))
		requireBitIdentical(t, fmt.Sprintf("shrink/DCKSG/n=%d", n),
			DCKSG(catA, tieY, 3), s.DCKSG(catA, tieY, 3))
		requireBitIdentical(t, fmt.Sprintf("shrink/KSG/n=%d", n),
			KSG(tieX, tieY, 3), s.KSG(tieX, tieY, 3))
	}
}
