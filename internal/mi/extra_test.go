package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"misketch/internal/stats"
)

func TestMLESmoothedZeroAlphaIsMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]string, 300)
	ys := make([]string, 300)
	for i := range xs {
		v := rng.Intn(5)
		xs[i] = fmt.Sprintf("x%d", v)
		ys[i] = fmt.Sprintf("y%d", (v+rng.Intn(3))%5)
	}
	if got, want := MLESmoothed(xs, ys, 0), MLE(xs, ys); !approxEq(got, want, 1e-12) {
		t.Errorf("alpha=0: %v vs %v", got, want)
	}
}

func TestMLESmoothedShrinksTowardIndependence(t *testing.T) {
	// On independent data the MLE overestimates (Eq. 6); smoothing must
	// pull the estimate down, monotonically in alpha.
	rng := rand.New(rand.NewSource(2))
	xs := make([]string, 400)
	ys := make([]string, 400)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", rng.Intn(10))
		ys[i] = fmt.Sprintf("y%d", rng.Intn(10))
	}
	prev := MLE(xs, ys)
	if prev <= 0 {
		t.Fatalf("MLE on small independent sample should be positive, got %v", prev)
	}
	for _, alpha := range []float64{0.1, 0.5, 1, 5} {
		cur := MLESmoothed(xs, ys, alpha)
		if cur >= prev {
			t.Errorf("alpha=%g: estimate %v did not shrink below %v", alpha, cur, prev)
		}
		prev = cur
	}
}

func TestMLESmoothedPreservesStrongSignal(t *testing.T) {
	// Smoothing with modest alpha must NOT destroy a real dependence.
	xs := make([]string, 1000)
	ys := make([]string, 1000)
	for i := range xs {
		v := i % 4
		xs[i] = fmt.Sprintf("x%d", v)
		ys[i] = fmt.Sprintf("y%d", v)
	}
	truth := math.Log(4)
	got := MLESmoothed(xs, ys, 0.5)
	if math.Abs(got-truth) > 0.1 {
		t.Errorf("smoothed MI %v too far from %v", got, truth)
	}
}

func TestMLESmoothedFalseDiscoveryControl(t *testing.T) {
	// The paper's conclusion scenario: ranking many independent (null)
	// candidates, smoothing should produce systematically lower null
	// scores than the raw MLE — fewer false discoveries at any threshold.
	rng := rand.New(rand.NewSource(3))
	var mleNull, smoothNull float64
	const trials = 50
	for tr := 0; tr < trials; tr++ {
		xs := make([]string, 200)
		ys := make([]string, 200)
		for i := range xs {
			xs[i] = fmt.Sprintf("x%d", rng.Intn(12))
			ys[i] = fmt.Sprintf("y%d", rng.Intn(12))
		}
		mleNull += MLE(xs, ys)
		smoothNull += MLESmoothed(xs, ys, 1)
	}
	if smoothNull >= 0.5*mleNull {
		t.Errorf("smoothing should at least halve null scores: MLE %v vs smoothed %v",
			mleNull/trials, smoothNull/trials)
	}
}

func TestEstimateWithCICoversTruth(t *testing.T) {
	// The 90% interval should contain the large-sample truth most of the
	// time on well-behaved data.
	rng := rand.New(rand.NewSource(9))
	truth := stats.BivariateNormalMI(0.8)
	covered, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		xs, ys := gaussianPair(600, 0.8, rng)
		_, ci := EstimateWithCI(NumericColumn(xs), NumericColumn(ys), 3, 60, 0.9, rng)
		total++
		if truth >= ci.Lo && truth <= ci.Hi {
			covered++
		}
		if ci.Lo > ci.Hi {
			t.Fatalf("inverted interval [%v, %v]", ci.Lo, ci.Hi)
		}
	}
	if covered < total*6/10 {
		t.Errorf("coverage %d/%d too low for a nominal 90%% interval", covered, total)
	}
}

func TestEstimateWithCIWidthShrinks(t *testing.T) {
	// Interval width should shrink roughly like 1/sqrt(n) — the rate the
	// paper cites for subsample-based MI approximation.
	rng := rand.New(rand.NewSource(10))
	width := func(n int) float64 {
		var total float64
		const trials = 5
		for tr := 0; tr < trials; tr++ {
			xs, ys := gaussianPair(n, 0.7, rng)
			_, ci := EstimateWithCI(NumericColumn(xs), NumericColumn(ys), 3, 40, 0.9, rng)
			total += ci.Hi - ci.Lo
		}
		return total / trials
	}
	small, large := width(150), width(1200)
	if large >= small {
		t.Errorf("width should shrink with n: %v at 150 vs %v at 1200", small, large)
	}
}

func TestEstimateWithCIDiscrete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]string, 400)
	ys := make([]string, 400)
	for i := range xs {
		v := rng.Intn(4)
		xs[i] = fmt.Sprintf("x%d", v)
		ys[i] = fmt.Sprintf("y%d", v)
	}
	res, ci := EstimateWithCI(CategoricalColumn(xs), CategoricalColumn(ys), 3, 50, 0.95, rng)
	if res.Estimator != EstMLE {
		t.Errorf("estimator = %s", res.Estimator)
	}
	if res.MI < ci.Lo-0.1 || res.MI > ci.Hi+0.1 {
		t.Errorf("estimate %v far outside its own interval [%v, %v]", res.MI, ci.Lo, ci.Hi)
	}
}

func TestExtraPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, fn := range map[string]func(){
		"smoothed mismatch": func() { MLESmoothed([]string{"a"}, []string{"a", "b"}, 1) },
		"smoothed negative": func() { MLESmoothed([]string{"a"}, []string{"a"}, -1) },
		"ci bad boots": func() {
			EstimateWithCI(NumericColumn([]float64{1}), NumericColumn([]float64{1}), 3, 1, 0.9, rng)
		},
		"ci bad level": func() {
			EstimateWithCI(NumericColumn([]float64{1}), NumericColumn([]float64{1}), 3, 10, 1.5, rng)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
