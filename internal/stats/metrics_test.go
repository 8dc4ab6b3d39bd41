package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func TestMSEAndFriends(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{1, 1, 1}
	if got := MSE(est, truth); !approxEq(got, (0.0+1+4)/3, 1e-12) {
		t.Errorf("MSE = %v", got)
	}
	if got := RMSE(est, truth); !approxEq(got, math.Sqrt(5.0/3), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
	if got := MeanBias(est, truth); !approxEq(got, 1, 1e-12) {
		t.Errorf("MeanBias = %v", got)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !approxEq(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !approxEq(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("zero variance should yield NaN")
	}
}

func TestPearsonInvariance(t *testing.T) {
	// Invariance under positive affine transforms.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + rng.NormFloat64()
		}
		r1 := Pearson(xs, ys)
		xs2 := make([]float64, n)
		for i := range xs {
			xs2[i] = 3*xs[i] + 7
		}
		r2 := Pearson(xs2, ys)
		return approxEq(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRanksSimple(t *testing.T) {
	got := Ranks([]float64{10, 20, 30})
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	// [5, 1, 5, 3]: sorted order 1(rank1), 3(rank2), 5,5(ranks 3,4 -> 3.5).
	got := Ranks([]float64{5, 1, 5, 3})
	want := []float64{3.5, 1, 3.5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is 1 for any strictly increasing transform.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // nonlinear but monotone
	}
	if got := Spearman(xs, ys); !approxEq(got, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", got)
	}
}

func TestSpearmanVsKnown(t *testing.T) {
	// Classic example with a tie: hand-computed via fractional ranks.
	xs := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	ys := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	got := Spearman(xs, ys)
	if !approxEq(got, -0.17575757575757575, 1e-9) {
		t.Errorf("Spearman = %v, want -0.17575...", got)
	}
}

func TestMeanVarianceQuantiles(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approxEq(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !approxEq(Variance(xs), 4, 1e-12) {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if !approxEq(StdDev(xs), 2, 1e-12) {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if !approxEq(Quantile([]float64{3, 1, 2}, 0.5), 2, 1e-12) {
		t.Errorf("median = %v", Quantile([]float64{3, 1, 2}, 0.5))
	}
	if !approxEq(Quantile([]float64{0, 10}, 0.25), 2.5, 1e-12) {
		t.Errorf("Quantile = %v", Quantile([]float64{0, 10}, 0.25))
	}
	if Quantile(nil, 0.5) == Quantile(nil, 0.5) { // NaN != NaN
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestBin(t *testing.T) {
	truth := []float64{0.1, 0.9, 1.1, 1.9, 3.9}
	est := []float64{0.2, 1.0, 1.0, 2.0, 4.0}
	bt, be := Bin(truth, est, 0, 4, 4)
	if len(bt) != 3 || len(be) != 3 {
		t.Fatalf("expected 3 nonempty bins, got %d", len(bt))
	}
	if !approxEq(bt[0], 0.5, 1e-12) || !approxEq(be[0], 0.6, 1e-12) {
		t.Errorf("bin 0 = (%v,%v)", bt[0], be[0])
	}
	// Out-of-range values clamp to edge bins rather than panic.
	bt2, _ := Bin([]float64{-1, 99}, []float64{0, 0}, 0, 4, 4)
	if len(bt2) != 2 {
		t.Errorf("clamping failed: %v", bt2)
	}
}

func TestSpearmanRankCorrelationProperty(t *testing.T) {
	// Spearman(x, y) == Pearson(rank(x), rank(y)) by construction; check
	// it is invariant under monotone transforms of either argument.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64() + 0.5*xs[i]
		}
		s1 := Spearman(xs, ys)
		tx := make([]float64, n)
		for i := range xs {
			tx[i] = math.Atan(xs[i]) // strictly increasing
		}
		s2 := Spearman(tx, ys)
		return approxEq(s1, s2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnBadPairs(t *testing.T) {
	for _, fn := range []func(){
		func() { MSE([]float64{1}, []float64{1, 2}) },
		func() { Pearson(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
