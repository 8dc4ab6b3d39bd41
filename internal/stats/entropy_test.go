package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// DistinctCount returns the number of distinct values in xs.
func DistinctCount(xs []string) int {
	seen := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

func TestEntropyMLEUniform(t *testing.T) {
	// m equally frequent symbols -> H = ln m exactly.
	for _, m := range []int{1, 2, 4, 16, 100} {
		var xs []string
		for i := 0; i < m; i++ {
			for r := 0; r < 7; r++ {
				xs = append(xs, fmt.Sprintf("v%d", i))
			}
		}
		want := math.Log(float64(m))
		if got := EntropyMLE(xs); !approxEq(got, want, 1e-12) {
			t.Errorf("EntropyMLE uniform m=%d: got %v want %v", m, got, want)
		}
	}
}

func TestEntropyMLEDegenerate(t *testing.T) {
	if EntropyMLE(nil) != 0 {
		t.Error("empty slice should have zero entropy")
	}
	if EntropyMLE([]string{"a", "a", "a"}) != 0 {
		t.Error("constant column should have zero entropy")
	}
}

func TestEntropyMLEKnownBernoulli(t *testing.T) {
	// 25 a's and 75 b's: H = -(1/4)ln(1/4) - (3/4)ln(3/4).
	var xs []string
	for i := 0; i < 25; i++ {
		xs = append(xs, "a")
	}
	for i := 0; i < 75; i++ {
		xs = append(xs, "b")
	}
	want := -(0.25*math.Log(0.25) + 0.75*math.Log(0.75))
	if got := EntropyMLE(xs); !approxEq(got, want, 1e-12) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestJointEntropyMLEIdentical(t *testing.T) {
	// H(X,X) = H(X).
	xs := []string{"a", "b", "b", "c", "c", "c"}
	if !approxEq(JointEntropyMLE(xs, xs), EntropyMLE(xs), 1e-12) {
		t.Error("H(X,X) should equal H(X)")
	}
}

func TestJointEntropyMLEIndependentBound(t *testing.T) {
	// H(X,Y) <= H(X) + H(Y), with equality iff empirically independent.
	rng := rand.New(rand.NewSource(7))
	xs := make([]string, 4000)
	ys := make([]string, 4000)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", rng.Intn(5))
		ys[i] = fmt.Sprintf("y%d", rng.Intn(7))
	}
	hx, hy, hxy := EntropyMLE(xs), EntropyMLE(ys), JointEntropyMLE(xs, ys)
	if hxy > hx+hy+1e-12 {
		t.Errorf("subadditivity violated: H(X,Y)=%v > H(X)+H(Y)=%v", hxy, hx+hy)
	}
	if hxy < math.Max(hx, hy)-1e-12 {
		t.Errorf("H(X,Y)=%v below max marginal %v", hxy, math.Max(hx, hy))
	}
}

func TestJointEntropyPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	JointEntropyMLE([]string{"a"}, []string{"a", "b"})
}

func TestJointEntropyNoAmbiguity(t *testing.T) {
	// ("ab","c") and ("a","bc") pairs must count as distinct joint cells.
	h := JointEntropyMLE([]string{"ab", "a"}, []string{"c", "bc"})
	if h != math.Log(2) {
		t.Errorf("joint entropy of two distinct cells = %v, want ln 2", h)
	}
}

func TestEntropySubadditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		xs := make([]string, n)
		ys := make([]string, n)
		for i := range xs {
			xs[i] = fmt.Sprintf("%d", rng.Intn(1+rng.Intn(20)))
			ys[i] = fmt.Sprintf("%d", rng.Intn(1+rng.Intn(20)))
		}
		hx, hy, hxy := EntropyMLE(xs), EntropyMLE(ys), JointEntropyMLE(xs, ys)
		return hxy <= hx+hy+1e-9 && hxy >= math.Max(hx, hy)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMLEBiasApprox(t *testing.T) {
	// Eq. 6 with mx=my=10, mxy=100, N=1000 -> (10+10-100-1)/2000 < 0.
	got := MLEBiasApprox(10, 10, 100, 1000)
	want := (10.0 + 10 - 100 - 1) / 2000.0
	if !approxEq(got, want, 1e-15) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestDistinctCount(t *testing.T) {
	if DistinctCount([]string{"a", "b", "a", "c"}) != 3 {
		t.Error("DistinctCount wrong")
	}
	if DistinctCount(nil) != 0 {
		t.Error("DistinctCount(nil) should be 0")
	}
}
