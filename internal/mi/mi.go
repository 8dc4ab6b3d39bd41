// Package mi implements the mutual information estimators evaluated in the
// paper, all returning MI in nats:
//
//   - MLE: the maximum-likelihood (plug-in) estimator for discrete–discrete
//     pairs, Î = Ĥ(X) + Ĥ(Y) − Ĥ(X,Y) over empirical frequencies.
//   - KSG: Kraskov–Stögbauer–Grassberger algorithm 1 for
//     continuous–continuous pairs (2004).
//   - MixedKSG: Gao–Kannan–Oh–Viswanath estimator (NeurIPS 2017) for
//     variables that are mixtures of discrete and continuous distributions
//     (it recovers the plug-in estimator in discrete regions).
//   - DCKSG: Ross's estimator (PLoS ONE 2014) for discrete–continuous
//     pairs.
//
// Estimate dispatches on column types exactly as Section V prescribes:
// string–string → MLE, numeric–numeric → MixedKSG, mixed → DCKSG.
package mi

import (
	"math/rand"
)

// DefaultK is the neighbor count used by the KSG-family estimators unless
// the caller overrides it.
const DefaultK = 3

// Estimator identifies which estimator produced an MI value. Estimates
// from different estimators have different bias/variance profiles and the
// paper cautions against comparing them directly (Section V-C3).
type Estimator string

// The estimator names.
const (
	EstMLE      Estimator = "MLE"
	EstKSG      Estimator = "KSG"
	EstMixedKSG Estimator = "Mixed-KSG"
	EstDCKSG    Estimator = "DC-KSG"
)

// MLE returns the plug-in MI estimate for two discrete (categorical)
// columns: Ĥ(X) + Ĥ(Y) − Ĥ(X,Y) over empirical frequencies, computed in
// one pass over interned category IDs. Its bias is approximately
// (m_X + m_Y − m_XY − 1)/(2N) (Eq. 6 of the paper).
//
// MLE, KSG, MixedKSG, DCKSG, and Estimate are thin wrappers running the
// Scratch implementations on fresh per-call state; callers estimating in
// a loop should reuse one Scratch per goroutine instead.
func MLE(xs, ys []string) float64 {
	var s Scratch
	return s.MLE(xs, ys)
}

// KSG returns the Kraskov et al. (2004) algorithm-1 MI estimate for two
// continuous columns:
//
//	Î = ψ(k) + ψ(N) − ⟨ψ(n_x+1) + ψ(n_y+1)⟩
//
// where, per point i, ρ_i is the L∞ distance to its k-th nearest neighbor
// in the joint space and n_x, n_y count points whose marginal distance is
// strictly below ρ_i. Ties in the data violate KSG's assumptions; use
// MixedKSG when ties are possible.
func KSG(xs, ys []float64, k int) float64 {
	var s Scratch
	return s.KSG(xs, ys, k)
}

// MixedKSG returns the Gao et al. (2017) MI estimate for columns that may
// mix continuous values with repeated (discrete) values:
//
//	Î = (1/N) Σ_i [ ψ(k̃_i) + ln N − ψ(n_x,i) − ψ(n_y,i) ]
//
// following the authors' reference implementation, in which the counts
// n_x, n_y include the point itself (so in the continuous regime the
// per-point term matches KSG algorithm 1 exactly). For points whose k-th
// joint neighbor distance ρ_i is positive, k̃_i = k and the marginal
// counts are strict (< ρ_i); for points in a discrete region (ρ_i = 0),
// k̃_i is the number of joint ties including the point itself and the
// marginal counts are the tie counts, which recovers the plug-in
// estimator there.
func MixedKSG(xs, ys []float64, k int) float64 {
	var s Scratch
	return s.MixedKSG(xs, ys, k)
}

// DCKSG returns Ross's (2014) MI estimate between a discrete column cs and
// a continuous column ys:
//
//	Î = ψ(N) + ψ(k) − ⟨ψ(N_c)⟩ − ⟨ψ(m)⟩
//
// For each point, the distance d to its k-th nearest neighbor among
// same-class points is found in the continuous space, and m counts how
// many points of any class fall within d. Points whose class occurs only
// once are excluded (their within-class neighborhood is undefined), and k
// is reduced to N_c − 1 for small classes, following the reference
// implementation.
func DCKSG(cs []string, ys []float64, k int) float64 {
	var s Scratch
	return s.DCKSG(cs, ys, k)
}

// Column is a typed sample column handed to Estimate: exactly one of Num
// or Str must be non-nil.
type Column struct {
	Num []float64
	Str []string
}

// NumericColumn wraps a float slice.
func NumericColumn(vals []float64) Column { return Column{Num: vals} }

// CategoricalColumn wraps a string slice.
func CategoricalColumn(vals []string) Column { return Column{Str: vals} }

// IsNumeric reports whether the column holds continuous values.
func (c Column) IsNumeric() bool { return c.Num != nil }

// Len returns the column length.
func (c Column) Len() int {
	if c.IsNumeric() {
		return len(c.Num)
	}
	return len(c.Str)
}

// Result is an MI estimate along with the estimator that produced it.
type Result struct {
	MI        float64
	Estimator Estimator
	N         int // sample size the estimate was computed on
}

// Estimate computes MI between two sample columns using the estimator the
// paper prescribes for their types: MLE for string–string, MixedKSG for
// numeric–numeric, and DC-KSG when exactly one side is numeric. The
// result is clamped at 0 (MI is nonnegative; the KSG family can return
// slightly negative values on small samples, and reference
// implementations clamp the same way).
func Estimate(x, y Column, k int) Result {
	var s Scratch
	return s.Estimate(x, y, k)
}

// Perturb returns a copy of xs with i.i.d. Gaussian noise of standard
// deviation sigma added, the paper's device for making a discrete ordered
// marginal continuous without materially changing its MI ("breaking ties
// using random Gaussian noise of low magnitude").
func Perturb(xs []float64, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + sigma*rng.NormFloat64()
	}
	return out
}

func checkNumericPair(xs, ys []float64, k int) int {
	if len(xs) != len(ys) {
		panic("mi: paired slices must have equal length")
	}
	if k <= 0 {
		panic("mi: k must be positive")
	}
	if len(xs) <= k {
		return 0 // not enough samples for a k-NN query
	}
	return len(xs)
}
