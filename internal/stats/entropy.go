package stats

import "math"

// EntropyMLE returns the maximum-likelihood (plug-in) estimate of the
// Shannon entropy (nats) of the empirical distribution of xs:
//
//	Ĥ = −Σ_i (N_i/N)·ln(N_i/N)
//
// It is the classical empirical entropy, biased downward from the true
// entropy by approximately (m−1)/(2N) (Roulston 1999). Categories are
// interned to dense IDs in first-appearance order, so the summation
// order — and hence the result, to the last bit — is deterministic.
func EntropyMLE(xs []string) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := make(map[string]int, len(xs))
	counts := make([]int, 0, 16)
	for _, x := range xs {
		id, ok := idx[x]
		if !ok {
			id = len(counts)
			idx[x] = id
			counts = append(counts, 0)
		}
		counts[id]++
	}
	return EntropyFromCounts(counts, len(xs))
}

// JointEntropyMLE returns the plug-in estimate of the joint entropy (nats)
// of the paired samples (xs[i], ys[i]). The two slices must have equal
// length. Joint cells are keyed by packed marginal IDs rather than
// concatenated strings, so counting allocates no per-row keys.
func JointEntropyMLE(xs, ys []string) float64 {
	if len(xs) != len(ys) {
		panic("stats: JointEntropyMLE requires equal-length slices")
	}
	if len(xs) == 0 {
		return 0
	}
	xIdx := make(map[string]int, len(xs))
	yIdx := make(map[string]int, len(ys))
	jIdx := make(map[uint64]int, len(xs))
	counts := make([]int, 0, 16)
	for i := range xs {
		xi, ok := xIdx[xs[i]]
		if !ok {
			xi = len(xIdx)
			xIdx[xs[i]] = xi
		}
		yi, ok := yIdx[ys[i]]
		if !ok {
			yi = len(yIdx)
			yIdx[ys[i]] = yi
		}
		key := uint64(xi)<<32 | uint64(yi)
		id, ok := jIdx[key]
		if !ok {
			id = len(counts)
			jIdx[key] = id
			counts = append(counts, 0)
		}
		counts[id]++
	}
	return EntropyFromCounts(counts, len(xs))
}

// EntropyFromCounts returns −Σ (c/n)·ln(c/n) over the positive counts.
// The sum runs in slice order, so equal count multisets in equal order
// give bit-identical results.
func EntropyFromCounts(counts []int, n int) float64 {
	h := 0.0
	fn := float64(n)
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log(p)
	}
	return h
}

// MLEBiasApprox returns the first-order bias of the MLE MI estimator from
// Eq. 6 of the paper: (m_X + m_Y − m_XY − 1) / (2N). Positive values mean
// the estimator overestimates MI by roughly that amount.
func MLEBiasApprox(mx, my, mxy, n int) float64 {
	return float64(mx+my-mxy-1) / (2 * float64(n))
}
