package mi

import (
	"math"
	"math/rand"

	"misketch/internal/stats"
)

// This file implements the estimator extensions the paper points at
// beyond its core evaluation: the Laplace-smoothed plug-in estimator the
// conclusion recommends for controlling false discoveries, and
// subsampling confidence intervals in the spirit of the error bounds
// cited in Section IV-B.

// MLESmoothed returns the Laplace-smoothed plug-in MI estimate with
// pseudocount alpha: joint cells get probability (N_xy + α)/(N + α·m_X·m_Y)
// and marginals the corresponding sums. alpha = 0 recovers MLE exactly.
// Smoothing pulls estimates toward independence, trading the MLE's
// upward bias (high recall) for fewer false discoveries — the trade-off
// the paper's conclusion highlights (citing Pennerath et al. 2020).
func MLESmoothed(xs, ys []string, alpha float64) float64 {
	if len(xs) != len(ys) {
		panic("mi: MLESmoothed requires equal-length slices")
	}
	if alpha < 0 {
		panic("mi: alpha must be nonnegative")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	if alpha == 0 {
		return MLE(xs, ys)
	}
	xIdx := indexLevels(xs)
	yIdx := indexLevels(ys)
	mx, my := len(xIdx), len(yIdx)
	joint := make([]float64, mx*my)
	for i := range xs {
		joint[xIdx[xs[i]]*my+yIdx[ys[i]]]++
	}
	total := float64(n) + alpha*float64(mx)*float64(my)
	// Smoothed marginals: p(x) = (N_x + α·m_Y) / total.
	px := make([]float64, mx)
	py := make([]float64, my)
	for xi := 0; xi < mx; xi++ {
		for yi := 0; yi < my; yi++ {
			c := joint[xi*my+yi] + alpha
			px[xi] += c
			py[yi] += c
		}
	}
	mi := 0.0
	for xi := 0; xi < mx; xi++ {
		for yi := 0; yi < my; yi++ {
			pxy := (joint[xi*my+yi] + alpha) / total
			mi += pxy * math.Log(pxy*total*total/(px[xi]*py[yi]))
		}
	}
	return mi
}

func indexLevels(vals []string) map[string]int {
	idx := make(map[string]int, len(vals))
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			idx[v] = len(idx)
		}
	}
	return idx
}

// Interval is a two-sided confidence interval around an MI estimate.
type Interval struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// EstimateWithCI computes the type-dispatched MI estimate together with a
// subsampling confidence interval in the style of the error bounds the
// paper cites in Section IV-B (Wang & Ding 2019; Chen & Wang 2021):
// reps half-size subsamples are drawn without replacement, the spread of
// their estimates is rescaled to full-sample size via the square-root
// rate, and a normal interval is placed around the full-sample estimate.
// Sampling without replacement matters: bootstrap resampling introduces
// ties, which shifts the k-NN estimators into their discrete regime and
// destroys coverage.
func EstimateWithCI(x, y Column, k, reps int, level float64, rng *rand.Rand) (Result, Interval) {
	if reps < 2 {
		panic("mi: need at least 2 subsample replicates")
	}
	if level <= 0 || level >= 1 {
		panic("mi: confidence level must be in (0,1)")
	}
	res := Estimate(x, y, k)
	n := x.Len()
	m := n / 2
	if m <= k+1 {
		// Too small for meaningful subsampling; degenerate interval.
		return res, Interval{Lo: res.MI, Hi: res.MI, Level: level}
	}
	replicates := make([]float64, reps)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for b := 0; b < reps; b++ {
		// Partial Fisher–Yates: the first m entries form the subsample.
		for i := 0; i < m; i++ {
			j := i + rng.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		sx := subColumn(x, idx[:m])
		sy := subColumn(y, idx[:m])
		replicates[b] = Estimate(sx, sy, k).MI
	}
	// Politis–Romano subsampling: sd(est_n) ≈ sd(est_m)·sqrt(m/(n−m));
	// with m = n/2 the correction factor is 1.
	sd := stats.StdDev(replicates) * math.Sqrt(float64(m)/float64(n-m))
	z := stats.NormalQuantile(0.5 + level/2)
	lo := res.MI - z*sd
	if lo < 0 {
		lo = 0 // MI is nonnegative
	}
	return res, Interval{Lo: lo, Hi: res.MI + z*sd, Level: level}
}

// subColumn projects a column onto the given row indices.
func subColumn(c Column, rows []int) Column {
	if c.IsNumeric() {
		out := make([]float64, len(rows))
		for i, r := range rows {
			out[i] = c.Num[r]
		}
		return NumericColumn(out)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = c.Str[r]
	}
	return CategoricalColumn(out)
}
