package stats

import (
	"math"
	"sort"
)

// MSE returns the mean squared error between the estimate and truth
// slices, which must have equal nonzero length.
func MSE(est, truth []float64) float64 {
	checkPairs(est, truth)
	s := 0.0
	for i := range est {
		d := est[i] - truth[i]
		s += d * d
	}
	return s / float64(len(est))
}

// RMSE returns the root mean squared error.
func RMSE(est, truth []float64) float64 {
	return math.Sqrt(MSE(est, truth))
}

// MeanBias returns the mean signed error (estimate − truth); positive means
// systematic overestimation.
func MeanBias(est, truth []float64) float64 {
	checkPairs(est, truth)
	s := 0.0
	for i := range est {
		s += est[i] - truth[i]
	}
	return s / float64(len(est))
}

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples. It returns NaN if either side has zero variance.
func Pearson(xs, ys []float64) float64 {
	checkPairs(xs, ys)
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	_ = n
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient ρ: the Pearson
// correlation of the average ranks of xs and ys. Ties receive the average
// of the ranks they span (the standard "fractional ranking").
func Spearman(xs, ys []float64) float64 {
	checkPairs(xs, ys)
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs: equal values share the
// average of the rank positions they occupy.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) share average rank ((i+1)+(j+1))/2.
		avg := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

func checkPairs(a, b []float64) {
	if len(a) != len(b) {
		panic("stats: paired slices must have equal length")
	}
	if len(a) == 0 {
		panic("stats: paired slices must be nonempty")
	}
}

// LinearFit returns the ordinary-least-squares slope and intercept of
// y ≈ slope·x + intercept. It panics on mismatched or empty input and
// returns NaN slope when x has zero variance.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	checkPairs(xs, ys)
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return math.NaN(), my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}

// Bin assigns each truth value to one of nbins equal-width bins over
// [lo, hi] and returns, per bin, the mean truth and mean estimate of the
// pairs that landed there, skipping empty bins. The experiment harness
// uses it to render "true MI vs mean estimate" series like the paper's
// figures.
func Bin(truth, est []float64, lo, hi float64, nbins int) (binTruth, binEst []float64) {
	checkPairs(truth, est)
	sumT := make([]float64, nbins)
	sumE := make([]float64, nbins)
	cnt := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for i := range truth {
		b := int((truth[i] - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		sumT[b] += truth[i]
		sumE[b] += est[i]
		cnt[b]++
	}
	for b := 0; b < nbins; b++ {
		if cnt[b] == 0 {
			continue
		}
		binTruth = append(binTruth, sumT[b]/float64(cnt[b]))
		binEst = append(binEst, sumE[b]/float64(cnt[b]))
	}
	return binTruth, binEst
}
