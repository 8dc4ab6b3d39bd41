package mi

import (
	"cmp"
	"math"
	"slices"

	"misketch/internal/knn"
	"misketch/internal/stats"
)

// Scratch owns every piece of reusable state the MI estimators need —
// the neighbor grid with its sorted marginals, the joined-pair slices
// core's scratch join fills, and the category interning maps and
// count slices behind the plug-in estimator — so that steady-state
// estimation (the ranking hot path, one estimate per candidate) performs
// zero heap allocations per call once the buffers have grown to the
// workload's size.
//
// The zero value is ready to use. A Scratch is NOT safe for concurrent
// use; give each worker goroutine its own. Results are bit-identical to
// the package-level MLE/KSG/MixedKSG/DCKSG/Estimate functions, which are
// thin wrappers running the same code on a fresh Scratch.
type Scratch struct {
	// JoinYNum/JoinXNum/JoinYStr/JoinXStr are the joined-pair buffers
	// package core's scratch join writes the recovered sample into.
	// Estimate reads them (via the columns aliasing them) and never
	// mutates them; they stay valid until the next scratch join.
	JoinYNum, JoinXNum []float64
	JoinYStr, JoinXStr []string

	// KSG-family state: the joint-space neighbor grid, cut at the
	// marginal quantiles and rebuilt in place per estimate at every
	// sample size; its sorted marginals serve the interval counts.
	grid knn.Grid2D
	// Ranked-path buffers: each value's rank within the sorted
	// marginals (Mixed-KSG's and DC-KSG's), DC-KSG's global sorted
	// copy, and the batch k-NN distances.
	rankX, rankY []int32
	global       []float64
	rho          []float64

	// Plug-in (MLE) state: marginal interning maps and count slices,
	// plus the joint-cell map keyed by packed marginal IDs. IDs are
	// assigned in first-appearance order and all entropy sums run over
	// the count slices, never over map iteration, so results are
	// deterministic to the last bit.
	xLevels map[string]int
	yLevels map[string]int
	jLevels map[uint64]int
	xCounts []int
	yCounts []int
	jCounts []int

	// DC-KSG state: per-row class IDs and places among the class's rows,
	// per-class counts, section starts and fill cursors, the masked values
	// sorted per class section (the global sorted copy and both ranks use
	// the ranked-path buffers), and the value order when sorted here.
	rowClass    []int32
	rowSlot     []int32
	classCounts []int
	classStart  []int
	classCursor []int
	classSorted []float64
	order       []int32

	// Cheap-tier (cascade) state: dense per-row IDs for categorical
	// columns, flat marginal count arrays, the flat joint count array
	// together with the touched-cell list that bounds its clearing cost
	// by the sample size, the interning maps for categorical columns and
	// the p·log p memo. Kept separate from the MLE/DC-KSG state so a
	// cheap-tier pass between a scratch join and the exact estimator
	// cannot disturb either.
	cheapXIDs, cheapYIDs       []int32
	cheapXCounts, cheapYCounts []int32
	cheapJoint                 []int32 // all-zero between calls (cleared via cheapTouched)
	cheapTouched               []int32
	cheapXLevels, cheapYLevels map[string]int32
	cheapTerms                 []cheapTerm // indexed by count, stamped with n
	// The x side CheapMIKeep kept — IDs in cheapXIDs, its entropy — and
	// the key and bin count it was kept under; key 0: nothing kept.
	cheapX     cheapSide
	cheapXKey  uint64
	cheapXBins int
	cheapHX    float64
}

// MLE returns the plug-in MI estimate for two discrete (categorical)
// columns in a single pass: both marginals are interned to dense IDs,
// joint cells are keyed by the packed ID pair, and Ĥ(X) + Ĥ(Y) − Ĥ(X,Y)
// is computed from the three count vectors.
func (s *Scratch) MLE(xs, ys []string) float64 {
	if len(xs) != len(ys) {
		panic("mi: MLE requires equal-length slices")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	s.xLevels = emptied(s.xLevels)
	s.yLevels = emptied(s.yLevels)
	s.jLevels = emptied(s.jLevels)
	s.xCounts = s.xCounts[:0]
	s.yCounts = s.yCounts[:0]
	s.jCounts = s.jCounts[:0]
	for i := 0; i < n; i++ {
		xi, ok := s.xLevels[xs[i]]
		if !ok {
			xi = len(s.xCounts)
			s.xLevels[xs[i]] = xi
			s.xCounts = append(s.xCounts, 0)
		}
		s.xCounts[xi]++
		yi, ok := s.yLevels[ys[i]]
		if !ok {
			yi = len(s.yCounts)
			s.yLevels[ys[i]] = yi
			s.yCounts = append(s.yCounts, 0)
		}
		s.yCounts[yi]++
		key := uint64(xi)<<32 | uint64(yi)
		ji, ok := s.jLevels[key]
		if !ok {
			ji = len(s.jCounts)
			s.jLevels[key] = ji
			s.jCounts = append(s.jCounts, 0)
		}
		s.jCounts[ji]++
	}
	return stats.EntropyFromCounts(s.xCounts, n) +
		stats.EntropyFromCounts(s.yCounts, n) -
		stats.EntropyFromCounts(s.jCounts, n)
}

// emptied returns the interning map m with no entries, made on first use.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V, 64)
	}
	clear(m)
	return m
}

// knnDists rebuilds the neighbor grid over the sample — from the
// caller's value orders when h carries both, sorting each axis
// otherwise — and returns every point's k-NN distance, self excluded,
// in sample order. A NaN value puts its point at a NaN distance from
// every other, and an infinite one at a NaN or infinite distance,
// neither of which is ever among the k best: that point, and any point
// left with fewer than k finite distances, reads +Inf.
func (s *Scratch) knnDists(xs, ys []float64, k int, h Hints) []float64 {
	if len(h.XOrder) == len(xs) && len(h.YOrder) == len(ys) {
		s.grid.ResetOrdered(xs, ys, h.XOrder, h.YOrder)
	} else {
		s.grid.Reset(xs, ys)
	}
	rho := sized(&s.rho, len(xs))
	s.grid.AllKNNDist(k, rho)
	return rho
}

// ranks returns each point's position in the grid's sorted marginals,
// from the orders its last reset placed the points by, so the interval
// counts walk outward from it instead of searching; ok is false when the
// sample holds NaN, whose counts search.
func (s *Scratch) ranks() (rankX, rankY []int32, ok bool) {
	xo, yo := s.grid.Orders()
	if xo == nil {
		return nil, nil, false
	}
	rankX, rankY = sized(&s.rankX, len(xo)), sized(&s.rankY, len(yo))
	for pos, j := range xo {
		rankX[j] = int32(pos)
	}
	for pos, j := range yo {
		rankY[j] = int32(pos)
	}
	return rankX, rankY, true
}

// KSG returns the Kraskov et al. (2004) algorithm-1 MI estimate; see the
// package-level KSG for the formula. The neighbor grid and its sorted
// marginals are rebuilt in place.
func (s *Scratch) KSG(xs, ys []float64, k int) float64 {
	n := checkNumericPair(xs, ys, k)
	if n == 0 {
		return 0
	}
	rhos := s.knnDists(xs, ys, k, Hints{})
	sx, sy := s.grid.Marginals()
	rankX, rankY, ranked := s.ranks()
	vx, vy := sx.Values(), sy.Values()
	sum := 0.0
	for i, rho := range rhos {
		var nx, ny int
		if ranked {
			nx, ny = knn.RangeCountStrict(vx, int(rankX[i]), rho), knn.RangeCountStrict(vy, int(rankY[i]), rho)
		} else {
			nx, ny = sx.CountStrictlyWithin(xs[i], rho, 1), sy.CountStrictlyWithin(ys[i], rho, 1)
		}
		sum += stats.DigammaInt(nx+1) + stats.DigammaInt(ny+1)
	}
	return stats.DigammaInt(k) + stats.DigammaInt(n) - sum/float64(n)
}

// Hints carries optional precomputed orderings a caller (the ranking hot
// path) can supply to spare the estimator its per-call sorts: XOrder and
// YOrder are the ascending orders of the x and y columns — Order[j] is
// the index of the j-th smallest value, equal values in any order. Each
// is used on its own: DC-KSG reads the order of its one numeric column,
// Mixed-KSG reads both and sorts for itself unless it has both, the
// plug-in reads neither. An order of the wrong length is ignored.
// Hinted estimates are bit-identical to unhinted ones.
type Hints struct {
	XOrder []int32
	YOrder []int32
}

// MixedKSG returns the Gao et al. (2017) MI estimate; see the
// package-level MixedKSG for the formula and tie handling.
func (s *Scratch) MixedKSG(xs, ys []float64, k int) float64 {
	return s.mixedKSG(xs, ys, k, Hints{})
}

func (s *Scratch) mixedKSG(xs, ys []float64, k int, h Hints) float64 {
	n := checkNumericPair(xs, ys, k)
	if n == 0 {
		return 0
	}
	rhos := s.knnDists(xs, ys, k, h)
	sx, sy := s.grid.Marginals()
	rankX, rankY, ranked := s.ranks()
	vx, vy := sx.Values(), sy.Values()
	logN := math.Log(float64(n))
	sum := 0.0
	for i, rho := range rhos {
		ktilde, nx, ny := k, 0, 0 // all counts include the point itself
		switch {
		case rho == 0 && ranked:
			ktilde = s.grid.CountJointTies(i)
			nx, ny = knn.RangeCountTies(vx, int(rankX[i])), knn.RangeCountTies(vy, int(rankY[i]))
		case rho == 0:
			ktilde = s.grid.CountJointTies(i)
			nx, ny = sx.CountWithin(xs[i], 0, 1)+1, sy.CountWithin(ys[i], 0, 1)+1
		case ranked:
			nx = knn.RangeCountStrict(vx, int(rankX[i]), rho) + 1
			ny = knn.RangeCountStrict(vy, int(rankY[i]), rho) + 1
		default:
			nx = sx.CountStrictlyWithin(xs[i], rho, 1) + 1
			ny = sy.CountStrictlyWithin(ys[i], rho, 1) + 1
		}
		sum += stats.DigammaInt(ktilde) + logN -
			stats.DigammaInt(nx) - stats.DigammaInt(ny)
	}
	return sum / float64(n)
}

// DCKSG returns Ross's (2014) MI estimate between a discrete column cs
// and a continuous column ys; see the package-level DCKSG for the
// formula.
func (s *Scratch) DCKSG(cs []string, ys []float64, k int) float64 {
	return s.dcKSG(cs, ys, k, nil)
}

// dcKSG is DCKSG driven by the ascending order of ys (order[j] is the
// row of the j-th smallest value, ties in any order): the caller's when
// it has len(ys) entries, sorted here otherwise. ONE pass over it appends
// every masked value to the global sorted array and to its class's
// sorted section and records both ranks at the row's class-grouped
// position, so a point's in-class k-NN distance is a k-step walk outward
// from its class rank and its neighborhood count a walk outward from its
// global rank — nothing is sorted or searched for again. The sums run
// over classes in first-appearance order and rows in row order inside a
// class, which fixes the result to the last bit whichever valid order
// drove the pass (ranks inside a run of equal values differ, no distance
// or count does).
func (s *Scratch) dcKSG(cs []string, ys []float64, k int, order []int32) float64 {
	if len(cs) != len(ys) {
		panic("mi: DCKSG requires equal-length slices")
	}
	if k <= 0 {
		panic("mi: k must be positive")
	}
	n := len(cs)
	s.xLevels = emptied(s.xLevels)
	rowClass, rowSlot := sized(&s.rowClass, n), sized(&s.rowSlot, n)
	s.classCounts = s.classCounts[:0]
	for i, c := range cs {
		id, ok := s.xLevels[c]
		if !ok {
			id = len(s.classCounts)
			s.xLevels[c] = id
			s.classCounts = append(s.classCounts, 0)
		}
		rowClass[i] = int32(id)
		rowSlot[i] = int32(s.classCounts[id]) // the row's place among its class's rows
		s.classCounts[id]++
	}
	// Points from singleton classes have no within-class neighborhood
	// and are masked out, as in the reference implementation.
	nClasses := len(s.classCounts)
	classStart, classCursor := sized(&s.classStart, nClasses), sized(&s.classCursor, nClasses)
	masked := 0
	for id, c := range s.classCounts {
		classStart[id] = masked
		classCursor[id] = masked
		if c > 1 {
			masked += c
		}
	}
	if masked < 2 {
		return 0
	}
	if len(order) != n {
		order = s.ascending(ys)
	}
	global, classSorted := sized(&s.global, masked)[:0], sized(&s.classSorted, masked)
	globalRank, classRank := sized(&s.rankX, masked), sized(&s.rankY, masked)
	for _, i := range order {
		id := rowClass[i]
		if s.classCounts[id] <= 1 {
			continue
		}
		at := classStart[id] + int(rowSlot[i])
		globalRank[at] = int32(len(global))
		global = append(global, ys[i])
		c := classCursor[id]
		classCursor[id] = c + 1
		classRank[at] = int32(c)
		classSorted[c] = ys[i]
	}
	nMasked := float64(masked)
	var sumK, sumNc, sumM float64
	for id, nc := range s.classCounts {
		if nc <= 1 {
			continue
		}
		ki := k
		if ki > nc-1 {
			ki = nc - 1
		}
		start := classStart[id]
		class := classSorted[start : start+nc]
		for at := start; at < start+nc; at++ {
			d := kthNearest(class, int(classRank[at])-start, ki)
			var m int
			if d == 0 {
				// Tied neighborhood: count exact ties (self included), as
				// the reference implementation's zero-radius query does.
				m = knn.RangeCountTies(global, int(globalRank[at]))
			} else {
				// Strictly-within count, self included (distance 0 < d).
				m = knn.RangeCountStrict(global, int(globalRank[at]), d) + 1
			}
			sumK += stats.DigammaInt(ki)
			sumNc += stats.DigammaInt(nc)
			sumM += stats.DigammaInt(m)
		}
	}
	return stats.Digamma(nMasked) + (sumK-sumNc-sumM)/nMasked
}

// ascending sorts the rows of ys by value for a caller that brings no
// order; cmp.Compare ranks NaN lowest, so any input has one.
func (s *Scratch) ascending(ys []float64) []int32 {
	order := s.order[:0]
	for i := range ys {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ys[a], ys[b]) })
	s.order = order
	return order
}

// kthNearest returns the distance from sorted[rank] to the k-th nearest
// of the other values, k < len(sorted): a merge of the two runs leaving
// rank, the upper one first on equal distances.
func kthNearest(sorted []float64, rank, k int) float64 {
	x := sorted[rank]
	lo, hi := rank-1, rank+1
	var d float64
	for ; k > 0; k-- {
		if lo >= 0 && (hi == len(sorted) || x-sorted[lo] < sorted[hi]-x) {
			d = x - sorted[lo]
			lo--
		} else {
			d = sorted[hi] - x
			hi++
		}
	}
	return d
}

// Estimate computes MI between two sample columns using the estimator
// the paper prescribes for their types, exactly like the package-level
// Estimate, but on reusable scratch state.
func (s *Scratch) Estimate(x, y Column, k int) Result {
	return s.EstimateHinted(x, y, k, Hints{})
}

// EstimateHinted is Estimate with optional precomputed orderings (see
// Hints): every estimator with a numeric column reads that column's
// order, and the result is bit-identical to Estimate's.
func (s *Scratch) EstimateHinted(x, y Column, k int, h Hints) Result {
	if x.Len() != y.Len() {
		panic("mi: Estimate requires equal-length columns")
	}
	r := Result{N: x.Len()}
	switch {
	case !x.IsNumeric() && !y.IsNumeric():
		r.Estimator = EstMLE
		r.MI = s.MLE(x.Str, y.Str)
	case x.IsNumeric() && y.IsNumeric():
		r.Estimator = EstMixedKSG
		if r.N > k {
			r.MI = s.mixedKSG(x.Num, y.Num, k, h)
		}
	case x.IsNumeric():
		r.Estimator = EstDCKSG
		if r.N > k {
			r.MI = s.dcKSG(y.Str, x.Num, k, h.XOrder)
		}
	default:
		r.Estimator = EstDCKSG
		if r.N > k {
			r.MI = s.dcKSG(x.Str, y.Num, k, h.YOrder)
		}
	}
	if r.MI < 0 {
		r.MI = 0
	}
	return r
}
