package mi

import (
	"cmp"
	"math"
	"slices"

	"misketch/internal/knn"
	"misketch/internal/stats"
)

// Scratch owns every piece of reusable state the MI estimators need —
// the kd-tree backing arrays, the Sorted1D buffers, the joined-pair
// slices core's scratch join fills, and the category interning maps and
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

	// KSG-family state: the joint-space neighbor structures (the
	// ring-expanding uniform grid for sketch-scale samples, the kd-tree
	// beyond gridMaxN) and the per-marginal sorted arrays, all rebuilt
	// in place per estimate.
	pts    []knn.Point
	tree   knn.Tree
	grid   knn.Grid2D
	sx, sy knn.Sorted1D
	// Hinted-path buffers: marginals materialized in sorted order from
	// the caller's precomputed orders, each value's rank within them,
	// and the batch k-NN distances.
	sortedX, sortedY []float64
	rankX, rankY     []int32
	rho              []float64

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
	// the hinted-path buffers), and the value order when sorted here.
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

// gridMaxN is the sample size up to which the KSG-family estimators use
// the ring-expanding uniform grid for joint-space k-NN distances
// instead of a kd-tree. Sketch joins (the ranking hot path) sit far
// below it; full-join estimation at tens of thousands of rows — where
// mass duplication could make the grid's tie counting quadratic — takes
// the tree. Both structures return exact distances from one k-best list,
// hence identical ones, NaN included (see knnDists).
const gridMaxN = 2048

// points fills the reusable joint-space point buffer.
func (s *Scratch) points(xs, ys []float64) []knn.Point {
	n := len(xs)
	if cap(s.pts) < n {
		s.pts = make([]knn.Point, n)
	} else {
		s.pts = s.pts[:n]
	}
	for i := range xs {
		s.pts[i] = knn.Point{X: xs[i], Y: ys[i]}
	}
	return s.pts
}

// knnDists rebuilds the joint-space neighbor structure over the sample
// — the grid up to gridMaxN points, the kd-tree (over s.pts) beyond — and
// returns every point's k-NN distance, self excluded, in sample order.
// Either way a NaN value puts its point at a NaN distance from every
// other, which is never among the k best: that point, and any point
// left with fewer than k non-NaN distances, reads +Inf.
func (s *Scratch) knnDists(xs, ys []float64, k int) []float64 {
	rho := sized(&s.rho, len(xs))
	if len(xs) <= gridMaxN {
		s.grid.Reset(xs, ys)
		s.grid.AllKNNDist(k, rho)
		return rho
	}
	pts := s.points(xs, ys)
	s.tree.Reset(pts)
	for i := range pts {
		rho[i] = s.tree.KNNDist(pts[i], k, i)
	}
	return rho
}

// KSG returns the Kraskov et al. (2004) algorithm-1 MI estimate; see the
// package-level KSG for the formula. The neighbor structures and sorted
// arrays are rebuilt in place.
func (s *Scratch) KSG(xs, ys []float64, k int) float64 {
	n := checkNumericPair(xs, ys, k)
	if n == 0 {
		return 0
	}
	s.sx.Reset(xs)
	s.sy.Reset(ys)
	sum := 0.0
	for i, rho := range s.knnDists(xs, ys, k) {
		nx := s.sx.CountStrictlyWithin(xs[i], rho, 1)
		ny := s.sy.CountStrictlyWithin(ys[i], rho, 1)
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
	logN := math.Log(float64(n))
	sum := 0.0
	switch {
	case n <= gridMaxN && len(h.XOrder) == n && len(h.YOrder) == n:
		// Ranking hot path: marginals materialize from the caller's
		// precomputed orders by O(n) gathers (no sorts), the grid
		// answers every k-NN query in one batched pass, and the
		// interval counts walk outward from each value's known rank.
		sized(&s.sortedX, n)
		sized(&s.sortedY, n)
		sized(&s.rankX, n)
		sized(&s.rankY, n)
		for pos, j := range h.XOrder {
			s.sortedX[pos] = xs[j]
			s.rankX[j] = int32(pos)
		}
		for pos, j := range h.YOrder {
			s.sortedY[pos] = ys[j]
			s.rankY[j] = int32(pos)
		}
		for i, rho := range s.knnDists(xs, ys, k) {
			var ktilde, nx, ny int // all counts include the point itself
			if rho == 0 {
				ktilde = s.grid.CountJointTies(xs[i], ys[i])
				nx = knn.RangeCountTies(s.sortedX, int(s.rankX[i]))
				ny = knn.RangeCountTies(s.sortedY, int(s.rankY[i]))
			} else {
				ktilde = k
				nx = knn.RangeCountStrict(s.sortedX, int(s.rankX[i]), rho) + 1
				ny = knn.RangeCountStrict(s.sortedY, int(s.rankY[i]), rho) + 1
			}
			sum += stats.DigammaInt(ktilde) + logN -
				stats.DigammaInt(nx) - stats.DigammaInt(ny)
		}
	default:
		s.sx.Reset(xs)
		s.sy.Reset(ys)
		for i, rho := range s.knnDists(xs, ys, k) {
			var ktilde, nx, ny int
			if rho == 0 {
				if n <= gridMaxN {
					ktilde = s.grid.CountJointTies(xs[i], ys[i])
				} else {
					ktilde = s.tree.CountWithin(s.pts[i], 0, i) + 1
				}
				nx = s.sx.CountWithin(xs[i], 0, 1) + 1
				ny = s.sy.CountWithin(ys[i], 0, 1) + 1
			} else {
				ktilde = k
				nx = s.sx.CountStrictlyWithin(xs[i], rho, 1) + 1
				ny = s.sy.CountStrictlyWithin(ys[i], rho, 1) + 1
			}
			sum += stats.DigammaInt(ktilde) + logN -
				stats.DigammaInt(nx) - stats.DigammaInt(ny)
		}
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
	global, classSorted := sized(&s.sortedX, masked)[:0], sized(&s.classSorted, masked)
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
