package mi

import "math"

// This file implements the cascade's cheap tier: a single-pass, interned,
// equal-width-binned plug-in (MLE) estimate. It is the Section II
// discretize-then-MLE estimator
// (binned.go) rebuilt for the ranking hot path — values are binned to
// dense integer IDs instead of string labels, counts live in flat
// reusable arrays instead of maps, and the joint table is cleared through
// a touched-cell list so the steady-state cost is O(n) with zero heap
// allocations. The paper's criticism of binned MLE (information loss,
// bin-count-dependent bias) is exactly why it is only a *tier*: its score
// orders candidates cheaply, and every candidate whose cheap score could
// still contend is re-scored by the exact KSG-family estimator.

// DefaultCheapBins is the equal-width bin count the cheap tier uses for
// numeric columns, chosen by the margin calibration experiment
// (exp.RunCascadeCalib) for *discrimination*, not accuracy: what makes a
// pair prunable is its cheap score plus the safety margin staying below
// the K-th exact MI, so the operative quantity is how far independent
// pairs score above zero (sparse-table overdispersion — at sketch-scale
// joins a 64-bin joint table is mostly singleton cells and independent
// pairs score well over a nat, at 128 bins nothing prunes at all) plus
// the margin the bin count needs (underestimation of strong dependence,
// which grows as bins shrink but is capped by the saturation guard).
// 16 bins minimize that sum: independent sketch-scale pairs score
// ≈ 0.4–0.9 nats and the calibrated violation-free margin is 1.25, so
// any pair more than ≈ 2 nats below the current K-th is settled cheaply.
const DefaultCheapBins = 16

// CheapResult is the cheap tier's output for one candidate pair.
type CheapResult struct {
	// MI is the raw binned plug-in estimate in nats. Deliberately
	// uncorrected: the plug-in estimator's upward bias (paper Eq. 6,
	// ≈ (m_XY − m_X − m_Y + 1)/(2N)) partially offsets the information
	// binning destroys, which is exactly the direction a pruning score
	// wants to err — overestimation only costs an unnecessary exact run,
	// underestimation is what the cascade margin must cover. Calibration
	// (exp.RunCascadeCalib) measured Miller–Madow-corrected scores
	// underestimating KSG-family results by ~1 nat on the synthetic
	// dependence families; the raw score keeps the residual within the
	// default margin instead.
	MI float64
	// Ceil is the smaller of the two binned marginal entropies — the
	// largest MI the binned view could possibly express for this pair.
	// A score close to its Ceil means the binning itself is saturated
	// and may be hiding arbitrarily more dependence (a near-functional
	// continuous relationship collapses into few cells), so callers must
	// treat such pairs as unprunable rather than trust the score.
	Ceil float64
}

// CheapMI computes the cheap-tier score for a joined pair: both columns
// are reduced to dense integer IDs (numeric values by equal-width binning
// into bins cells, exactly as Discretize/BinEqualWidth places them;
// categorical values by interning), and the plug-in MI is computed from
// flat count arrays. Results are deterministic to the last bit; the
// scratch's join buffers and exact-estimator state are untouched, so a
// cheap pass between a scratch join and EstimateHinted is safe.
//
// After the two reductions one loop does all the counting: per sample it
// bins or looks up both IDs and increments both marginals and the joint
// cell. Three invariants keep the bits what the multi-pass reference
// (cheapMIReference in the tests) produces: a numeric ID is the
// reference's (v-lo)/width expression with its clamps and NaN rule; the
// marginal entropies sum in ID order and the joint entropy in the order
// cells were first touched; and every term is float64(p * math.Log(p)),
// rounded before it is subtracted, whether it comes from the memo or not.
func (s *Scratch) CheapMI(x, y Column, bins int) CheapResult {
	return s.CheapMIKeep(0, x, y, nil, bins)
}

// CheapY is a y column's IDs as the cheap tier counts them, and their number.
type CheapY struct {
	IDs  []uint8
	Card int32
}

// CheapMIKeep is CheapMI for a caller that scores one column against
// many, bit for bit. A nonzero xKey names x: the call keeps x's IDs and
// entropy under it, and the next call with the same key and bins reuses
// them instead of reading x, so a caller gives one key to one column
// only; a call that reduces an x of its own overwrites them. An empty *ky
// is filled with y's IDs unless they are over 256 or the pair overflows
// the flat joint table; a filled one (at the same bins) stands in for y.
func (s *Scratch) CheapMIKeep(xKey uint64, x, y Column, ky *CheapY, bins int) CheapResult {
	n, take := x.Len(), ky != nil && ky.Card > 0
	if (!take && y.Len() != n) || (take && len(ky.IDs) != n) {
		panic("mi: CheapMI requires equal-length columns")
	}
	if bins <= 0 {
		panic("mi: bins must be positive")
	}
	if n == 0 {
		return CheapResult{}
	}
	kept := xKey != 0 && xKey == s.cheapXKey && bins == s.cheapXBins
	xs := s.cheapX
	if !kept {
		s.cheapXKey = 0 // the IDs it names are rewritten here
		xs = cheapReduce(x, bins, &s.cheapXIDs, &s.cheapXLevels)
		if xKey != 0 {
			xs.materialize(bins, &s.cheapXIDs)
		}
	}
	var ys cheapSide
	if take {
		ys = cheapSide{ids: sized(&s.cheapYIDs, n), card: ky.Card}
		for i, id := range ky.IDs {
			ys.ids[i] = int32(id)
		}
	} else {
		ys = cheapReduce(y, bins, &s.cheapYIDs, &s.cheapYLevels)
		if ky != nil {
			ys.materialize(bins, &s.cheapYIDs)
		}
	}
	cells := int64(xs.card) * int64(ys.card)
	flat := cells <= cheapMaxFlatCells
	if !flat {
		// Two high-cardinality categorical columns (or one against many
		// bins) can overflow any flat layout; the joint cells then go
		// through cheapJointMap, which reads both sides as IDs.
		xs.materialize(bins, &s.cheapXIDs)
		ys.materialize(bins, &s.cheapYIDs)
		cells = 0
	}
	xc, yc := sized(&s.cheapXCounts, int(xs.card)), sized(&s.cheapYCounts, int(ys.card))
	clear(xc)
	clear(yc)
	// The joint table's whole backing array is all-zero between calls:
	// only the cells a call touched are re-zeroed, so its cost is O(n)
	// whatever the table size.
	joint := sized(&s.cheapJoint, int(cells))
	touched, k := sized(&s.cheapTouched, n), 0
	for i := 0; i < n; i++ {
		a, b := xs.id(i, bins), ys.id(i, bins)
		xc[a]++
		yc[b]++
		if flat {
			// First-touch append without a branch: on a sparse table
			// "is this cell new" is a coin flip no predictor wins, so the
			// cell is always stored and the cursor advances by
			// joint[c] == 0 (counts are nonnegative: c-1 has its sign
			// bit set only at zero).
			c := a*ys.card + b
			touched[k] = c
			k += int(uint32(joint[c]-1) >> 31)
			joint[c]++
		}
	}
	if len(s.cheapTerms) <= n {
		s.cheapTerms = make([]cheapTerm, n+1)
	}
	var hx, hy, hxy float64
	if kept {
		hx = s.cheapHX
	} else {
		for _, c := range xc {
			if c != 0 {
				hx -= s.plogp(c, n)
			}
		}
		if xKey != 0 {
			s.cheapX, s.cheapXKey, s.cheapXBins, s.cheapHX = xs, xKey, bins, hx
		}
	}
	for _, c := range yc {
		if c != 0 {
			hy -= s.plogp(c, n)
		}
	}
	if flat {
		for _, c := range touched[:k] {
			hxy -= s.plogp(joint[c], n)
			joint[c] = 0
		}
	} else {
		hxy = s.cheapJointMap(n)
	}
	if ky != nil && !take && flat && ys.card <= 256 {
		*ky = CheapY{IDs: make([]uint8, n), Card: ys.card}
		for i, id := range ys.ids {
			ky.IDs[i] = uint8(id)
		}
	}
	return CheapResult{MI: hx + hy - hxy, Ceil: math.Min(hx, hy)}
}

// cheapMaxFlatCells bounds the flat joint table (1 MiB of int32 cells).
// Every pair with a binned numeric side sits far below it (≤ bins·n
// cells); only categorical–categorical pairs with tens of thousands of
// distinct values on both sides overflow into the map path.
const cheapMaxFlatCells = 1 << 18

// cheapTerm memoises one entropy term p·log p, p = c/n, at index c of
// Scratch.cheapTerms. It is stamped with the n it was computed for, so
// a call with another n finds every entry stale without clearing any: a
// joined sample has a few hundred cells but about ten distinct counts.
type cheapTerm struct {
	n int
	v float64
}

// plogp returns float64(p * math.Log(p)) for p = c/n, 0 < c <= n. The
// explicit conversion rounds the product before the caller's subtraction
// can fuse with it (arm64 would otherwise emit one FMSUB for a computed
// term and two roundings for a memoised one). The miss is a function of
// its own so that the hit inlines into CheapMI's entropy loops.
func (s *Scratch) plogp(c int32, n int) float64 {
	if t := s.cheapTerms[c]; t.n == n {
		return t.v
	}
	return s.plogpMiss(c, n)
}

func (s *Scratch) plogpMiss(c int32, n int) float64 {
	p := float64(c) / float64(n)
	v := float64(p * math.Log(p))
	s.cheapTerms[c] = cheapTerm{n: n, v: v}
	return v
}

// cheapSide is one column reduced for counting, with IDs in [0, card):
// a categorical column to its first-appearance interned ids, a numeric
// one to the origin and width of its equal-width bins, applied per
// sample by id.
type cheapSide struct {
	num       []float64 // nil when ids carries the column
	ids       []int32
	lo, width float64
	card      int32
}

// cheapReduce reduces a column to a cheapSide: categorical values are
// interned into *ids; numeric values get equal-width bins over the
// observed range. A constant, all-NaN or overflow-wide range collapses
// to one bin, expressed as an infinite width: every quotient is then 0
// or NaN, which id sends to bin 0.
func cheapReduce(c Column, bins int, ids *[]int32, levels *map[string]int32) cheapSide {
	if !c.IsNumeric() {
		*levels = emptied(*levels)
		lv := *levels
		sd := cheapSide{ids: sized(ids, len(c.Str))}
		for i, v := range c.Str {
			id, ok := lv[v]
			if !ok {
				id = sd.card
				lv[v] = id
				sd.card++
			}
			sd.ids[i] = id
		}
		return sd
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.Num {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := (hi - lo) / float64(bins)
	if !(width > 0) || math.IsInf(width, 0) {
		return cheapSide{num: c.Num, width: math.Inf(1), card: 1}
	}
	return cheapSide{num: c.Num, lo: lo, width: width, card: int32(bins)}
}

// id returns sample i's ID.
func (sd *cheapSide) id(i, bins int) int32 {
	if sd.num == nil {
		return sd.ids[i]
	}
	// NaN fails the comparison and stays in bin 0 deterministically.
	if f := (sd.num[i] - sd.lo) / sd.width; f > 0 {
		return int32(min(int(f), bins-1))
	}
	return 0
}

// materialize turns a numeric side into an ID side, for the map path.
func (sd *cheapSide) materialize(bins int, ids *[]int32) {
	if sd.num == nil {
		return
	}
	out := sized(ids, len(sd.num))
	for i := range out {
		out[i] = sd.id(i, bins)
	}
	sd.num, sd.ids = nil, out
}

// sized returns *buf resliced (or reallocated) to n elements of
// unspecified content.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// cheapJointMap is the overflow path for pairs whose ID cross product
// exceeds the flat table: joint cells go through the packed-key map the
// plug-in estimator owns (MLE clears it at its own start, so sharing is
// safe). Entropy is summed over the count slice in first-appearance
// order, deterministically.
func (s *Scratch) cheapJointMap(n int) float64 {
	s.jLevels = emptied(s.jLevels)
	s.jCounts = s.jCounts[:0]
	for i := 0; i < n; i++ {
		key := uint64(uint32(s.cheapXIDs[i]))<<32 | uint64(uint32(s.cheapYIDs[i]))
		ji, ok := s.jLevels[key]
		if !ok {
			ji = len(s.jCounts)
			s.jLevels[key] = ji
			s.jCounts = append(s.jCounts, 0)
		}
		s.jCounts[ji]++
	}
	fn := float64(n)
	h := 0.0
	for _, c := range s.jCounts {
		p := float64(c) / fn
		h -= float64(p * math.Log(p)) // rounded first, like plogp
	}
	return h
}
