// Package core implements the paper's primary contribution: fixed-size
// sketches that estimate the mutual information between a target column Y
// in a base ("train") table and a feature column X in a candidate table,
// as it would be observed after a many-to-one LEFT JOIN — without
// materializing that join.
//
// Five sketching methods are provided:
//
//   - TUPSK — the proposed tuple-based coordinated sampling: rows are
//     identified by ⟨k, j⟩ (join key + occurrence index) and selected by
//     the n minimum hash values, giving every row the same inclusion
//     probability 1/N regardless of key skew (Section IV-B).
//   - LV2SK — the two-level baseline: coordinated sampling of n distinct
//     keys, then a per-key cap n_k = max(1, ⌊n·N_k/N⌋) (Section IV-A).
//   - PRISK — LV2SK with priority sampling (weighted by key frequency)
//     in the first level.
//   - INDSK — independent uniform sampling with no coordination.
//   - CSK — Correlation Sketches extended to MI: one entry per distinct
//     key holding the first value seen.
//
// A sketch stores tuples ⟨h(k), v⟩. Joining a train sketch with a
// candidate sketch on h(k) recovers a sample of the full join, and any
// sample-based MI estimator (package mi) is applied to it: Î = F(S_join).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"misketch/internal/hash"
	"misketch/internal/knn"
	"misketch/internal/mi"
	"misketch/internal/sample"
	"misketch/internal/table"
)

// Method selects the sampling strategy used to build a sketch.
type Method string

// The five sketching methods evaluated in the paper.
const (
	TUPSK Method = "TUPSK"
	LV2SK Method = "LV2SK"
	PRISK Method = "PRISK"
	INDSK Method = "INDSK"
	CSK   Method = "CSK"
)

// Methods lists every implemented method in the paper's reporting order.
var Methods = []Method{CSK, INDSK, LV2SK, PRISK, TUPSK}

// Role distinguishes the two sides of the augmentation join, which are
// sketched differently: the train side samples rows (repeated keys must
// keep their frequency), while the candidate side aggregates repeated
// keys into a single feature value before sampling.
type Role int

const (
	// RoleTrain marks the base table holding the target column Y.
	RoleTrain Role = iota
	// RoleCandidate marks the external table holding the feature column X.
	RoleCandidate
)

// Options configures sketch construction.
type Options struct {
	// Method is the sampling strategy. Required.
	Method Method
	// Size is the maximum sketch size parameter n. Required.
	// TUPSK, CSK and INDSK store at most n entries; LV2SK and PRISK store
	// at most 2n (Section IV-A).
	Size int
	// Seed is the shared hash seed; sketches can only be joined when they
	// were built with equal seeds. Zero means hash.DefaultSeed.
	Seed uint32
	// RNGSeed seeds the auxiliary randomness used by LV2SK/PRISK
	// second-level sampling and INDSK row selection. The per-table stream
	// is derived from it together with the role so that INDSK's two sides
	// are independent, as the method requires.
	RNGSeed int64
	// Agg is the featurization function applied to repeated candidate
	// keys. Empty means table.AggFirst. Ignored for RoleTrain and for
	// CSK (which, per the paper, keeps the first value seen instead of
	// aggregating).
	Agg table.AggFunc
	// Nulls selects how NULL values in the value column are treated.
	// NULL join keys are always dropped (they never match under SQL
	// semantics), mirroring the paper's policy of discarding
	// NULL-producing rows.
	Nulls NullPolicy
}

// NullPolicy selects the treatment of NULLs in the value column. The
// paper discards NULL rows (its footnote 1 defers other strategies to
// the missing-data MI literature); NullAsCategory implements the
// simplest of those strategies for categorical columns, where
// missingness itself can be informative.
type NullPolicy int

const (
	// NullDrop discards rows whose value is NULL (the default).
	NullDrop NullPolicy = iota
	// NullAsCategory keeps NULL values in categorical columns as a
	// dedicated category. Numeric columns cannot use it.
	NullAsCategory
)

// NullCategory is the label NULL values receive under NullAsCategory.
// The unit separators make collisions with real data implausible.
const NullCategory = "<null>"

func (o *Options) normalize() error {
	switch o.Method {
	case TUPSK, LV2SK, PRISK, INDSK, CSK:
	default:
		return fmt.Errorf("core: unknown sketch method %q", o.Method)
	}
	if o.Size <= 0 {
		return fmt.Errorf("core: sketch size must be positive, got %d", o.Size)
	}
	if o.Seed == 0 {
		o.Seed = hash.DefaultSeed
	}
	if o.Agg == "" {
		o.Agg = table.AggFirst
	}
	return nil
}

// Sketch is a fixed-size summary of one (key column, value column) pair of
// a table, sufficient to estimate MI against any other sketch built with
// the same seed.
type Sketch struct {
	Method  Method
	Role    Role
	Seed    uint32
	Size    int  // the parameter n
	Numeric bool // kind of the value column

	// KeyHashes[i] is h(k) for entry i. Candidate sketches have unique
	// key hashes; train sketches may repeat them.
	KeyHashes []uint32
	// Nums/Strs hold the entry values; exactly one is non-nil per Numeric.
	Nums []float64
	Strs []string

	// SourceRows is the number of usable (non-NULL) rows the sketch was
	// built from.
	SourceRows int

	// valOrder lazily memoizes the ascending order of Nums (see
	// NumValOrder). Cached sketches serve many ranking queries, so the
	// one-time sort amortizes to nothing.
	valOrder atomic.Pointer[[]int32]

	// dupKeys lazily memoizes whether KeyHashes contains a duplicate
	// (see HasDuplicateKeyHashes); batch ranking consults it before
	// trusting a key-overlap prefilter decision.
	dupKeys atomic.Uint32

	// strBytes is what a compressed decode allocated for Strs, which
	// shares one string per distinct value (0: not recorded; StrBytes).
	strBytes int64
}

// NumValOrder returns the ascending order of the sketch's numeric
// values: out[j] is the entry index of the j-th smallest value, ties in
// ascending entry order. The order is computed once and memoized; the
// returned slice must not be modified. It returns nil for categorical
// sketches and for the (never produced by Build) case of NaN values,
// whose ordering would be representation-dependent.
func (s *Sketch) NumValOrder() []int32 {
	if !s.Numeric {
		return nil
	}
	if p := s.valOrder.Load(); p != nil {
		return *p
	}
	// The k-NN package's radix sort, as a Grid2D reset sorts an axis:
	// compressed numeric records recompute this on every decode. It puts
	// NaN first.
	order := knn.Order(s.Nums)
	if len(order) > 0 && math.IsNaN(s.Nums[order[0]]) {
		return nil
	}
	// A racing computation stores an identical slice; either wins.
	s.valOrder.Store(&order)
	return order
}

// Len returns the number of entries stored in the sketch.
func (s *Sketch) Len() int { return len(s.KeyHashes) }

// StrBytes returns the string bytes Strs holds: once per distinct value
// for a compressed decode, which interns them, else summed per row.
func (s *Sketch) StrBytes() int64 {
	if s.strBytes > 0 {
		return s.strBytes
	}
	var n int64
	for _, v := range s.Strs {
		n += int64(len(v))
	}
	return n
}

// values is where a build reads its entry values: row at of col, or —
// for an aggregated candidate build — AGG over group at of the key plan.
type values struct {
	col *table.Column
	agg *table.GroupAgg
}

// appendValue appends the value v holds at at; it is the one place a
// build reads values, so an aggregated build aggregates only what it
// keeps. A categorical value is copied: a table's cells can be
// substrings of its whole input (see table.ReadCSV), which a sketch
// must not keep alive.
func (s *Sketch) appendValue(v values, at int) {
	switch {
	case v.agg != nil && s.Numeric:
		s.Nums = append(s.Nums, v.agg.Num(at))
	case v.agg != nil:
		s.Strs = append(s.Strs, strings.Clone(v.agg.Str(at)))
	case s.Numeric:
		s.Nums = append(s.Nums, v.col.Num[at])
	default:
		s.Strs = append(s.Strs, strings.Clone(v.col.Str[at]))
	}
}

// rowRef identifies a source row — or, in an aggregated candidate
// build, a source group — during sketch construction.
type rowRef struct {
	keyHash uint32
	row     int
}

// liveRow is a usable (non-NULL) row with its key's occurrence index.
type liveRow struct {
	rowRef
	j uint32 // 1-based occurrence index of the key
}

// testHookAggregated, when set, is told how many groups an aggregated
// candidate build evaluated AGG for.
var testHookAggregated func(groups int)

// Build constructs a sketch of (keyCol, valCol) in t for the given role.
// Rows whose key or value is NULL are skipped, implementing the paper's
// policy of discarding NULL-producing rows before estimation. A numeric
// value that is ±Inf, or aggregates to ±Inf, is NULL.
//
// Grouping and key hashes come from t's key plan, shared by every build
// over keyCol. An aggregated candidate build (every method but CSK)
// samples first and aggregates after: selection needs only the hash of
// each key whose group has a value, so AGG runs for the at most Size
// keys the sketch keeps, never for the table.
func Build(t *table.Table, keyCol, valCol string, role Role, opt Options) (*Sketch, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	kc := t.Column(keyCol)
	vc := t.Column(valCol)
	if kc == nil || vc == nil {
		return nil, fmt.Errorf("core: missing column (%q: %v, %q: %v)",
			keyCol, kc != nil, valCol, vc != nil)
	}
	if opt.Nulls == NullAsCategory {
		if vc.Kind != table.KindString {
			return nil, fmt.Errorf("core: NullAsCategory requires a categorical value column")
		}
		if keyCol == valCol {
			return nil, fmt.Errorf("core: key and value columns must differ")
		}
		replaced := make([]string, vc.Len())
		for i := range replaced {
			if vc.IsNull(i) {
				replaced[i] = NullCategory
			} else {
				replaced[i] = vc.Str[i]
			}
		}
		vc = table.NewStringColumn(valCol, replaced)
	}
	if vc.Kind == table.KindFloat && slices.ContainsFunc(vc.Num, func(v float64) bool { return math.IsInf(v, 0) }) {
		// An infinite value is NULL, as NaN is: a sketch never stores
		// ±Inf (an aggregate that overflows to one is NULL too, see
		// GroupAgg.Live).
		nums := slices.Clone(vc.Num)
		for i, v := range nums {
			if math.IsInf(v, 0) {
				nums[i] = math.NaN()
			}
		}
		vc = table.NewFloatColumn(valCol, nums)
	}
	plan, err := t.KeyPlan(keyCol)
	if err != nil {
		return nil, err
	}
	hashes := plan.Hashes(opt.Seed)

	s := &Sketch{
		Method:  opt.Method,
		Role:    role,
		Seed:    opt.Seed,
		Size:    opt.Size,
		Numeric: vc.Kind == table.KindFloat,
	}

	// Collect what is usable — groups with a value when aggregating, rows
	// otherwise — with key hashes and occurrence indexes. Two keys of one
	// table can share a hash; the index tells them apart.
	src := values{col: vc}
	occ := make(map[uint32]uint32, len(hashes))
	var live []liveRow
	if role == RoleCandidate && opt.Method != CSK {
		if src.agg, err = plan.Aggregator(vc, opt.Agg); err != nil {
			return nil, err
		}
		s.Numeric = src.agg.Kind == table.KindFloat
		live = make([]liveRow, 0, len(hashes))
		for g, hk := range hashes {
			if src.agg.Live(g) {
				occ[hk]++
				live = append(live, liveRow{rowRef{hk, g}, occ[hk]})
			}
		}
		if testHookAggregated != nil {
			defer func() { testHookAggregated(src.agg.Evals) }()
		}
	} else {
		rowHash := make([]uint32, t.NumRows())
		for g, hk := range hashes {
			for _, r := range plan.Rows(g) {
				rowHash[r] = hk
			}
		}
		for i, hk := range rowHash {
			if kc.IsNull(i) || vc.IsNull(i) {
				continue
			}
			occ[hk]++
			live = append(live, liveRow{rowRef{hk, i}, occ[hk]})
		}
	}
	s.SourceRows = len(live)
	if len(live) == 0 {
		return s, nil
	}

	switch opt.Method {
	case TUPSK:
		if src.agg == nil || len(live) < len(hashes) {
			plan = nil // the selection depends on which groups are live
		}
		buildTUPSK(s, src, live, opt, plan)
	case LV2SK, PRISK:
		buildTwoLevel(s, src, live, occ, opt, role)
	case CSK:
		buildCSK(s, src, live, opt)
	case INDSK:
		buildINDSK(s, src, live, opt, role)
	}
	return s, nil
}

// buildTUPSK selects the n rows with minimum hu(⟨k, j⟩). An aggregated
// candidate build has one live entry per key, so j = 1 for every one and
// the hashes coordinate with the train side's first occurrences. When
// every group of an aggregated build is live, the selection depends on
// the plan, the seed and the size alone, and plan (nil otherwise) draws
// it once for all of the table's columns.
func buildTUPSK(s *Sketch, src values, live []liveRow, opt Options, plan *table.KeyPlan) {
	pick := func() []int32 {
		kmv := sample.NewKMV[int32](opt.Size)
		for i, r := range live {
			kmv.Offer(hash.UnitTuple(r.keyHash, r.j, opt.Seed), int32(i))
		}
		return kmv.Items()
	}
	var picked []int32
	if plan != nil {
		picked = plan.Sample(opt.Seed, opt.Size, pick)
	} else {
		picked = pick()
	}
	for _, i := range picked {
		s.KeyHashes = append(s.KeyHashes, live[i].keyHash)
		s.appendValue(src, live[i].row)
	}
}

// buildTwoLevel implements LV2SK and PRISK. Level 1 selects n distinct
// keys — by minimum hu(k) for LV2SK, by priority N_k/hu(k) for PRISK.
// Level 2 caps each selected key at n_k = max(1, ⌊n·N_k/N⌋) rows, drawn
// uniformly without replacement.
func buildTwoLevel(s *Sketch, src values, live []liveRow, occ map[uint32]uint32, opt Options, role Role) {
	// Group the live rows by key hash, preserving encounter order.
	rowsByKey := make(map[uint32][]int, len(occ))
	for _, r := range live {
		rowsByKey[r.keyHash] = append(rowsByKey[r.keyHash], r.row)
	}
	n := opt.Size
	var selected []uint32
	if opt.Method == PRISK {
		pri := sample.NewPriority[uint32](n)
		for hk, rows := range rowsByKey {
			pri.Offer(float64(len(rows)), hash.Unit32(hk), hk)
		}
		selected = pri.Items()
		// Priority selection iterates a map; fix the order (and hence the
		// RNG consumption below) by sorting on the keys' hash positions.
		sort.Slice(selected, func(a, b int) bool {
			return hash.Unit32(selected[a]) < hash.Unit32(selected[b])
		})
	} else {
		kmv := sample.NewKMV[uint32](n)
		for hk := range rowsByKey {
			kmv.Offer(hash.Unit32(hk), hk)
		}
		selected = kmv.Items()
	}
	rng := rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), uint64(role))))
	total := float64(len(live))
	for _, hk := range selected {
		rows := rowsByKey[hk]
		nk := int(math.Floor(float64(n) * float64(len(rows)) / total))
		if nk < 1 {
			nk = 1
		}
		if nk > len(rows) {
			nk = len(rows)
		}
		for _, pick := range sample.WithoutReplacement(len(rows), nk, rng) {
			s.KeyHashes = append(s.KeyHashes, hk)
			s.appendValue(src, rows[pick])
		}
	}
}

// buildCSK keeps, for each of the n minimum-hash distinct keys, the first
// value seen with that key — the straightforward extension of Correlation
// Sketches, which does not prescribe repeated-key handling.
func buildCSK(s *Sketch, src values, live []liveRow, opt Options) {
	kmv := sample.NewKMV[rowRef](opt.Size)
	for _, r := range live {
		if r.j != 1 {
			continue // only the first occurrence represents the key
		}
		kmv.Offer(hash.Unit32(r.keyHash), r.rowRef)
	}
	for _, r := range kmv.Items() {
		s.KeyHashes = append(s.KeyHashes, r.keyHash)
		s.appendValue(src, r.row)
	}
}

// buildINDSK selects n rows uniformly at random with no coordination; the
// two roles use different RNG streams, making the table samples
// independent as the baseline requires.
func buildINDSK(s *Sketch, src values, live []liveRow, opt Options, role Role) {
	rng := rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), 0x1d5+uint64(role))))
	for _, pick := range sample.WithoutReplacement(len(live), opt.Size, rng) {
		r := live[pick]
		s.KeyHashes = append(s.KeyHashes, r.keyHash)
		s.appendValue(src, r.row)
	}
}

// JoinedSample is the sample of the full join recovered by joining two
// sketches on their hashed keys: paired (Y, X) values ready for MI
// estimation.
type JoinedSample struct {
	// Y holds train-side values; X holds candidate-side values.
	Y, X mi.Column
	// Size is the number of joined pairs (the "sketch join size").
	Size int
}

// Join matches every train-sketch entry against the candidate sketch's
// unique key hashes and returns the paired values. Both sketches must
// share a hash seed.
func Join(train, cand *Sketch) (*JoinedSample, error) {
	if train.Seed != cand.Seed {
		return nil, fmt.Errorf("core: sketches built with different seeds (%#x vs %#x)", train.Seed, cand.Seed)
	}
	idx := make(map[uint32]int, cand.Len())
	for i, hk := range cand.KeyHashes {
		if _, dup := idx[hk]; dup {
			return nil, fmt.Errorf("core: candidate sketch has duplicate key hash %#x", hk)
		}
		idx[hk] = i
	}
	js := &JoinedSample{}
	var yNum, xNum []float64
	var yStr, xStr []string
	for i, hk := range train.KeyHashes {
		j, ok := idx[hk]
		if !ok {
			continue
		}
		if train.Numeric {
			yNum = append(yNum, train.Nums[i])
		} else {
			yStr = append(yStr, train.Strs[i])
		}
		if cand.Numeric {
			xNum = append(xNum, cand.Nums[j])
		} else {
			xStr = append(xStr, cand.Strs[j])
		}
		js.Size++
	}
	if train.Numeric {
		if yNum == nil {
			yNum = []float64{}
		}
		js.Y = mi.NumericColumn(yNum)
	} else {
		if yStr == nil {
			yStr = []string{}
		}
		js.Y = mi.CategoricalColumn(yStr)
	}
	if cand.Numeric {
		if xNum == nil {
			xNum = []float64{}
		}
		js.X = mi.NumericColumn(xNum)
	} else {
		if xStr == nil {
			xStr = []string{}
		}
		js.X = mi.CategoricalColumn(xStr)
	}
	return js, nil
}

// EstimateMI joins the two sketches and applies the type-appropriate MI
// estimator (Î = F(S_join)). It returns the estimate and the sketch join
// size the estimate was computed on.
func EstimateMI(train, cand *Sketch, k int) (mi.Result, error) {
	js, err := Join(train, cand)
	if err != nil {
		return mi.Result{}, err
	}
	return mi.Estimate(js.Y, js.X, k), nil
}

// FullJoinMI materializes the paper's join-aggregation query (aggregate
// the candidate, left-join onto the train table, drop unmatched rows) and
// estimates MI on the complete result. It is the reference the sketches
// approximate, and the baseline used throughout Section V.
func FullJoinMI(train *table.Table, trainKey, targetCol string,
	cand *table.Table, candKey, featureCol string, agg table.AggFunc, k int) (mi.Result, error) {
	if agg == "" {
		agg = table.AggFirst
	}
	joined, err := table.AugmentationJoin(train, trainKey, cand, candKey, featureCol, agg)
	if err != nil {
		return mi.Result{}, err
	}
	y := joined.MustColumn(targetCol)
	// When the feature column's name collides with a train column, the
	// join renames it with the "right." prefix.
	x := joined.Column("right." + featureCol)
	if x == nil {
		x = joined.MustColumn(featureCol)
	}
	if x == y {
		return mi.Result{}, fmt.Errorf("core: target and feature resolve to the same column %q", targetCol)
	}
	return mi.Estimate(columnToMI(y), columnToMI(x), k), nil
}

// columnToMI converts a table column (with NULLs removed pairwise by the
// join) into an estimator column.
func columnToMI(c *table.Column) mi.Column {
	if c.Kind == table.KindFloat {
		return mi.NumericColumn(c.Num)
	}
	return mi.CategoricalColumn(c.Str)
}
