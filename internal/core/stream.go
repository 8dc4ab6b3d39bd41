package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"misketch/internal/hash"
	"misketch/internal/sample"
	"misketch/internal/table"
)

// StreamBuilder constructs a sketch from a stream of (key, value) rows in
// a single pass, without materializing the table — the offline ingestion
// mode Section IV describes ("it can be done in a single pass using
// reservoir sampling"). Batch Build and StreamBuilder produce sketches
// with identical distributional properties; TUPSK and CSK streams are
// bit-identical to their batch builds (they are hash-determined), while
// LV2SK/INDSK use reservoir randomness in place of batch shuffles.
//
// Memory: O(n) for the retained entries, plus O(distinct keys) for the
// occurrence counters the tuple hashes and second-level caps require.
// PRISK is not streamable (its first-level priorities change as counts
// accumulate, so late rows can promote keys whose earlier rows were
// dropped); use batch Build for it.
type StreamBuilder struct {
	opt     Options
	role    Role
	numeric bool
	// outNumeric is the kind of the *stored* values, which differs from
	// the input kind when a candidate-side aggregate changes it (COUNT
	// over a categorical column yields numeric counts).
	outNumeric bool

	rows int // usable rows seen

	// occurrence count per key hash (j indices and N_k).
	occ map[uint32]uint32

	// TUPSK / CSK state.
	kmvTup *sample.KMV[streamEntry]

	// LV2SK state: first-level key selection plus per-key reservoirs.
	kmvKeys   *sample.KMV[uint32]
	reservoir map[uint32]*sample.Reservoir[streamValue]
	rng       *rand.Rand

	// INDSK state.
	indres *sample.Reservoir[streamEntry]

	// Candidate-side streaming aggregation state per key in the KMV set.
	agg map[uint32]*aggState
}

// streamValue is one retained value.
type streamValue struct {
	num float64
	str string
}

// streamEntry pairs a key hash with a value.
type streamEntry struct {
	keyHash uint32
	val     streamValue
}

// aggState accumulates a running aggregate for one candidate key.
type aggState struct {
	count   int
	sum     float64
	min     float64
	max     float64
	minS    string
	maxS    string
	first   streamValue
	counts  map[string]int // MODE
	vals    []float64      // MEDIAN (must retain values)
	modeV   streamValue
	modeCnt int
}

// NewStreamBuilder returns a builder for the given role and value kind
// (numeric=true for float values). See StreamBuilder for method support.
func NewStreamBuilder(role Role, numeric bool, opt Options) (*StreamBuilder, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if opt.Method == PRISK {
		return nil, fmt.Errorf("core: PRISK cannot be built in one pass; use Build")
	}
	if opt.Nulls == NullAsCategory && numeric {
		return nil, fmt.Errorf("core: NullAsCategory requires a categorical value column")
	}
	outNumeric := numeric
	if role == RoleCandidate && opt.Method != CSK {
		in := table.KindString
		if numeric {
			in = table.KindFloat
		}
		out, ok := opt.Agg.OutputKind(in)
		if !ok {
			return nil, fmt.Errorf("core: aggregate %q does not support %s input", opt.Agg, in)
		}
		outNumeric = out == table.KindFloat
	}
	b := &StreamBuilder{
		opt:        opt,
		role:       role,
		numeric:    numeric,
		outNumeric: outNumeric,
		occ:        make(map[uint32]uint32),
	}
	switch {
	case role == RoleCandidate && opt.Method != CSK:
		// Candidate side: streaming aggregation + key-level selection.
		// INDSK selects keys randomly at finalize time (membership is not
		// prefix-stable), so it keeps state for every key; the coordinated
		// methods keep only the current n-minimum keys.
		if opt.Method != INDSK {
			b.kmvKeys = sample.NewKMV[uint32](opt.Size)
		} else {
			b.rng = rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), 0x1d5+uint64(role))))
		}
		b.agg = make(map[uint32]*aggState)
	case opt.Method == TUPSK, opt.Method == CSK:
		b.kmvTup = sample.NewKMV[streamEntry](opt.Size)
	case opt.Method == LV2SK:
		b.kmvKeys = sample.NewKMV[uint32](opt.Size)
		b.reservoir = make(map[uint32]*sample.Reservoir[streamValue])
		b.rng = rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), uint64(role))))
	case opt.Method == INDSK:
		b.rng = rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), 0x1d5+uint64(role))))
		b.indres = sample.NewReservoir[streamEntry](opt.Size, b.rng)
	}
	return b, nil
}

// AddNum feeds one row with a numeric value. Rows with empty keys or
// NaN or ±Inf values are skipped, matching batch Build's NULL policy.
func (b *StreamBuilder) AddNum(key string, v float64) {
	if !b.numeric {
		panic("core: AddNum on a categorical builder")
	}
	if key == table.NullString || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b.add(key, streamValue{num: v})
}

// AddStr feeds one row with a categorical value. Rows with empty keys are
// always skipped; empty values are skipped under NullDrop or recoded as
// NullCategory under NullAsCategory.
func (b *StreamBuilder) AddStr(key, v string) {
	if b.numeric {
		panic("core: AddStr on a numeric builder")
	}
	if key == table.NullString {
		return
	}
	if v == table.NullString {
		if b.opt.Nulls != NullAsCategory {
			return
		}
		v = NullCategory
	}
	b.add(key, streamValue{str: v})
}

func (b *StreamBuilder) add(key string, v streamValue) {
	hk := hash.Key(key, b.opt.Seed)
	b.occ[hk]++
	j := b.occ[hk]
	b.rows++

	if b.role == RoleCandidate && b.opt.Method != CSK {
		b.addCandidate(hk, v)
		return
	}
	switch b.opt.Method {
	case TUPSK:
		b.kmvTup.Offer(hash.UnitTuple(hk, j, b.opt.Seed), streamEntry{hk, v})
	case CSK:
		if j == 1 {
			b.kmvTup.Offer(hash.Unit32(hk), streamEntry{hk, v})
		}
	case LV2SK:
		if j == 1 {
			b.kmvKeys.Offer(hash.Unit32(hk), hk)
			b.gcReservoirs()
		}
		if hash.Unit32(hk) <= b.kmvKeys.Threshold() {
			r := b.reservoir[hk]
			if r == nil {
				r = sample.NewReservoir[streamValue](b.opt.Size, b.rng)
				b.reservoir[hk] = r
			}
			r.Add(v)
		}
	case INDSK:
		b.indres.Add(streamEntry{hk, v})
	}
}

// gcReservoirs drops reservoirs of keys evicted from the first level —
// this is what keeps LV2SK streaming memory at O(n · max n_k) instead of
// O(distinct keys · n_k).
func (b *StreamBuilder) gcReservoirs() {
	if len(b.reservoir) < 2*b.opt.Size {
		return
	}
	keep := make(map[uint32]bool, b.opt.Size)
	for _, hk := range b.kmvKeys.Items() {
		keep[hk] = true
	}
	for hk := range b.reservoir {
		if !keep[hk] {
			delete(b.reservoir, hk)
		}
	}
}

// candKeyHash returns the unit-interval hash the candidate side selects
// keys by: hu(⟨k,1⟩) for TUPSK (coordinating with the train side's first
// occurrences) and hu(k) for LV2SK (coordinating with its key-level
// first level).
func (b *StreamBuilder) candKeyHash(hk uint32) float64 {
	if b.opt.Method == TUPSK {
		return hash.UnitTuple(hk, 1, b.opt.Seed)
	}
	return hash.Unit32(hk)
}

// addCandidate streams the candidate side: maintain the selected keys and
// a running AGG state for each. For the coordinated methods, a key that
// belongs to the final n-min set is in the set from its first occurrence
// (the KMV threshold only tightens), so no value of a surviving key is
// ever missed. MODE ties are broken toward the value that reached the
// winning count first, which can differ from batch Build's first-seen
// tie-break on adversarial orderings.
func (b *StreamBuilder) addCandidate(hk uint32, v streamValue) {
	if b.kmvKeys != nil {
		if b.occ[hk] == 1 {
			b.kmvKeys.Offer(b.candKeyHash(hk), hk)
			b.gcAggStates()
		}
		if b.candKeyHash(hk) > b.kmvKeys.Threshold() {
			return
		}
	}
	st := b.agg[hk]
	if st == nil {
		st = &aggState{minS: v.str, maxS: v.str, min: math.Inf(1), max: math.Inf(-1), first: v}
		if b.opt.Agg == table.AggMode {
			st.counts = make(map[string]int)
		}
		b.agg[hk] = st
	}
	st.count++
	if b.numeric {
		st.sum += v.num
		st.min = math.Min(st.min, v.num)
		st.max = math.Max(st.max, v.num)
	} else {
		if v.str < st.minS {
			st.minS = v.str
		}
		if v.str > st.maxS {
			st.maxS = v.str
		}
	}
	switch b.opt.Agg {
	case table.AggMode:
		keyStr := v.str
		if b.numeric {
			keyStr = fmt.Sprintf("%g", v.num)
		}
		st.counts[keyStr]++
		if st.counts[keyStr] > st.modeCnt {
			st.modeCnt = st.counts[keyStr]
			st.modeV = v
		}
	case table.AggMedian:
		st.vals = append(st.vals, v.num)
	}
}

// gcAggStates drops aggregation state for keys evicted from the n-min set.
func (b *StreamBuilder) gcAggStates() {
	if b.kmvKeys == nil || len(b.agg) < 2*b.opt.Size {
		return
	}
	keep := make(map[uint32]bool, b.opt.Size)
	for _, hk := range b.kmvKeys.Items() {
		keep[hk] = true
	}
	for hk := range b.agg {
		if !keep[hk] {
			delete(b.agg, hk)
		}
	}
}

// Rows returns the number of usable rows fed so far.
func (b *StreamBuilder) Rows() int { return b.rows }

// Sketch finalizes the stream and returns the sketch. The builder can
// keep accepting rows afterwards; each call snapshots the current state.
func (b *StreamBuilder) Sketch() *Sketch {
	s := &Sketch{
		Method:     b.opt.Method,
		Role:       b.role,
		Seed:       b.opt.Seed,
		Size:       b.opt.Size,
		Numeric:    b.outNumeric,
		SourceRows: b.rows,
	}
	appendVal := func(hk uint32, v streamValue) {
		if b.outNumeric && math.IsInf(v.num, 0) {
			// An aggregate that overflowed is NULL. Unlike Build, which
			// knows it before selecting, the key has already taken its
			// place in the sample, so the sketch keeps one entry fewer.
			return
		}
		s.KeyHashes = append(s.KeyHashes, hk)
		if b.outNumeric {
			s.Nums = append(s.Nums, v.num)
		} else {
			s.Strs = append(s.Strs, v.str)
		}
	}

	if b.role == RoleCandidate && b.opt.Method != CSK {
		if b.opt.Method == INDSK {
			// Random key selection at finalize time, over all keys seen.
			keys := make([]uint32, 0, len(b.agg))
			for hk := range b.agg {
				keys = append(keys, hk)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, pick := range sample.WithoutReplacement(len(keys), b.opt.Size, b.rng) {
				hk := keys[pick]
				appendVal(hk, b.finalizeAgg(b.agg[hk]))
			}
			return s
		}
		for _, hk := range b.kmvKeys.Items() {
			st := b.agg[hk]
			if st == nil {
				continue
			}
			appendVal(hk, b.finalizeAgg(st))
		}
		return s
	}

	switch b.opt.Method {
	case TUPSK, CSK:
		for _, e := range b.kmvTup.Items() {
			appendVal(e.keyHash, e.val)
		}
	case LV2SK:
		selected := b.kmvKeys.Items()
		total := float64(b.rows)
		n := b.opt.Size
		for _, hk := range selected {
			r := b.reservoir[hk]
			if r == nil {
				continue
			}
			nk := int(math.Floor(float64(n) * float64(b.occ[hk]) / total))
			if nk < 1 {
				nk = 1
			}
			items := r.Items()
			if nk > len(items) {
				nk = len(items)
			}
			for _, v := range items[:nk] {
				appendVal(hk, v)
			}
		}
	case INDSK:
		for _, e := range b.indres.Items() {
			appendVal(e.keyHash, e.val)
		}
	}
	return s
}

// finalizeAgg reduces a running aggregate state to its feature value.
func (b *StreamBuilder) finalizeAgg(st *aggState) streamValue {
	switch b.opt.Agg {
	case table.AggFirst:
		return st.first
	case table.AggCount:
		return streamValue{num: float64(st.count)}
	case table.AggSum:
		return streamValue{num: st.sum}
	case table.AggAvg:
		return streamValue{num: st.sum / float64(st.count)}
	case table.AggMin:
		if b.numeric {
			return streamValue{num: st.min}
		}
		return streamValue{str: st.minS}
	case table.AggMax:
		if b.numeric {
			return streamValue{num: st.max}
		}
		return streamValue{str: st.maxS}
	case table.AggMode:
		return st.modeV
	case table.AggMedian:
		vals := append([]float64(nil), st.vals...)
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			return streamValue{num: vals[n/2]}
		}
		return streamValue{num: (vals[n/2-1] + vals[n/2]) / 2}
	}
	return st.first
}

// BuildStreaming runs a table through a StreamBuilder: the oracle the
// tests compare batch Build against. A caller that already holds a
// table should use Build, which shares the table's key plan across
// columns; StreamBuilder is for rows that never form a table.
func BuildStreaming(t *table.Table, keyCol, valCol string, role Role, opt Options) (*Sketch, error) {
	kc := t.Column(keyCol)
	vc := t.Column(valCol)
	if kc == nil || vc == nil {
		return nil, fmt.Errorf("core: missing column (%q: %v, %q: %v)",
			keyCol, kc != nil, valCol, vc != nil)
	}
	b, err := NewStreamBuilder(role, vc.Kind == table.KindFloat, opt)
	if err != nil {
		return nil, err
	}
	// NULL values are passed through: AddNum drops NaN and AddStr applies
	// the configured NullPolicy (drop or recode), matching batch Build.
	for i := 0; i < t.NumRows(); i++ {
		if kc.IsNull(i) {
			continue
		}
		if vc.Kind == table.KindFloat {
			b.AddNum(kc.StringAt(i), vc.Num[i])
		} else {
			b.AddStr(kc.StringAt(i), vc.Str[i])
		}
	}
	return b.Sketch(), nil
}
