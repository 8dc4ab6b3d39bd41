package table

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"misketch/internal/hash"
)

// KeyPlan is the grouping of a table's rows by one key column: the
// distinct non-NULL keys in first-seen order, the rows of each key, and
// — per hash seed — each key's hash. A table builds it once per key
// column (see Table.KeyPlan) and every Aggregate and sketch build over
// that key shares it, so a table with many value columns is grouped and
// hashed once, not once per column. It costs 4 bytes per row plus a
// string header and an offset per distinct key (a string column's keys
// are the column's own strings), plus 4 bytes a sampled group, and lives
// as long as its table.
//
// A plan is immutable apart from the per-seed hashes and the samples of
// its groups (see Sample) it adds under its own lock, and safe for
// concurrent use.
type KeyPlan struct {
	order []string // distinct non-NULL keys, first-seen order
	start []int32  // group g's rows are rows[start[g]:start[g+1]]
	rows  []int32  // row indices, ascending within a group

	mu      sync.Mutex
	hashes  map[uint32][]uint32 // seed → hash.Key of each group's key
	samples map[sampleKey][]int32
}

// sampleKey names a sample of a plan's groups: the hash seed and the
// sample's size.
type sampleKey struct {
	seed uint32
	size int
}

// KeyPlan returns the table's plan for keyCol, building it on first
// use. Concurrent callers wait for one build and share its result.
func (t *Table) KeyPlan(keyCol string) (*KeyPlan, error) {
	kc := t.Column(keyCol)
	if kc == nil {
		return nil, fmt.Errorf("table: no column %q", keyCol)
	}
	if kc.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("table: %d rows exceed the %d a key plan can index", kc.Len(), math.MaxInt32)
	}
	t.planMu.Lock()
	defer t.planMu.Unlock()
	p := t.plans[keyCol]
	if p == nil {
		p = newKeyPlan(kc)
		t.plans[keyCol] = p
	}
	return p, nil
}

// newKeyPlan groups kc's rows: one pass assigns group ids through the
// only string-keyed map any build over this key will touch, a second
// lays the rows out group by group.
func newKeyPlan(kc *Column) *KeyPlan {
	p := &KeyPlan{start: []int32{0}, hashes: map[uint32][]uint32{}, samples: map[sampleKey][]int32{}}
	ids := make(map[string]int32, 64)
	group := make([]int32, kc.Len()) // row → group, -1 under a NULL key
	for i := range group {
		group[i] = -1
		if kc.IsNull(i) {
			continue
		}
		k := kc.StringAt(i)
		g, seen := ids[k]
		if !seen {
			g = int32(len(p.order))
			ids[k] = g
			p.order = append(p.order, k)
			p.start = append(p.start, 0)
		}
		group[i] = g
		p.start[g+1]++ // g's row count for now
	}
	for g := range p.order {
		p.start[g+1] += p.start[g]
	}
	p.rows = make([]int32, p.start[len(p.order)])
	next := slices.Clone(p.start)
	for i, g := range group {
		if g >= 0 {
			p.rows[next[g]] = int32(i)
			next[g]++
		}
	}
	return p
}

// Rows returns the row indices of group g, ascending. The slice is the
// plan's own and must not be modified.
func (p *KeyPlan) Rows(g int) []int32 { return p.rows[p.start[g]:p.start[g+1]] }

// Hashes returns hash.Key(key, seed) for every group, in group order,
// computing them on the first call per seed. The slice is the plan's
// own and must not be modified.
func (p *KeyPlan) Hashes(seed uint32) []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.hashes[seed]
	if !ok {
		h = make([]uint32, len(p.order))
		for g, k := range p.order {
			h[g] = hash.Key(k, seed)
		}
		p.hashes[seed] = h
	}
	return h
}

// Sample returns the plan's sample of its groups for seed and size,
// calling pick to draw it on the first request, so a sketch builder
// whose choice of groups depends on the plan, the seed and the size
// alone draws it once for all of the table's columns. Racing first
// requests each draw, and the first to finish is kept. The slice is the
// plan's own and must not be modified.
func (p *KeyPlan) Sample(seed uint32, size int, pick func() []int32) []int32 {
	k := sampleKey{seed, size}
	p.mu.Lock()
	s, ok := p.samples[k]
	p.mu.Unlock()
	if ok {
		return s
	}
	s = pick()
	p.mu.Lock()
	defer p.mu.Unlock()
	if kept, ok := p.samples[k]; ok {
		return kept
	}
	p.samples[k] = s
	return s
}

// GroupAgg evaluates AGG(vc) one group of a plan at a time, so a caller
// that needs only some groups pays only for those. NULL values are
// excluded from the aggregate; a group of only NULLs yields NULL (NaN or
// NullString), except under COUNT, which yields 0. It reuses scratch
// between groups and is not safe for concurrent use.
type GroupAgg struct {
	// Kind is the kind of the values AGG produces.
	Kind Kind
	// Evals counts the groups evaluated so far.
	Evals int

	p   *KeyPlan
	vc  *Column
	agg AggFunc
	// inf is set when an arithmetic aggregate reads a column holding an
	// infinity, or values whose magnitudes sum past MaxFloat64: only
	// then can it be NaN — NULL — or ±Inf over non-NULL values (+Inf +
	// -Inf, an overflowing SUM), so only then must Live evaluate to
	// decide.
	inf    bool
	live   []int32          // the group's non-NULL rows
	vals   []float64        // MEDIAN scratch
	counts map[string]int32 // MODE scratch for large groups
}

// Aggregator returns a GroupAgg of agg over vc, a column with the
// plan's table's row count (usually one of its columns).
func (p *KeyPlan) Aggregator(vc *Column, agg AggFunc) (*GroupAgg, error) {
	kind, ok := agg.OutputKind(vc.Kind)
	if !ok {
		return nil, fmt.Errorf("table: aggregate %q does not support %s input", agg, vc.Kind)
	}
	a := &GroupAgg{Kind: kind, p: p, vc: vc, agg: agg}
	if agg == AggAvg || agg == AggSum || agg == AggMedian {
		total := 0.0
		for _, v := range vc.Num {
			if !math.IsNaN(v) {
				total += math.Abs(v)
			}
		}
		a.inf = math.IsInf(total, 0)
	}
	return a, nil
}

// Live reports whether group g aggregates to a non-NULL value — for
// AVG, SUM and MEDIAN a finite one — without aggregating it unless the
// column holds infinities or values large enough to overflow.
func (a *GroupAgg) Live(g int) bool {
	switch {
	case a.agg == AggCount:
		return true
	case a.inf:
		v := a.Num(g)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	for _, r := range a.p.Rows(g) {
		if !a.vc.IsNull(int(r)) {
			return true
		}
	}
	return false
}

// Num returns AGG over group g for a KindFloat aggregate.
func (a *GroupAgg) Num(g int) float64 {
	v, r := a.eval(g)
	if r >= 0 {
		v = a.vc.Num[r]
	}
	return v
}

// Str returns AGG over group g for a KindString aggregate.
func (a *GroupAgg) Str(g int) string {
	if _, r := a.eval(g); r >= 0 {
		return a.vc.Str[r]
	}
	return NullString
}

// eval aggregates group g to a row of vc — what FIRST, MIN, MAX and
// MODE select — or, with row -1, to a number (NaN for NULL). MIN and MAX
// order floats numerically and strings lexicographically, and keep the
// first of equal values.
func (a *GroupAgg) eval(g int) (v float64, row int32) {
	a.Evals++
	live := a.live[:0]
	for _, r := range a.p.Rows(g) {
		if !a.vc.IsNull(int(r)) {
			live = append(live, r)
		}
	}
	a.live = live
	switch {
	case a.agg == AggCount:
		return float64(len(live)), -1
	case len(live) == 0:
		return math.NaN(), -1
	}
	switch a.agg {
	case AggFirst:
		return 0, live[0]
	case AggMode:
		return 0, a.mode(live)
	case AggMin, AggMax:
		best := live[0]
		for _, r := range live[1:] {
			if a.agg == AggMax && a.less(best, r) || a.agg == AggMin && a.less(r, best) {
				best = r
			}
		}
		return 0, best
	case AggMedian:
		vals := a.vals[:0]
		for _, r := range live {
			vals = append(vals, a.vc.Num[r])
		}
		a.vals = vals
		sort.Float64s(vals)
		if n := len(vals); n%2 == 0 {
			return (vals[n/2-1] + vals[n/2]) / 2, -1
		}
		return vals[len(vals)/2], -1
	}
	sum := 0.0 // AVG, SUM
	for _, r := range live {
		sum += a.vc.Num[r]
	}
	if a.agg == AggAvg {
		sum /= float64(len(live))
	}
	return sum, -1
}

func (a *GroupAgg) less(i, j int32) bool {
	if a.vc.Kind == KindFloat {
		return a.vc.Num[i] < a.vc.Num[j]
	}
	return a.vc.Str[i] < a.vc.Str[j]
}

// smallGroup is the group size up to which MODE counts by comparing
// pairs instead of filling a map.
const smallGroup = 16

// mode returns the first row of the most frequent value among live,
// ties going to the value seen first. Values are equal when they render
// equally: floats by their bits, so 0 and -0 differ.
func (a *GroupAgg) mode(live []int32) int32 {
	best, bestN := live[0], int32(0)
	if len(live) <= smallGroup {
		for x, i := range live {
			// A value's first row sees all its occurrences ahead of it;
			// its later rows see fewer and never win.
			n := int32(0)
			for _, j := range live[x:] {
				if a.vc.Kind == KindString && a.vc.Str[i] == a.vc.Str[j] ||
					a.vc.Kind == KindFloat && math.Float64bits(a.vc.Num[i]) == math.Float64bits(a.vc.Num[j]) {
					n++
				}
			}
			if n > bestN {
				best, bestN = i, n
			}
		}
		return best
	}
	if a.counts == nil {
		a.counts = make(map[string]int32)
	}
	clear(a.counts)
	for _, i := range live {
		a.counts[a.vc.StringAt(int(i))]++
	}
	for _, i := range live {
		if n := a.counts[a.vc.StringAt(int(i))]; n > bestN {
			best, bestN = i, n
		}
	}
	return best
}
