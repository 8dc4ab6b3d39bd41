package store

// The rank plan: phase 1 of a ranking as a value. Which candidates a
// query visits, which pairs survive the prefilter and the min-join cut,
// their cheap scores and phase 2's visit order depend on the catalog
// state, the probes, Prefix, MinJoinSize and NoIndex — and on nothing
// else. So the plan is memoised on the catalog view under exactly
// that key: a `top` variant of one train, or a coordinator's floored
// round 2 after its seed round, runs phase 2 alone. Every mutation drops
// the view and its plans with it, so there is no invalidation code. A
// plan holds positions and scores only — never a probe, a train or a
// decoded sketch — so it pins nothing but itself.
//
// Phase 2 is exact once per plan. Each exact estimate is a function of
// the probe, the candidate record and K, and a plan's key and view fix
// the first two, so a plan carries one write-once slot per pair:
// the first call to score a pair on a catalog no mutation has moved
// leaves its answer there, and every later call at the same K offers it
// instead of re-estimating — a `top` variant rescores nothing its
// predecessors scored, a floored round 2 nothing its seed round did. The
// slots are numbers, live and die with the plan, and change no answer:
// only a call holding the plan's view can read them.
//
// Phase 1 has a first half that reads no value at all: index selection
// depends on the trains' key samples alone. TUPSK gives every column of
// one table sketched on one key the same sample, so a fresh train on its
// base train's keys, a coordinator's round 1 or the next target of a
// sweep selects what an earlier rank on the view selected. That
// selection is memoised beside the plans, keyed by the samples
// themselves, and dies with them. The second half's key-only work — the
// probe of the train index, the train side of the join and of the cheap
// tier — is shared the same way inside each worker's core.Scratch, across
// consecutive candidates that carry one key sample.
//
// The candidate side is once per key sample too: the overlap, the joined
// train rows and the candidate's binned IDs are fixed by the candidate
// record and the train's key hashes in entry order, so the view keeps them
// per (sample, candidate), from a sample's second phase 1 on the view, and
// later ones score the pair in one joint-count pass with no load.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"misketch/internal/binio"
	"misketch/internal/core"
	"misketch/internal/mi"
)

// planCacheBytes bounds the plans one catalog view keeps.
const planCacheBytes = 1 << 20

// planKey is everything phase 1 reads besides the view it is cached on.
// probes is the probes' process-unique numbers in train order.
type planKey struct {
	probes, prefix string
	minJoin        int
	noIndex        bool
}

func (r *rankRun) planKey() planKey {
	ids := make([]byte, 0, 8*len(r.probes))
	for _, p := range r.probes {
		ids = binio.AppendU64(ids, p.ID())
	}
	return planKey{string(ids), r.opt.Prefix, r.opt.MinJoinSize, r.opt.NoIndex}
}

// rankPlan is what planRank hands runPlan. Immutable once built but for
// its exact slots: a memoised plan is read by concurrent queries.
type rankPlan struct {
	visit []int32 // entry positions of the candidates phase 1 loaded, in name order
	// tasks is every pair past the prefilter and the min-join cut, in
	// phase 2's visit order; empty without the cascade.
	tasks []cascadeTask
	// exact is parallel to tasks: each pair's exact answer once a call
	// has scored it.
	exact   []exactSlot
	pruned  []int    // per train: pairs the prefilter removed
	skipped []string // sorted; nil when empty
}

// cost is what a view's plan cache charges for p under key.
func (p *rankPlan) cost(key planKey) int64 {
	n := 200 + len(key.probes) + len(key.prefix) + 4*cap(p.visit) + 24*cap(p.tasks) + 16*cap(p.exact) + 8*len(p.pruned)
	for _, name := range p.skipped {
		n += 16 + len(name)
	}
	return int64(n)
}

// exactSlot is one plan pair's remembered exact answer: the MI's bits and
// a word packing the done and busy flags, K, the estimator and the join
// size. The first writer claims the slot by CAS and stores the MI before
// the done bit, so a reader that sees done reads a whole answer.
type exactSlot struct {
	mi, word atomic.Uint64
}

const (
	slotDone     = 1 << 63
	slotBusy     = 1 << 62
	slotKShift   = 36 // K: bits 36–61
	slotEstShift = 32 // estimator: bits 32–35; the join size is bits 0–31
	slotMaxK     = 1<<26 - 1
)

// slotEstimators numbers the estimators a slot can name.
var slotEstimators = [...]mi.Estimator{mi.EstMLE, mi.EstKSG, mi.EstMixedKSG, mi.EstDCKSG}

// get returns the answer remembered at k, its Name unset.
func (sl *exactSlot) get(k int) (RankedSketch, bool) {
	w := sl.word.Load()
	if w&slotDone == 0 || int(w>>slotKShift&slotMaxK) != k {
		return RankedSketch{}, false
	}
	return RankedSketch{
		MI:        math.Float64frombits(sl.mi.Load()),
		Estimator: slotEstimators[w>>slotEstShift&15],
		JoinSize:  int(uint32(w)),
	}, true
}

// put remembers rs as the answer at k, unless another call claimed the
// slot first or the answer does not fit the word.
func (sl *exactSlot) put(k int, rs RankedSketch) {
	est := slices.Index(slotEstimators[:], rs.Estimator)
	if est < 0 || k > slotMaxK || uint64(rs.JoinSize) > math.MaxUint32 || !sl.word.CompareAndSwap(0, slotBusy) {
		return
	}
	sl.mi.Store(math.Float64bits(rs.MI))
	sl.word.Store(slotDone | uint64(k)<<slotKShift | uint64(est)<<slotEstShift | uint64(rs.JoinSize))
}

// planRank is phase 1: decode and triage every selected candidate once,
// then prefilter and scratch-join it against every train in one probe
// per pair (core.TrainProbe.JoinAbove). Without the cascade the exact
// estimator runs inline, exactly the historic single-pass semantics.
// With it, the pair's cheap binned score (mi.CheapMI, O(join) time) is
// recorded instead and the exact tier is deferred to phase 2 — scoring
// ALL candidates cheaply first is what lets phase 2 visit them from
// strongest cheap score down, so the top-K threshold is at full height
// after its first few exact runs instead of after most of the catalog.
// clean: no racing mutation was triaged, so the plan may be memoised.
func (r *rankRun) planRank(sv *seedView) (p *rankPlan, clean bool) {
	s, v, opt := r.s, r.v, &r.opt
	p = &rankPlan{pruned: make([]int, len(r.trains))}
	lo, hi := v.prefixRange(opt.Prefix)
	for _, e := range within(sv.skipped, lo, hi) {
		p.skipped = append(p.skipped, v.entries[e].Name)
	}
	// visit holds the entry positions of the candidates to load, in name
	// order (locality for the workers' segment reads). Index-driven
	// selection excludes, without loading them, candidates whose segment
	// index proves every train's overlap at or below the cutoff; each is
	// a pruned pair for every query (the same pairs the probe prefilter
	// would count one load later). An empty sketch joins nothing and is
	// never read unless the cutoff is negative.
	p.visit = within(sv.cands, lo, hi)
	if opt.MinJoinSize >= 0 && !opt.NoIndex {
		var prunedAll int
		p.visit, prunedAll = r.selectVisit(p.visit, lo, hi)
		s.candNoDecode.Add(int64(prunedAll))
		for q := range p.pruned {
			p.pruned[q] = prunedAll
		}
	} else if empty := within(sv.empty, lo, hi); opt.MinJoinSize < 0 && len(empty) > 0 {
		p.visit = append(slices.Clone(p.visit), empty...)
		slices.Sort(p.visit)
	}
	r.start(p.visit)
	if r.cascade {
		r.lookupSides()
	}
	r.forEach(len(p.visit), max(1, min(len(p.visit)/(len(r.w)*8), maxRankChunk)), (*rankRun).joinCandidate)
	for _, set := range r.sides {
		if set != nil { // charged for what this call kept
			r.storeSides(set)
		}
	}
	if r.ctx.Err() != nil {
		return nil, false
	}
	total, clean := 0, true
	for _, w := range r.w {
		total += len(w.tasks)
	}
	// One exact-size list, handed to runPlan and the view's cache as is.
	p.tasks, p.exact = make([]cascadeTask, 0, total), make([]exactSlot, total)
	for _, w := range r.w {
		p.tasks = append(p.tasks, w.tasks...)
		for q, n := range w.pruned {
			p.pruned[q] += int(n)
		}
		p.skipped = append(p.skipped, w.late...)
		clean = clean && len(w.late) == 0
		w.tasks, w.late = nil, nil
	}
	for _, n := range p.pruned {
		s.prunedPairs.Add(int64(n))
	}
	slices.Sort(p.skipped)
	// Deterministic visit order regardless of phase-1 scheduling: cheap
	// score descending (exempt pairs first), names and train index
	// breaking ties. No two tasks share (ci, q), so this is a total order
	// and any sorting algorithm gives the same list.
	slices.SortFunc(p.tasks, func(a, b cascadeTask) int {
		switch {
		case a.cheap > b.cheap:
			return -1
		case a.cheap < b.cheap:
			return 1
		case a.ci != b.ci:
			return cmp.Compare(a.ci, b.ci) // visit is in name order
		}
		return cmp.Compare(a.q, b.q)
	})
	return p, clean
}

// selectCacheBytes bounds the selections one catalog view keeps.
const selectCacheBytes = 1 << 19

// selectKey is everything index selection reads besides the view and the
// state of its key indexes: the seed, Prefix, MinJoinSize and, in train
// order, each train's distinct key hashes with their multiplicities —
// its key sample, never a value.
type selectKey struct {
	seed    uint32
	prefix  string
	minJoin int
	sample  string
}

// selection is what selectVisit returned for a selectKey.
type selection struct {
	visit     []int32 // shared by every query that reuses it: read only
	prunedAll int
}

// selectVisit is index selection with the view's memo in front: trains
// that share a key sample — fresh values on the same keys, a
// coordinator's round 1, the next target of a sweep — select the same
// candidates. A key index that turns bad widens what its segment selects,
// so no entry is stored or used while any index of the view is bad: an
// entry stored before one turned bad is never met again. A hit counts its
// excluded candidates as not decoded, as the selection would have.
func (r *rankRun) selectVisit(eligible []int32, lo, hi int32) ([]int32, int) {
	s, v := r.s, r.v
	var sample []byte
	for _, p := range r.probes {
		hashes, mults := p.DistinctKeyHashes()
		sample = binio.AppendU32(sample, uint32(len(hashes)))
		for i, hk := range hashes {
			sample = binio.AppendU32(binio.AppendU32(sample, hk), uint32(mults[i]))
		}
	}
	key := selectKey{r.seed, r.opt.Prefix, r.opt.MinJoinSize, string(sample)}
	intact := !slices.ContainsFunc(v.segs, func(vs viewSegment) bool { return vs.ix.bad.Load() })
	if intact {
		if sel, ok := v.selections.Get(key); ok {
			s.selectHits.Add(1)
			return sel.visit, sel.prunedAll
		}
	}
	s.selectMisses.Add(1)
	sc := s.selectPool.Get().(*selectScratch)
	visit, prunedAll := sc.selectVisit(v, r.seed, eligible, lo, hi, r.probes, r.opt.MinJoinSize)
	s.selectPool.Put(sc)
	if intact {
		cost := 64 + len(key.prefix) + len(key.sample) + 4*len(visit)
		v.selections.Add(key, selection{visit, prunedAll}, int64(cost))
	}
	return visit, prunedAll
}

// joinCandidate is phase 1 for one visit position. The candidate is
// loaded unless the view keeps its side for every train's key sample.
func (r *rankRun) joinCandidate(w *rankWorker, scratch *core.Scratch, i int) bool {
	opt := &r.opt
	pos := r.visit[i]
	m := r.v.entries[pos]
	var cand *core.Sketch
	if !slices.ContainsFunc(r.sides, func(set *sideSet) bool { _, hit := set.get(pos, opt.MinJoinSize); return !hit }) {
		w.counts[5]++ // a side hit
	} else {
		var err error
		if cand, err = r.load(w, m); err != nil {
			r.cancel(err)
			return false
		} else if cand == nil {
			return true
		}
		if r.cascade {
			r.cands[i].Store(cand) // phase 2 of this call reads it back
		}
	}
	for q, probe := range r.probes {
		var js core.JoinedSample
		set := r.sides[q]
		e, hit := set.get(pos, opt.MinJoinSize)
		if !hit {
			// One probe of the train index yields the overlap, the error
			// and the sample; the ordering-hint chains are built only
			// when the exact estimator runs inline.
			var err error
			if js, err = probe.JoinAbove(cand, opt.MinJoinSize, !r.cascade, scratch); err != nil {
				r.cancel(fmt.Errorf("store: estimating %q: %w", m.Name, err))
				return false
			}
			// A candidate with duplicated key hashes is never counted as
			// pruned, here or by the index: it always reaches the join, and
			// fails the query only if a duplicate actually joins.
			e = sideEntry{overlap: js.Size, dup: cand.HasDuplicateKeyHashes()}
		}
		if e.overlap <= opt.MinJoinSize {
			// Nothing was emitted: the prefilter counts the pair as
			// pruned; otherwise the min-join confidence filter would
			// discard the estimate unseen. Either way skip both tiers.
			if !e.dup {
				w.pruned[q]++
			}
			if !hit {
				r.keep(w, set, pos, e)
			}
			continue
		}
		if !r.cascade {
			if est := probe.EstimateJoined(cand, js, opt.K, scratch); est.MI >= opt.MinMI[q] {
				r.tops[q].offer(RankedSketch{Name: m.Name, MI: est.MI, Estimator: est.Estimator, JoinSize: est.N}, opt.TopK)
			}
			continue
		}
		var cr mi.CheapResult
		switch {
		case !m.Numeric && !probe.Train().Numeric:
			// Categorical–categorical: the exact estimator is already the
			// plug-in, so there is no cheaper tier — the pair is exempt
			// and always scored exactly.
			cr.MI = math.Inf(1)
		case hit:
			cr = probe.CheapMIKept(e.rows, &e.y, mi.DefaultCheapBins, scratch)
		case set != nil:
			if cr = scratch.CheapMI(js, &e.y, mi.DefaultCheapBins); e.y.Card > 0 {
				e.rows = scratch.Rows()
				r.keep(w, set, pos, e)
			}
		default:
			cr = scratch.CheapMI(js, nil, mi.DefaultCheapBins)
		}
		w.tasks = append(w.tasks, cascadeTask{ci: int32(i), q: int32(q), cheap: cr.MI, ceil: cr.Ceil})
	}
	return true
}

// sideCacheBytes bounds the candidate sides one catalog view keeps.
const sideCacheBytes = 2 << 20

// sideKey is a key sample: the seed and a train's key hashes in entry
// order, the joined rows' order, which the cheap tier's sums follow.
type sideKey struct {
	seed uint32
	keys string
}

// sideSet is what a view keeps of one key sample's joins, by entry
// position; without slots, a marker: of a sample seen once, or, oversize,
// of one whose sides do not fit the view's bound.
type sideSet struct {
	key      sideKey
	oversize bool
	slots    []atomic.Pointer[sideEntry]
	bytes    atomic.Int64 // what its entries hold, shared rows charged once
}

// cost is what the view's cache charges for set.
func (set *sideSet) cost() int64 {
	return int64(64+len(set.key.keys)+8*len(set.slots)) + set.bytes.Load()
}

// sideEntry is one candidate's side of its join with a key sample: what
// answers the pair without loading, probing or binning the candidate.
type sideEntry struct {
	overlap int
	dup     bool           // the candidate repeats a key hash: never counted as pruned
	rows    *core.JoinRows // nil when the join was at or below the cutoff: nothing scored
	y       mi.CheapY      // the candidate's IDs at mi.DefaultCheapBins
}

// lookupSides finds, per train, the candidate sides the view keeps for
// its key sample; a sample seen for the first time gets only a marker.
func (r *rankRun) lookupSides() {
	for q, p := range r.probes {
		var b []byte
		for _, hk := range p.Train().KeyHashes {
			b = binio.AppendU32(b, hk)
		}
		key := sideKey{r.seed, string(b)}
		switch set, ok := r.v.sides.Get(key); {
		case !ok:
			r.storeSides(&sideSet{key: key})
		case set.slots != nil:
			r.sides[q] = set
		case !set.oversize:
			// Filled from the second sight, unless what the visit list could
			// fill, its rows shared, is past the bound: a side has at most
			// one ID a train entry.
			set = &sideSet{key: key, slots: make([]atomic.Pointer[sideEntry], len(r.v.entries))}
			set.oversize = set.cost()+int64(len(r.visit)*(64+len(b)/4)) > sideCacheBytes
			if r.storeSides(set) {
				r.sides[q] = set
			}
		}
	}
}

// storeSides charges set to the view and reports whether the view keeps
// it. A set past the bound would be dropped and refilled by every other
// phase 1 of its sample, so the view keeps an oversize marker instead,
// never filled.
func (r *rankRun) storeSides(set *sideSet) bool {
	if set.oversize || set.cost() > sideCacheBytes {
		set = &sideSet{key: set.key, oversize: true}
	}
	r.v.sides.Add(set.key, set, set.cost())
	return !set.oversize
}

// get returns the side kept at entry position pos if it answers the pair
// at the cutoff minJoin.
func (set *sideSet) get(pos int32, minJoin int) (sideEntry, bool) {
	if set != nil {
		if e := set.slots[pos].Load(); e != nil && (e.rows != nil || e.overlap <= minJoin) {
			return *e, true
		}
	}
	return sideEntry{}, false
}

// keep stores e as the candidate side at pos, unless one is stored or a
// mutation has moved the store past the view the candidate was read in.
func (r *rankRun) keep(w *rankWorker, set *sideSet, pos int32, e sideEntry) {
	if set == nil || r.s.gen.Load() != r.gen {
		return
	}
	if kept := e; set.slots[pos].CompareAndSwap(nil, &kept) {
		n := 64 + len(e.y.IDs)
		if e.rows != nil && e.rows != w.rows {
			// Rows are shared by a run of candidates the join memo matched
			// as one, on one worker: 4 bytes a train entry, charged once.
			n += len(set.key.keys)
			w.rows = e.rows
		}
		set.bytes.Add(int64(n))
		r.s.sideFills.Add(1)
	}
}
