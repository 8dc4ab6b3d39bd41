package store

// Rank plans: phase 1 of a ranking as values on the catalog view, in one
// LRU under one cost rule. A plan is built whole by one call, kept only if
// that call met no racing mutation, and dies with its view: no invalidation
// code. It holds positions, numbers and owned copies, so it pins nothing.
//
// A probe plan is all of phase 1, keyed by the trains' content, Prefix,
// MinJoinSize and NoIndex: a `top` variant of one train, or a
// coordinator's round 2 after its seed round, runs phase 2 alone, whoever
// sent the train and however it arrived, and a pair scored once at a K is
// not estimated again (exactSlot).
//
// A sample plan is the part of phase 1 no train value touches, keyed by
// the trains' key samples instead. TUPSK gives every column of one table
// sketched on one key the same sample, so a fresh train on known keys, a
// coordinator's round 1 or a sweep's next target meets one an earlier rank
// planned. The call that misses keeps index selection's answer; the next
// also collects each pair's candidate side — overlap, joined train rows,
// binned candidate IDs — after which phase 1 scores a pair in one
// joint-count pass and loads nothing.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"misketch/internal/binio"
	"misketch/internal/core"
	"misketch/internal/mi"
)

// planCacheBytes bounds the plans one catalog view keeps, of both kinds.
const planCacheBytes = 3 << 19

// planKey is everything a plan reads besides the view it is cached on.
// ids is the seed and each train's key hashes in entry order — the joined
// rows' order, which the cheap tier's sums follow — and, for a probe plan,
// each train's kind and values too: all that phase 1 and the exact slots
// read of a train, as length-prefixed bytes, so that equal keys are equal
// inputs.
type planKey struct {
	ids, prefix     string
	minJoin         int
	noIndex, sample bool
}

func (r *rankRun) planKey(sample bool) planKey {
	ids := binio.AppendU32(nil, r.seed)
	for _, tr := range r.trains {
		ids, _ = binary.Append(binio.AppendU32(ids, uint32(len(tr.KeyHashes))), binary.LittleEndian, tr.KeyHashes)
		switch {
		case sample:
		case tr.Numeric:
			ids, _ = binary.Append(binio.AppendU32(append(ids, 1), uint32(len(tr.Nums))), binary.LittleEndian, tr.Nums)
		default:
			ids = binio.AppendU32(append(ids, 0), uint32(len(tr.Strs)))
			for _, v := range tr.Strs {
				ids = append(binio.AppendU32(ids, uint32(len(v))), v...)
			}
		}
	}
	return planKey{string(ids), r.opt.Prefix, r.opt.MinJoinSize, r.opt.NoIndex, sample}
}

// rankPlan is a plan of either kind; a memoised one is read by concurrent
// queries.
type rankPlan struct {
	visit []int32 // entry positions of the candidates phase 1 visits, in name order
	// A probe plan's: tasks is every pair past the prefilter and the
	// min-join cut, in phase 2's visit order (empty without the cascade),
	// and exact, parallel to it, each pair's exact answer once a call has
	// scored it.
	tasks   []cascadeTask
	exact   []exactSlot
	pruned  []int    // per train: pairs the prefilter removed
	skipped []string // sorted; nil when empty
	// Either kind's: the candidates the index excluded, each a pruned pair
	// for every train.
	excluded int
	// A sample plan's: once a call collected them, the candidate sides,
	// len(visit) × trains of them, by visit index then train. sideBytes is
	// what the sides hold: until a collection measures it, a bound of an
	// entry and one ID a train entry for each pair.
	sides     []sideEntry
	sideBytes int64
}

// cost is what a view's plan cache charges for p under key. The visit list
// may be a run of the view's own seed lists, so its length is charged.
func (p *rankPlan) cost(key planKey) int64 {
	n := 200 + len(key.ids) + len(key.prefix) + 4*len(p.visit) + 24*cap(p.tasks) + 16*cap(p.exact) + 8*len(p.pruned)
	for _, name := range p.skipped {
		n += 16 + len(name)
	}
	if p.sides != nil {
		n += int(p.sideBytes)
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

// planRank is phase 1: triage every selected candidate once, then
// prefilter and join it against every train in one probe per pair
// (core.TrainProbe.JoinAbove). Without the cascade the exact estimator runs
// inline; with it the pair's cheap binned score is recorded instead, so
// phase 2 can visit pairs from the strongest down and its top-K bound is
// at full height after a few exact runs. clean: no racing mutation was
// triaged, so the plan may be memoised.
func (r *rankRun) planRank(sv *seedView) (p *rankPlan, clean bool) {
	s, v, opt := r.s, r.v, &r.opt
	p = &rankPlan{}
	lo, hi := v.prefixRange(opt.Prefix)
	for _, e := range within(sv.skipped, lo, hi) {
		p.skipped = append(p.skipped, v.entries[e].Name)
	}
	// A key index that turns bad widens what its segment selects, so no
	// sample plan is read or kept while any index of the view is bad: one
	// kept before an index turned bad is never met again.
	key := r.planKey(true)
	intact := !slices.ContainsFunc(v.segs, func(vs viewSegment) bool { return vs.ix.bad.Load() })
	sp, found := v.plans.Get(key)
	if found = found && intact; found {
		r.trace.SelectHits++
	} else {
		r.trace.SelectMisses++
		sp = r.selectVisit(sv, lo, hi)
	}
	p.visit, p.excluded, p.pruned = sp.visit, sp.excluded, slices.Repeat([]int{sp.excluded}, len(r.trains))
	r.trace.CandidatesSkippedNoDecode += int64(sp.excluded)
	r.start(p.visit)
	if r.cascade && found {
		// The sample's sides or, on its second phase 1, a collection of
		// them, unless they would not fit.
		if r.sides = sp.sides; r.sides == nil && sp.cost(key)+sp.sideBytes <= planCacheBytes {
			r.sides, r.collect = make([]sideEntry, len(p.visit)*len(r.probes)), true
		}
	}
	r.forEach(len(p.visit), max(1, min(len(p.visit)/(len(r.w)*8), maxRankChunk)), (*rankRun).joinCandidate)
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
		r.trace.PrunedPairs += int64(n)
	}
	r.trace.Visited = int64(len(p.visit))
	slices.Sort(p.skipped)
	if intact && clean && s.gen.Load() == r.gen {
		switch {
		case !found:
			v.plans.Add(key, sp, sp.cost(key))
		case r.collect:
			r.keepSides(key, sp)
		}
	}
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

// selectVisit builds a sample plan without sides: the visit list,
// narrowed by index selection when the index may exclude.
func (r *rankRun) selectVisit(sv *seedView, lo, hi int32) *rankPlan {
	s, opt := r.s, &r.opt
	sp := &rankPlan{visit: within(sv.cands, lo, hi)}
	if opt.MinJoinSize >= 0 && !opt.NoIndex {
		sc := s.selectPool.Get().(*selectScratch)
		sp.visit, sp.excluded = sc.selectVisit(r.v, r.seed, sp.visit, lo, hi, r.probes, opt.MinJoinSize)
		s.selectPool.Put(sc)
	} else if empty := within(sv.empty, lo, hi); opt.MinJoinSize < 0 && len(empty) > 0 {
		sp.visit = append(slices.Clone(sp.visit), empty...)
		slices.Sort(sp.visit)
	}
	for _, p := range r.probes {
		sp.sideBytes += int64(len(sp.visit)) * (sideEntryBytes + int64(p.Train().Len()))
	}
	return sp
}

// joinCandidate is phase 1 for one visit position. The candidate is
// loaded unless the sample plan keeps its side for every train.
func (r *rankRun) joinCandidate(w *rankWorker, scratch *core.Scratch, i int) bool {
	opt := &r.opt
	m := r.v.entries[r.visit[i]]
	var sides []sideEntry // this candidate's, one per train: kept, or being collected
	if r.sides != nil {
		sides = r.sides[i*len(r.probes) : (i+1)*len(r.probes)]
	}
	var cand *core.Sketch
	if sides != nil && !slices.ContainsFunc(sides, func(e sideEntry) bool { return !e.answers }) {
		w.trace.SideHits++
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
		var e sideEntry
		hit := sides != nil && sides[q].answers
		if hit {
			e = sides[q]
		} else {
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
		} else if !r.cascade {
			if est := probe.EstimateJoined(cand, js, opt.K, scratch); est.MI >= opt.MinMI[q] {
				r.tops[q].offer(RankedSketch{Name: m.Name, MI: est.MI, Estimator: est.Estimator, JoinSize: est.N}, opt.TopK)
			}
		} else {
			var cr mi.CheapResult
			switch {
			case !m.Numeric && !probe.Train().Numeric:
				// Categorical–categorical: the exact estimator is already the
				// plug-in, so there is no cheaper tier — the pair is exempt
				// and always scored exactly.
				cr.MI = math.Inf(1)
			case hit:
				cr = probe.CheapMIKept(e.rows, &e.y, mi.DefaultCheapBins, scratch)
			case r.collect:
				if cr = scratch.CheapMI(js, &e.y, mi.DefaultCheapBins); e.y.Card > 0 {
					e.rows = scratch.Rows()
				}
			default:
				cr = scratch.CheapMI(js, nil, mi.DefaultCheapBins)
			}
			w.tasks = append(w.tasks, cascadeTask{ci: int32(i), q: int32(q), cheap: cr.MI, ceil: cr.Ceil})
		}
		if r.collect {
			e.answers = e.rows != nil || e.overlap <= opt.MinJoinSize
			sides[q] = e
		}
	}
	return true
}

// sideEntry is one candidate's side of its join with one train's key
// sample: what answers the pair without loading, probing or binning the
// candidate.
type sideEntry struct {
	overlap int
	dup     bool           // the candidate repeats a key hash: never counted as pruned
	rows    *core.JoinRows // nil unless the pair was scored and its side kept
	y       mi.CheapY      // the candidate's IDs at mi.DefaultCheapBins
	// answers: the entry answers its pair, pruned or scored — not a
	// categorical–categorical pair, more than 256 IDs or a pair past the
	// flat joint table.
	answers bool
}

// sideEntryBytes is what a sample plan charges for an entry besides its IDs.
const sideEntryBytes = 64

// keepSides publishes the sides this call collected as the sample's plan
// or, if they do not fit, the plan it found with what they measured, which
// no later call collects again. Joined rows are shared by a run of
// candidates the join memo matched as one: 4 bytes a train entry, charged
// once.
func (r *rankRun) keepSides(key planKey, sp *rankPlan) {
	full := *sp // a sample plan's other fields are its visit list and excluded count
	full.sides, full.sideBytes = r.sides, 0
	charged := map[*core.JoinRows]bool{}
	kept := 0
	for k, e := range r.sides {
		full.sideBytes += sideEntryBytes + int64(len(e.y.IDs))
		if e.rows != nil && !charged[e.rows] {
			charged[e.rows] = true
			full.sideBytes += 4 * int64(r.probes[k%len(r.probes)].Train().Len())
		}
		if e.answers {
			kept++
		}
	}
	r.trace.SideFills += int64(kept)
	if full.cost(key) > planCacheBytes {
		full.sides = nil
	}
	r.v.plans.Add(key, &full, full.cost(key))
}
