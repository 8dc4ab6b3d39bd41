package store

// Batch discovery: rank N train sketches against the stored corpus in a
// single pass. An analyst sweeping dozens of target columns over the
// same catalog would otherwise issue N independent RankQuery calls, each
// re-admitting, re-loading, and re-estimating every candidate. RankBatch
// shares the per-candidate work across the whole batch — one manifest
// snapshot, one load per candidate, one compiled probe per train — and
// adds the key-overlap prefilter: because the sketches are coordinated
// samples, the sketch join size of a (train, candidate) pair is
// computable from key hashes alone (core.KeyOverlap), so any pair the
// min-join confidence filter would drop is pruned before its estimator
// ever runs, at a small fraction of the estimator's cost. Rankings are
// bit-identical to running RankQuery per train.
//
// RankBatch below is the one copy of the ranking machinery — catalog
// view snapshot, index-driven candidate selection, worker pool,
// mutation-race triage, one bounded heap per train, deterministic order —
// and RankQuery is RankBatch on one train, handing it its RankOptions as
// it got them. The per-pair probe prefilter is always on;
// on top of it, sealed segments carry a persistent inverted key index
// (keyindex.go) that, through the catalog view (catalogview.go), excludes
// never-joining candidates before they are loaded — selection cost grows
// with the postings touched and the matching candidates, not with catalog
// size. NoIndex turns that selection off and nothing else.

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"misketch/internal/core"
)

// DefaultCascadeMargin is the safety margin in nats the cascade adds to
// the cheap tier's score before comparing it against the running K-th
// exact MI. Calibrated by the internal/exp cascade experiment
// (RunCascadeCalib) over the synthetic dependence families and the
// NYC/WBF corpus stand-ins at mi.DefaultCheapBins: 1.25 is the smallest
// swept margin at which no observed pair's exact−cheap residual exceeds
// the margin without the saturation guard catching it (the largest
// unguarded residual there measured ≈ 0.95 nats), and the golden-corpus
// and differential suites pin that rankings under this margin stay
// bit-identical to the exact pass.
const DefaultCascadeMargin = 1.25

// workerMinChunk is the smallest amount of per-worker work worth a
// goroutine: the default worker count never exceeds
// ceil(eligible/workerMinChunk).
const workerMinChunk = 32

// maxRankChunk caps phase 1's work-stealing claim size so the tail of a
// query still splits across workers even at very large candidate counts.
const maxRankChunk = 64

// raiseBound lifts the train's shared K-th-MI lower bound to v if v is
// higher. Bounds are encoded as Float64bits(v)+1 in a uint64 (zero
// meaning "no bound yet"); v is always a clamped, nonnegative exact
// MI, whose bit patterns order like the values, so the CAS loop is a
// plain integer max.
func raiseBound(b *atomic.Uint64, v float64) {
	enc := math.Float64bits(v) + 1
	for {
		cur := b.Load()
		if cur >= enc || b.CompareAndSwap(cur, enc) {
			return
		}
	}
}

// BatchQueryResult is one train's slice of a batch discovery result.
type BatchQueryResult struct {
	// Ranked is the query's result, ordered exactly as RankQuery orders
	// it (decreasing MI, ties by name, bounded to TopK when positive).
	Ranked []RankedSketch
	// Pruned counts the candidates the key-overlap prefilter removed
	// for this train: their key-hash overlap proved the sketch join
	// would have at most MinJoinSize samples, so no estimator ran.
	Pruned int
	// SeedBound, under RankOptions.Seed, bounds from above the exact MI
	// of every candidate left unscored: their largest cheap + margin, -1
	// when none was left, +Inf when one of them is saturated or
	// categorical–categorical, or the query ran without the cascade.
	SeedBound float64
}

// BatchResult is the result of a batch discovery query.
type BatchResult struct {
	// Queries holds one result per train, in input order.
	Queries []BatchQueryResult
	// Skipped lists prefix-matching stored sketches no query could join
	// (incompatible seed or role, or mutated mid-query). The list is
	// shared: every query in a batch filters on the same seed.
	Skipped []string
	// RankTrace is what this call did.
	RankTrace
}

// RankTrace counts what ranking did: one call, on its BatchResult, or
// every call of a store handle, in Stats. It is the one list of a rank's
// counters; each worker tallies its own and a call sums them once, as it
// returns.
type RankTrace struct {
	// PrunedPairs counts the (train, candidate) pairs discovery queries
	// skipped via the key-overlap prefilter — estimator invocations the
	// coordinated-sample intersection proved unnecessary (whether the
	// overlap came from a segment's key index or a loaded candidate).
	PrunedPairs int64 `json:"pruned_pairs"`
	// CandidatesSkippedNoDecode counts candidates the per-segment key
	// indexes excluded from ranking without decoding a single record —
	// the prune rate that makes selection sub-linear in catalog size.
	CandidatesSkippedNoDecode int64 `json:"candidates_skipped_no_decode"`
	// CascadeCheapOnly / CascadeExact split the cascade-eligible
	// (train, candidate) pairs of ranking queries by how they resolved:
	// by the cheap binned tier alone (the exact estimator never ran) or
	// by the exact KSG-family tier. Their sum is the number of
	// cascade-eligible pairs estimated; pairs of two categorical columns
	// (whose exact estimator is already the cheap plug-in) and queries
	// run with NoCascade or without a top-K bound are not counted.
	CascadeCheapOnly int64 `json:"cascade_cheap_only"`
	CascadeExact     int64 `json:"cascade_exact"`
	// CascadeMarginRescues counts exact-tier runs that the raw cheap
	// score alone would have pruned — the safety margin or the
	// saturation guard admitted them — and that then entered a running
	// top-K heap. A zero rescue count under a representative workload is
	// evidence the margin has slack; a high one means the cheap tier
	// misorders that workload and the margin is load-bearing.
	CascadeMarginRescues int64 `json:"cascade_margin_rescues"`
	// ExactMemoHits counts the CascadeExact pairs whose answer a reused
	// plan remembered from an earlier call at the same K (rankplan.go):
	// offered as computed then, with no load, join or estimate.
	ExactMemoHits int64 `json:"exact_memo_hits"`
	// PlanHits counts cascaded ranks that found their phase 1 memoised on
	// the catalog view (rankplan.go) and ran phase 2 alone, PlanMisses
	// those that looked and had to plan. A rank without the cascade never
	// looks.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	// SelectHits counts phase 1s that found their trains' sample plan on
	// the catalog view (rankplan.go); SelectMisses those that selected anew.
	SelectHits   int64 `json:"select_hits"`
	SelectMisses int64 `json:"select_misses"`
	// SideHits counts candidates phase 1 answered from a sample plan's
	// sides (rankplan.go); SideFills the sides phase 1 collected for one.
	SideHits  int64 `json:"side_hits"`
	SideFills int64 `json:"side_fills"`
	// Visited counts the candidates phase 1 visited, Decoded the loads of
	// both phases, sketch-cache hits included.
	Visited int64 `json:"candidates_visited"`
	Decoded int64 `json:"candidate_loads"`
	// ViewBuild is how long ranks held the store's lock building the
	// catalog view an open or a mutation had dropped.
	ViewBuild time.Duration `json:"view_build_ns"`
}

// add adds o to t field by field; each field is an int64 or a Duration.
func (t *RankTrace) add(o *RankTrace) {
	tv, ov := reflect.ValueOf(t).Elem(), reflect.ValueOf(o).Elem()
	for i := range tv.NumField() {
		tv.Field(i).SetInt(tv.Field(i).Int() + ov.Field(i).Int())
	}
}

// RankBatch ranks every train sketch against the stored candidates in
// one corpus pass; it is the shared ranking core, and RankQuery is
// RankBatch on one train. Each train's ranking — estimates, order, top-K
// cut — is bit-for-bit identical to an independent RankQuery call with
// the same options, but the batch pays the per-candidate costs once, as
// the file header tells. Pruned pair counts are reported per query and
// aggregated in Stats.
//
// It runs in two named stages with a value between them: planRank
// (rankplan.go) is phase 1 — select, load, join, cheap-score — and
// runPlan is phase 2 — seed cut, MinMI floors, K-th bound, exact tier,
// ordering. Phase 1 reads nothing of TopK, MinMI, Seed, K, CascadeMargin
// or Workers, so under the cascade its plan is memoised on the catalog
// view, and calls on trains of equal content that differ only in those
// share it until the catalog moves. A (train, candidate) pair whose
// key-hash overlap is at or below MinJoinSize (when that is >= 0 —
// a negative cutoff keeps even empty joins, so nothing is prunable) is
// counted as pruned instead of estimated — by the index when the
// candidate's segment has one and NoIndex is off (the candidate is then
// never decoded at all), by the probe otherwise; candidates with
// duplicated key hashes are exempted so the malformed-input error
// behavior is the same on both routes.
//
// All trains must share a hash seed (they could not share a candidate
// filter otherwise); a batch mixing seeds fails up front. An empty
// batch returns an empty result. One train counts as a query in Stats
// and any other number as a batch, whichever entry point the call came
// through. Estimation stops early when ctx is cancelled, and any
// worker's error cancels the whole batch.
func (s *Store) RankBatch(ctx context.Context, trains []*core.Sketch, opt RankOptions) (res *BatchResult, err error) {
	if len(trains) == 1 {
		s.rankQueries.Add(1)
	} else {
		s.rankBatches.Add(1)
	}
	if len(trains) == 0 {
		return &BatchResult{Queries: []BatchQueryResult{}}, nil
	}
	if opt, err = opt.Resolve(len(trains)); err != nil {
		return nil, err
	}
	for q, tr := range trains {
		if tr.Seed != trains[0].Seed {
			return nil, fmt.Errorf("store: batch trains must share a hash seed (train 0 has %#x, train %d has %#x)", trains[0].Seed, q, tr.Seed)
		}
	}
	r := &rankRun{s: s, trains: trains, opt: opt, seed: trains[0].Seed}
	r.cascade = opt.TopK > 0 && !opt.NoCascade
	r.margin = max(opt.CascadeMargin, 0)
	// Any worker's error cancels the rest, as the caller's cancellation
	// does: ranking either returns every result or an error — the first
	// one, the context's cause — so work after a failure is wasted.
	r.ctx, r.cancel = context.WithCancelCause(ctx)
	defer r.cancel(nil)
	// However the call ends, its trace reaches the store's totals once.
	defer func() {
		for _, w := range r.w {
			r.trace.add(&w.trace)
		}
		s.mu.Lock()
		s.ranked.add(&r.trace)
		s.mu.Unlock()
		if res != nil {
			res.RankTrace = r.trace
		}
	}()

	// The catalog view, this seed's partition of it, its generation and
	// the segment pins come from one critical section — one atomic
	// snapshot. The pins keep the mmap'd raw record bytes (which the
	// workers' zero-copy sketch views borrow) and key indexes valid even
	// if a compaction retires them.
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, errClosed
	}
	if s.view == nil {
		start := time.Now()
		s.viewLocked()
		r.trace.ViewBuild = max(time.Since(start), time.Nanosecond) // non-zero: it was built
	}
	r.v = s.viewLocked()
	r.gen = s.gen.Load()
	sv := r.v.seed(r.seed)
	release := s.backend.pin(r.v.pins)
	s.mu.Unlock()
	defer release()

	r.probes = make([]*core.TrainProbe, len(trains))
	for q, tr := range trains {
		r.probes[q] = core.CompileTrainProbe(tr)
	}
	var key planKey
	if r.cascade {
		key = r.planKey(false)
		if p, ok := r.v.plans.Get(key); ok {
			// What phase 1 pruned and excluded, as a miss counts it.
			r.trace.PlanHits, r.trace.CandidatesSkippedNoDecode = 1, int64(p.excluded)
			for _, n := range p.pruned {
				r.trace.PrunedPairs += int64(n)
			}
			r.start(p.visit)
			return r.runPlan(p)
		}
		r.trace.PlanMisses = 1
	}
	p, clean := r.planRank(sv)
	if err := context.Cause(r.ctx); err != nil {
		return nil, err
	}
	// Trains whose values alone would crowd out the view's other plans keep none.
	if r.cascade && clean && len(key.ids) <= planCacheBytes/8 {
		r.v.plans.Add(key, p, p.cost(key))
	}
	return r.runPlan(p)
}

// rankRun is what one ranking call threads through its stages.
type rankRun struct {
	s      *Store
	ctx    context.Context
	cancel context.CancelCauseFunc
	trains []*core.Sketch
	probes []*core.TrainProbe
	opt    RankOptions // resolved
	seed   uint32
	// Derived from opt: whether the cascade runs, and its margin with a
	// negative one read as none.
	cascade bool
	margin  float64
	v       *catalogView
	gen     uint64  // the store's generation when v was taken
	visit   []int32 // the plan's: entry positions, in name order
	w       []*rankWorker
	tops    []rankHeap // per train
	// Phase 2 only: the plan it runs and, under Seed, the plan positions
	// of the pairs it visits, in order (nil: it visits them all).
	plan  *rankPlan
	order []int32
	// cands holds, by visit index, the candidates phase 2 scores: left by
	// phase 1 when this call loaded them (nothing is decoded twice), loaded
	// on first use under a reused plan or after a side hit; lateSkip once
	// triage dropped one.
	cands   []atomic.Pointer[core.Sketch]
	sides   []sideEntry // the sample plan's candidate sides (rankplan.go)
	collect bool        // phase 1 fills sides for a new sample plan and reads none
	trace   RankTrace   // the call's, less its workers' until it returns
}

// rankWorker is one worker's partial state: its tallies and its share of
// phase 1's tasks.
type rankWorker struct {
	pruned []int64
	late   []string
	trace  RankTrace
	tasks  []cascadeTask
}

// lateSkip marks a rankRun.cands slot whose candidate was skipped.
var lateSkip = new(core.Sketch)

// start sizes the worker pool and its state for a plan's visit list.
func (r *rankRun) start(visit []int32) {
	r.visit = visit
	workers := r.opt.Workers
	if workers <= 0 {
		// Default fan-out: one worker per P, but never more workers than
		// there are minimum-sized chunks of useful work — spinning a
		// goroutine to score a handful of candidates costs more than the
		// scoring. An explicit Workers value is honored as given.
		workers = min(runtime.GOMAXPROCS(0), (len(visit)+workerMinChunk-1)/workerMinChunk)
	}
	workers = max(1, min(workers, len(visit)))
	r.tops = make([]rankHeap, len(r.trains))
	r.w = make([]*rankWorker, workers)
	for i := range r.w {
		r.w[i] = &rankWorker{pruned: make([]int64, len(r.trains))}
	}
	if r.cascade {
		r.cands = make([]atomic.Pointer[core.Sketch], len(visit))
	}
}

// forEach drives one phase: the workers claim chunk indexes of [0, total)
// at a time off a shared cursor (work stealing, not static striding: a
// worker stalled on a slow segment read or an expensive estimate claims
// less) and feed each to body, which returns false to stop its worker
// (after cancelling the run with its error). Phase 1 claims chunks, which
// keeps the cursor an order of magnitude cheaper than its items; phase 2
// claims single pairs, because its list is sorted by promise: a chunk
// would hand one worker every contender and leave the next one scoring
// pairs that the bound, once up, settles in O(1).
func (r *rankRun) forEach(total, chunk int, body func(*rankRun, *rankWorker, *core.Scratch, int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range r.w {
		wg.Add(1)
		go r.work(w, &next, total, chunk, body, &wg)
	}
	wg.Wait()
}

// work is one worker of forEach, with a pooled scratch. Once the run is
// cancelled — an error here or in another worker, or the caller's context
// — it stops at its next claim: reading Done takes no lock, Err would. A
// panic under body is the query's error, not the process's end: no
// request handler's recovery covers a worker goroutine.
func (r *rankRun) work(w *rankWorker, next *atomic.Int64, total, chunk int, body func(*rankRun, *rankWorker, *core.Scratch, int) bool, wg *sync.WaitGroup) {
	defer wg.Done()
	scratch := r.s.rankScratch.Get()
	defer func() {
		if v := recover(); v != nil {
			// The scratch may be half-written: dropped, not pooled.
			err := fmt.Errorf("store: rank worker panicked: %v", v)
			fmt.Fprintf(os.Stderr, "%v\n%s", err, debug.Stack())
			r.s.rankPanics.Add(1)
			r.cancel(err)
			return
		}
		r.s.rankScratch.Put(scratch)
	}()
	done := r.ctx.Done()
	for {
		start := int(next.Add(int64(chunk))) - chunk
		if start >= total {
			return
		}
		select {
		case <-done:
			return
		default:
		}
		for i := start; i < min(start+chunk, total); i++ {
			if testHookRankWork != nil {
				testHookRankWork(i)
			}
			if !body(r, w, scratch, i) {
				return
			}
		}
	}
}

// load fetches a snapshot-admitted candidate for either phase and
// triages a racing mutation: nil with no error means skipped.
func (r *rankRun) load(w *rankWorker, m Meta) (*core.Sketch, error) {
	cand, err := r.s.read(m, r.v.pins, r.gen)
	if err != nil {
		// The snapshot admitted this candidate; distinguish a
		// concurrent mutation (the manifest no longer carries the
		// snapshotted record — skip, the racing writer wins) from
		// genuine corruption behind an unchanged manifest (fail).
		if cur, ok := r.s.Meta(m.Name); r.s.closed.Load() {
			return nil, errClosed // Close empties the catalog Meta reads
		} else if !ok || cur != m {
			w.late = append(w.late, m.Name)
			return nil, nil
		}
		return nil, err
	}
	w.trace.Decoded++
	if cand.Seed != r.seed || cand.Role != core.RoleCandidate {
		// A Put overwrote the sketch with an incompatible one
		// after the snapshot filtered on the old metadata.
		w.late = append(w.late, m.Name)
		return nil, nil
	}
	return cand, nil
}

// runPlan is phase 2 and the final ordering. Under the cascade it visits
// the plan's pairs from strongest cheap score down. The first exact runs
// are the true contenders, so each train's heap fills and its bound
// reaches the final K-th MI almost immediately, and every later pair
// settles with the O(1) check cheap + margin < bound — the exact tier (and
// its re-join) runs only for contenders, margin-band pairs, pairs whose
// score is saturated against its binned ceiling, and the at most Workers
// − 1 pairs in flight when the bound lands. Survivors' joins are recomputed
// rather than kept: a scatter join costs microseconds, every phase-1 join
// kept would be the whole catalog's samples in memory. Without the cascade
// phase 1 scored every pair exactly and only the ordering is left.
func (r *rankRun) runPlan(p *rankPlan) (*BatchResult, error) {
	opt := &r.opt
	res := &BatchResult{Queries: make([]BatchQueryResult, len(r.trains))}
	for q := range res.Queries {
		res.Queries[q].Pruned = p.pruned[q]
		if opt.Seed && r.cascade {
			res.Queries[q].SeedBound = -1 // until a pair is left unscored
		} else if opt.Seed {
			res.Queries[q].SeedBound = math.Inf(1)
		}
	}
	if r.cascade {
		r.plan = p
		n := len(p.tasks)
		if opt.Seed {
			// Keep each train's first TopK pairs; every pair after them
			// only feeds the train's bound on what the answer leaves out.
			// The cut lists plan positions, which the exact slots share.
			taken := make([]int, len(r.trains))
			r.order = []int32{}
			for i, t := range p.tasks {
				switch b := &res.Queries[t.q].SeedBound; {
				case taken[t.q] < opt.TopK:
					taken[t.q]++
					r.order = append(r.order, int32(i))
				case t.cheap+r.margin >= t.ceil: // saturated, or exempt
					*b = math.Inf(1)
				default:
					*b = max(*b, t.cheap+r.margin)
				}
			}
			n = len(r.order)
		}
		for q, floor := range opt.MinMI {
			if floor > 0 {
				raiseBound(&r.tops[q].bound, floor)
			}
		}
		r.forEach(n, 1, (*rankRun).scoreTask)
	}
	if err := context.Cause(r.ctx); err != nil {
		return nil, err
	}
	res.Skipped = slices.Clone(p.skipped)
	for _, w := range r.w {
		res.Skipped = append(res.Skipped, w.late...)
	}
	if len(res.Skipped) > len(p.skipped) {
		// Two workers can triage one candidate of a batch.
		slices.Sort(res.Skipped)
		res.Skipped = slices.Compact(res.Skipped)
	}
	// A train's heap holds its global top K, or without TopK every result;
	// byRank is a total order (names are distinct), so the ranking is the
	// same whatever the scheduling and the sorting algorithm.
	for q := range r.trains {
		slices.SortFunc(r.tops[q].s, byRank)
		res.Queries[q].Ranked = r.tops[q].s
	}
	return res, nil
}

// scoreTask is phase 2 for one pair. Once the train's heap is full, its
// root is a lower bound L on the final K-th exact MI — at least K
// candidates scored ≥ L, so a pair with cheap + margin < L has exact MI
// < L (margin calibration) and cannot appear in the final top K no matter
// how names break ties. A pair the plan remembers an answer for at this K
// is offered that answer, and nothing is loaded, joined or estimated.
func (r *rankRun) scoreTask(w *rankWorker, scratch *core.Scratch, i int) bool {
	if r.order != nil {
		i = int(r.order[i])
	}
	t := r.plan.tasks[i]
	rescue := false
	if !r.opt.Seed { // an exempt pair's +Inf passes through: never settled, never a rescue
		if tb := r.tops[t.q].bound.Load(); tb != 0 {
			kth := math.Float64frombits(tb - 1)
			ub := t.cheap + r.margin
			if ub < t.ceil && ub < kth {
				w.trace.CascadeCheapOnly++ // settled by the cheap tier alone
				return true
			}
			// Admitted only thanks to the margin or the
			// saturation guard: a rescue if it lands.
			rescue = t.cheap < kth
		}
	}
	// Exempt pairs pay the exact tier too: together the two
	// counters partition every pair that survived the filters.
	w.trace.CascadeExact++
	m := r.v.entries[r.visit[t.ci]]
	slot := &r.plan.exact[i]
	rs, remembered := slot.get(r.opt.K)
	if remembered {
		w.trace.ExactMemoHits++
	} else {
		cand := r.cands[t.ci].Load()
		// A reused plan keeps positions, not sketches, and phase 1 loads no
		// candidate it answers from the view's sides.
		if cand == nil {
			var err error
			if cand, err = r.load(w, m); err != nil {
				r.cancel(err)
				return false
			} else if cand == nil {
				cand = lateSkip
			}
			r.cands[t.ci].Store(cand)
		}
		if cand == lateSkip {
			return true
		}
		// A compatible overwrite since phase 1 may no longer join.
		js, err := r.probes[t.q].JoinAbove(cand, r.opt.MinJoinSize, true, scratch)
		if err != nil {
			r.cancel(fmt.Errorf("store: estimating %q: %w", m.Name, err))
			return false
		} else if js.Size <= r.opt.MinJoinSize {
			return true
		}
		e := r.probes[t.q].EstimateJoined(cand, js, r.opt.K, scratch)
		rs = RankedSketch{MI: e.MI, Estimator: e.Estimator, JoinSize: e.N}
		// Remembered only if no mutation has moved the store since the view
		// was taken: a record a compaction moved is read at its new home.
		if r.s.gen.Load() == r.gen {
			slot.put(r.opt.K, rs)
		}
	}
	rs.Name = m.Name
	if rs.MI >= r.opt.MinMI[t.q] && r.tops[t.q].offer(rs, r.opt.TopK) && rescue {
		w.trace.CascadeMarginRescues++
	}
	return true
}

// cascadeTask is one (candidate, train) pair recorded by the cascade's
// phase 1: the pair survived the prefilter and min-join cut, its cheap
// score and ceiling are cached, and phase 2 decides its exact-tier fate.
type cascadeTask struct {
	ci int32 // index into visit/cands
	q  int32 // train index
	// cheap is also the phase-2 visit priority, descending. An exempt
	// pair (categorical–categorical: no cheaper tier exists) carries
	// +Inf and a zero ceil: it sorts first and no bound ever settles it.
	cheap float64
	ceil  float64
}
