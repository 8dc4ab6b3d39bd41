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
// rankTrains below is the one copy of the ranking machinery — catalog
// view snapshot, index-driven candidate selection, worker pool,
// mutation-race triage, bounded heaps, deterministic merge — shared by
// RankQuery (one train) and RankBatch (N trains). Both paths run the
// prefilter by default; NoIndex restores the historic
// estimate-everything reference semantics for differential testing and
// benchmarking. On top of the per-pair probe prefilter, sealed segments
// carry a persistent inverted key index (keyindex.go) that, through the
// store's catalog view (catalogview.go), excludes never-joining
// candidates before they are even loaded — selection cost grows with the
// postings touched and the matching candidates, not with catalog size.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"misketch/internal/core"
	"misketch/internal/mi"
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

// maxRankChunk caps the work-stealing claim size so the tail of a query
// still splits across workers even at very large candidate counts.
const maxRankChunk = 64

// raiseBound lifts the train's shared K-th-MI lower bound to v if v is
// higher. Bounds are encoded as Float64bits(v)+1 in a uint64 (zero
// meaning "no full heap yet"); v is always a clamped, nonnegative exact
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

// BatchOptions tunes a batch discovery query; see RankBatch. The fields
// shared with RankOptions (Prefix, MinJoinSize, K, TopK, Workers,
// ScratchPool) mean exactly what they mean there and apply to every
// query in the batch.
type BatchOptions struct {
	// Prefix restricts ranking to stored sketches whose name has this
	// prefix; empty ranks everything.
	Prefix string
	// MinJoinSize drops candidates whose sketch join has at most this
	// many samples. It is also the prefilter threshold: pairs whose
	// key-hash overlap proves the join at or below it are pruned without
	// estimation.
	MinJoinSize int
	// K is the neighbor parameter of the KSG-family estimators.
	K int
	// TopK > 0 bounds each query's result to its K best candidates;
	// <= 0 returns every candidate per query.
	TopK int
	// Workers overrides the estimation fan-out; <= 0 means GOMAXPROCS.
	Workers int
	// Probes, when non-nil, must be parallel to the trains slice;
	// non-nil entries are pre-compiled indexes (core.CompileTrainProbe
	// on the same sketch) reused instead of compiling. Nil entries are
	// compiled here. Long-running services cache probes by train-sketch
	// content across batches.
	Probes []*core.TrainProbe
	// ScratchPool, when non-nil, supplies the per-worker estimator
	// scratch, shared across every query in the batch; when nil the
	// store's own pool is used, so scratch buffers stay warm across
	// queries on one handle either way.
	ScratchPool *core.ScratchPool
	// NoIndex disables index-driven candidate selection: every
	// manifest-admitted candidate is loaded and prefiltered per pair,
	// exactly as before segments carried inverted key indexes. Rankings
	// and Pruned counts are identical either way — the flag exists for
	// differential tests and full-walk benchmarking.
	NoIndex bool
	// NoCascade disables the two-tier estimator cascade; see
	// RankOptions.NoCascade.
	NoCascade bool
	// CascadeMargin overrides the cascade safety margin in nats; see
	// RankOptions.CascadeMargin (0 means DefaultCascadeMargin, negative
	// means none).
	CascadeMargin float64
	// MinMI, when non-nil, must be parallel to the trains slice: train
	// q's result is the top TopK of the candidates whose exact MI is at
	// least MinMI[q]. The cascade's K-th-MI bound starts there, so a pair
	// is pruned only when cheap + margin puts it provably below the floor
	// or provably outside the local top K: the result is exact whatever
	// the floor, and cheaper the higher it is.
	MinMI []float64
	// Seed asks for a seed answer instead of the ranking: phase 1 runs
	// in full, then only each train's first TopK pairs in the cascade's
	// deterministic cheap-descending order are scored exactly and
	// returned, BatchQueryResult.SeedBound covering the rest. It is how a
	// cluster coordinator finds a global MinMI.
	Seed bool
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
	// SeedBound, under BatchOptions.Seed, bounds from above the exact MI
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
}

// RankBatch ranks every train sketch against the stored candidates in
// one corpus pass. Each train's ranking — estimates, order, top-K cut —
// is bit-for-bit identical to an independent RankQuery call with the
// same options, but the batch pays the per-candidate costs once instead
// of once per train: one manifest snapshot, one candidate load (and one
// cache slot touch) per candidate, and the key-overlap prefilter (the
// overlap core.KeyOverlap defines, read off the join's own probe of the
// compiled train index) skips the estimator for
// every (train, candidate) pair whose coordinated-sample key
// intersection already proves the join at or below MinJoinSize. Pruned
// pair counts are reported per query and aggregated in Stats.
//
// All trains must share a hash seed (they could not share a candidate
// filter otherwise); a batch mixing seeds fails up front. An empty
// batch returns an empty result. Estimation stops early when ctx is
// cancelled, and any worker's error cancels the whole batch.
func (s *Store) RankBatch(ctx context.Context, trains []*core.Sketch, opt BatchOptions) (*BatchResult, error) {
	s.rankBatches.Add(1)
	if len(trains) == 0 {
		return &BatchResult{Queries: []BatchQueryResult{}}, nil
	}
	if opt.Probes != nil && len(opt.Probes) != len(trains) {
		return nil, fmt.Errorf("store: RankBatch got %d probes for %d trains", len(opt.Probes), len(trains))
	}
	if opt.MinMI != nil && len(opt.MinMI) != len(trains) {
		return nil, fmt.Errorf("store: RankBatch got %d MinMI floors for %d trains", len(opt.MinMI), len(trains))
	}
	for q, tr := range trains {
		if tr.Seed != trains[0].Seed {
			return nil, fmt.Errorf("store: batch trains must share a hash seed (train 0 has %#x, train %d has %#x)", trains[0].Seed, q, tr.Seed)
		}
	}
	return s.rankTrains(ctx, trains, opt, true)
}

// getForRank loads a candidate for a ranking worker, preferring the
// cache and falling back to a zero-copy view decoded out of the pinned
// segment mappings. A cached entry is only trusted if it owns its
// memory or borrows from a segment this query pinned; anything else
// (a view into a newer, unpinned segment) is bypassed in favor of the
// snapshot's own — pinned — location, whose bytes are immutable.
// Like the legacy path, a cache hit may surface a newer compatible
// version of the sketch than the snapshot admitted; the caller's
// mutation triage handles incompatible ones.
func (s *Store) getForRank(m Meta, pinned map[uint64]struct{}) (*core.Sketch, error) {
	s.mu.Lock()
	if ent, ok := s.cache.Get(m.Name); ok {
		if _, isPinned := pinned[ent.seg]; ent.seg == 0 || isPinned {
			s.mu.Unlock()
			return ent.sk, nil
		}
		// Borrowed from a segment outside the pin set; fall through.
	}
	b := s.backend
	s.mu.Unlock()
	sk, tag, err := b.loadView(m)
	for attempt := 0; err == errSegmentGone && attempt < 3; attempt++ {
		// A compaction retired the snapshot's segment between this
		// query's pin and this load: the record was copied, not lost.
		// Chase its current location with an owning load (the new
		// segment is outside our pin set, so a borrowed view could be
		// retired again mid-query; a clone cannot).
		s.mu.Lock()
		cur, ok := s.manifest[m.Name]
		b = s.backend
		s.mu.Unlock()
		if !ok {
			break // genuinely deleted meanwhile; triage skips it
		}
		sk, err = b.loadOwned(cur)
		tag = 0
	}
	if err != nil {
		return nil, err
	}
	s.diskReads.Add(1)
	s.mu.Lock()
	// Cache the decode only if the sketch was not overwritten or deleted
	// meanwhile: a stale view must not shadow the mutation's result.
	if cur, ok := s.manifest[m.Name]; ok && cur == m && s.backend == b {
		s.cacheLocked(m.Name, sk, tag)
	}
	s.mu.Unlock()
	return sk, nil
}

// rankTrains is the shared ranking core. Candidates are admitted by one
// catalog view (partitioned on the trains' common seed), selected
// against the sealed segments' inverted key indexes, striped across a
// worker pool, loaded once each, and scored against every train. With
// prefilter set (and MinJoinSize >= 0 — a negative cutoff keeps even
// empty joins, so nothing is prunable), a (train, candidate) pair whose
// key-hash overlap is at or below MinJoinSize is counted as pruned
// instead of estimated — by the index when the candidate's segment has
// one (the candidate is then never decoded at all), by the probe
// otherwise; candidates with duplicated key hashes are exempted so the
// malformed-input error behavior matches the unprefiltered path
// exactly. Callers have validated that all trains share a seed.
func (s *Store) rankTrains(ctx context.Context, trains []*core.Sketch, opt BatchOptions, prefilter bool) (*BatchResult, error) {
	seed := trains[0].Seed
	res := &BatchResult{Queries: make([]BatchQueryResult, len(trains))}
	prefilter = prefilter && opt.MinJoinSize >= 0

	// The catalog view, this seed's partition of it and the segment pins
	// come from one critical section — one atomic snapshot. The pins keep
	// the mmap'd record bytes (which the workers' zero-copy sketch views
	// borrow) and key indexes valid even if a compaction retires them.
	s.mu.Lock()
	v := s.viewLocked()
	sv := v.seed(seed)
	release := s.backend.pin(v.pins)
	s.mu.Unlock()
	defer release()

	lo, hi := v.prefixRange(opt.Prefix)
	var skipped []string
	for _, p := range within(sv.skipped, lo, hi) {
		skipped = append(skipped, v.entries[p].Name)
	}

	probes := make([]*core.TrainProbe, len(trains))
	for q, tr := range trains {
		if opt.Probes != nil && opt.Probes[q] != nil {
			probes[q] = opt.Probes[q]
		} else {
			probes[q] = core.CompileTrainProbe(tr)
		}
	}

	// visit holds the entry positions of the candidates to load, in name
	// order (locality for the workers' segment reads). Index-driven
	// selection excludes, without loading them, candidates whose segment
	// index proves every train's overlap at or below the cutoff; each is
	// a pruned pair for every query (the same pairs the probe prefilter
	// below would count one load later). An empty sketch joins nothing and
	// is never read unless the cutoff is negative.
	visit := within(sv.cands, lo, hi)
	if prefilter && !opt.NoIndex {
		var prunedAll int
		visit, prunedAll = s.selectVisit(v, seed, visit, lo, hi, probes, opt.MinJoinSize)
		if prunedAll > 0 {
			s.candNoDecode.Add(int64(prunedAll))
			for q := range res.Queries {
				res.Queries[q].Pruned = prunedAll
			}
		}
	} else if empty := within(sv.empty, lo, hi); opt.MinJoinSize < 0 && len(empty) > 0 {
		visit = append(slices.Clone(visit), empty...)
		slices.Sort(visit)
	}

	workers := opt.Workers
	if workers <= 0 {
		// Default fan-out: one worker per P, but never more workers than
		// there are minimum-sized chunks of useful work — spinning a
		// goroutine to score a handful of candidates costs more than the
		// scoring. An explicit Workers value is honored as given.
		workers = runtime.GOMAXPROCS(0)
		if mw := (len(visit) + workerMinChunk - 1) / workerMinChunk; workers > mw {
			workers = mw
		}
	}
	if workers > len(visit) {
		workers = len(visit)
	}
	if workers < 1 {
		workers = 1
	}
	// Work is claimed in chunks off a shared atomic cursor (work
	// stealing, not static striding): a worker stalled on a slow segment
	// read or an expensive estimate simply claims fewer chunks, and the
	// chunk size keeps cursor contention ~an order of magnitude below
	// per-candidate claiming while still splitting the tail finely.
	chunk := len(visit) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxRankChunk {
		chunk = maxRankChunk
	}

	// Cascade state: per-train monotone lower bounds on the K-th exact
	// MI found so far, shared across workers. Encoded as Float64bits+1
	// (zero = no full heap yet); exact MIs are clamped nonnegative, and
	// the bit patterns of nonnegative floats order like the floats, so a
	// plain uint64 CAS-max maintains each bound. A bound only ever comes
	// from some worker's full heap root, which is a certified lower
	// bound on the global K-th exact MI — pruning against it can never
	// evict a true top-K result (see the phase-2 loop below).
	cascade := opt.TopK > 0 && !opt.NoCascade
	margin := opt.CascadeMargin
	if margin == 0 {
		margin = DefaultCascadeMargin
	} else if margin < 0 {
		margin = 0
	}
	minMI := opt.MinMI
	if minMI == nil {
		minMI = make([]float64, len(trains))
	}
	var kthBound []atomic.Uint64
	if cascade {
		kthBound = make([]atomic.Uint64, len(trains))
		for q, floor := range minMI {
			if floor > 0 {
				raiseBound(&kthBound[q], floor)
			}
		}
	}
	for q := range res.Queries {
		if opt.Seed && cascade {
			res.Queries[q].SeedBound = -1 // until a pair is left unscored
		} else if opt.Seed {
			res.Queries[q].SeedBound = math.Inf(1)
		}
	}

	pool := opt.ScratchPool
	if pool == nil {
		pool = &s.rankScratch
	}
	// Any worker's error cancels the rest: ranking either returns every
	// result or an error, so work after the first failure is wasted.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	// Per-worker partial state, indexed by worker: bounded heaps under a
	// TopK bound (plain slices otherwise), prune and skip tallies,
	// cascade counters, and — under the cascade — the phase-1 task list.
	topsW := make([][]rankHeap, workers)
	allW := make([][][]RankedSketch, workers)
	prunedW := make([][]int64, workers)
	lateSkipped := make([][]string, workers)
	cascadeW := make([][3]int64, workers) // cheap-only, exact, rescues
	tasksW := make([][]cascadeTask, workers)
	for w := 0; w < workers; w++ {
		topsW[w] = make([]rankHeap, len(trains))
		allW[w] = make([][]RankedSketch, len(trains))
		prunedW[w] = make([]int64, len(trains))
	}
	// runWorkers drives one phase: the worker pool claims chunks of
	// [0, total) off a shared cursor and feeds each index to body with a
	// pooled scratch. body returns false to stop the worker (after
	// setErr); the other workers drain via the cancelled context, which
	// is checked once per claimed chunk — at most maxRankChunk items, a
	// few milliseconds of exact estimates at worst — not per item: Err
	// takes a mutex.
	runWorkers := func(total, chunk int, body func(w int, scratch *core.Scratch, i int) bool) {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scratch := pool.Get()
				defer pool.Put(scratch)
				for {
					start := int(atomic.AddInt64(&next, int64(chunk))) - chunk
					if start >= total {
						return
					}
					if err := ctx.Err(); err != nil {
						setErr(err)
						return
					}
					end := start + chunk
					if end > total {
						end = total
					}
					for i := start; i < end; i++ {
						if !body(w, scratch, i) {
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1: decode and triage every candidate once, then prefilter and
	// scratch-join it against every train in one probe per pair
	// (core.TrainProbe.JoinAbove). Without the cascade the exact
	// estimator runs inline, exactly the historic single-pass semantics.
	// With it, the pair's cheap binned score (mi.CheapMI, O(join) time)
	// is recorded instead and the exact tier is deferred to phase 2 —
	// scoring ALL candidates cheaply first is what lets phase 2 visit
	// them from strongest cheap score down, so the top-K threshold is at
	// full height after its first few exact runs instead of after most
	// of the catalog. Decoded sketches are retained (zero-copy views
	// into the pinned segments) so phase 2 never decodes again.
	cands := make([]*core.Sketch, len(visit))
	runWorkers(len(visit), chunk, func(w int, scratch *core.Scratch, i int) bool {
		m := v.entries[visit[i]]
		cand, err := s.getForRank(m, v.pins)
		if err != nil {
			// The snapshot admitted this candidate; distinguish a
			// concurrent mutation (the manifest no longer carries the
			// snapshotted record — skip, the racing writer wins) from
			// genuine corruption behind an unchanged manifest (fail).
			if cur, ok := s.Meta(m.Name); !ok || cur != m {
				lateSkipped[w] = append(lateSkipped[w], m.Name)
				return true
			}
			setErr(err)
			return false
		}
		if cand.Seed != seed || cand.Role != core.RoleCandidate {
			// A Put overwrote the sketch with an incompatible one
			// after the snapshot filtered on the old metadata.
			lateSkipped[w] = append(lateSkipped[w], m.Name)
			return true
		}
		cands[i] = cand
		// A candidate with duplicated key hashes is exempt from the
		// prefilter: estimating it reproduces the unprefiltered
		// behavior exactly (it fails the query only if a duplicate
		// actually joins).
		prune := prefilter && !cand.HasDuplicateKeyHashes()
		for q := range trains {
			// One probe of the train index yields the overlap, the error
			// and the sample; the ordering-hint chains are built only
			// when the exact estimator runs inline.
			js, err := probes[q].JoinAbove(cand, opt.MinJoinSize, !cascade, scratch)
			if err != nil {
				setErr(fmt.Errorf("store: estimating %q: %w", m.Name, err))
				return false
			}
			if js.Size <= opt.MinJoinSize {
				// Nothing was emitted: the prefilter counts the pair as
				// pruned; otherwise the min-join confidence filter would
				// discard the estimate unseen. Either way skip both tiers.
				if prune {
					prunedW[w][q]++
				}
				continue
			}
			if cascade {
				t := cascadeTask{ci: int32(i), q: int32(q)}
				if js.X.IsNumeric() || js.Y.IsNumeric() {
					cr := scratch.MI.CheapMI(js.Y, js.X, mi.DefaultCheapBins)
					t.cheap, t.ceil = cr.MI, cr.Ceil
				} else {
					// Categorical–categorical: the exact estimator is
					// already the plug-in, so there is no cheaper tier —
					// the pair is exempt and always scored exactly.
					t.cheap = math.Inf(1)
				}
				tasksW[w] = append(tasksW[w], t)
				continue
			}
			r := probes[q].EstimateJoined(cand, js, opt.K, scratch)
			rs := RankedSketch{Name: m.Name, MI: r.MI, Estimator: r.Estimator, JoinSize: r.N}
			if r.MI < minMI[q] {
				continue
			}
			if opt.TopK > 0 {
				topsW[w][q].offer(rs, opt.TopK)
			} else {
				allW[w][q] = append(allW[w][q], rs)
			}
		}
		return true
	})

	// Phase 2 (cascade only): visit the recorded pairs from strongest
	// cheap score down. The first exact runs are the true contenders, so
	// each train's shared bound reaches the final K-th MI almost
	// immediately, and every later pair settles with the O(1) check
	// cheap + margin < bound — the exact tier (and its re-join) runs
	// only for contenders, margin-band pairs, and pairs whose score is
	// saturated against its binned ceiling. Once some worker's heap for
	// a train is full, its root is a lower bound L on the final K-th
	// exact MI — at least K candidates scored ≥ L, so a pair with
	// cheap + margin < L has exact MI < L (margin calibration) and
	// cannot appear in the final top K no matter how names break ties.
	// Survivors' joins are recomputed rather than cached across phases:
	// a scatter join costs microseconds, caching every phase-1 join
	// would hold the whole catalog's samples in memory.
	if cascade && firstErr == nil {
		var tasks []cascadeTask
		for _, ts := range tasksW {
			tasks = append(tasks, ts...)
		}
		// Deterministic visit order regardless of phase-1 scheduling:
		// cheap score descending (exempt pairs first), names and train
		// index breaking ties. No two tasks share (ci, q), so this is a
		// total order and any sorting algorithm gives the same list.
		slices.SortFunc(tasks, func(a, b cascadeTask) int {
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
		if opt.Seed {
			// Keep each train's first TopK pairs; every pair after them
			// only feeds the train's bound on what the answer leaves out.
			taken := make([]int, len(trains))
			seeds := tasks[:0]
			for _, t := range tasks {
				switch b := &res.Queries[t.q].SeedBound; {
				case taken[t.q] < opt.TopK:
					taken[t.q]++
					seeds = append(seeds, t)
				case t.cheap+margin >= t.ceil: // saturated, or exempt
					*b = math.Inf(1)
				default:
					*b = max(*b, t.cheap+margin)
				}
			}
			tasks = seeds
		}
		chunkB := len(tasks) / (workers * 8)
		if chunkB < 1 {
			chunkB = 1
		}
		if chunkB > maxRankChunk {
			chunkB = maxRankChunk
		}
		runWorkers(len(tasks), chunkB, func(w int, scratch *core.Scratch, ti int) bool {
			t := tasks[ti]
			rescue := false
			if !opt.Seed { // an exempt pair's +Inf passes through: never settled, never a rescue
				if tb := kthBound[t.q].Load(); tb != 0 {
					kth := math.Float64frombits(tb - 1)
					ub := t.cheap + margin
					if ub < t.ceil && ub < kth {
						cascadeW[w][0]++ // settled by the cheap tier alone
						return true
					}
					// Admitted only thanks to the margin or the
					// saturation guard: a rescue if it lands.
					rescue = t.cheap < kth
				}
			}
			// Exempt pairs pay the exact tier too: together the two
			// counters partition every pair that survived the filters.
			cascadeW[w][1]++
			m := v.entries[visit[t.ci]]
			js, err := probes[t.q].JoinScratch(cands[t.ci], scratch)
			if err != nil {
				setErr(fmt.Errorf("store: estimating %q: %w", m.Name, err))
				return false
			}
			r := probes[t.q].EstimateJoined(cands[t.ci], js, opt.K, scratch)
			rs := RankedSketch{Name: m.Name, MI: r.MI, Estimator: r.Estimator, JoinSize: r.N}
			if r.MI >= minMI[t.q] && topsW[w][t.q].offer(rs, opt.TopK) {
				if rescue {
					cascadeW[w][2]++
				}
				if len(topsW[w][t.q]) == opt.TopK {
					raiseBound(&kthBound[t.q], topsW[w][t.q][0].MI)
				}
			}
			return true
		})
	}

	if firstErr != nil {
		return nil, firstErr
	}
	var cheapOnly, exact, rescues int64
	for _, c := range cascadeW {
		cheapOnly += c[0]
		exact += c[1]
		rescues += c[2]
	}
	if cheapOnly != 0 {
		s.cascadeCheap.Add(cheapOnly)
	}
	if exact != 0 {
		s.cascadeExact.Add(exact)
	}
	if rescues != 0 {
		s.cascadeRescues.Add(rescues)
	}
	for _, names := range lateSkipped {
		skipped = append(skipped, names...)
	}
	sort.Strings(skipped)
	res.Skipped = skipped
	// Each worker kept the top K of its subset, so merging the subsets'
	// survivors and cutting at K yields the exact global top K — and the
	// (MI, name) sort makes the cut deterministic across partitions and,
	// names being distinct, across sorting algorithms.
	var prunedTotal int64
	for q := range trains {
		var ranked []RankedSketch
		for w := 0; w < workers; w++ {
			if opt.TopK > 0 {
				ranked = append(ranked, topsW[w][q]...)
			} else {
				ranked = append(ranked, allW[w][q]...)
			}
			res.Queries[q].Pruned += int(prunedW[w][q])
		}
		prunedTotal += int64(res.Queries[q].Pruned)
		slices.SortFunc(ranked, func(a, b RankedSketch) int {
			switch {
			case a.MI > b.MI:
				return -1
			case a.MI < b.MI:
				return 1
			}
			return cmp.Compare(a.Name, b.Name)
		})
		if opt.TopK > 0 && len(ranked) > opt.TopK {
			ranked = ranked[:opt.TopK]
		}
		res.Queries[q].Ranked = ranked
	}
	s.prunedPairs.Add(prunedTotal)
	return res, nil
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
