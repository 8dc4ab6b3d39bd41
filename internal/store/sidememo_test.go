package store

// Candidate side once per key sample: phase 1 answers a pair whose key
// sample the view keeps the candidate's side for without loading,
// probing or binning the candidate — and must answer what it answers
// without it. The reference is the same call on a freshly opened twin
// store, where the view keeps nothing.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"misketch/internal/core"
)

// sideSketch is a sketch of 512 entries over the key window [lo,
// lo+width), every key four times: numeric, or categorical over levels
// labels.
func sideSketch(t testing.TB, role core.Role, numeric bool, lo, width, levels int, salt int64) *core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(salt))
	b, err := core.NewStreamBuilder(role, numeric, core.Options{Method: core.TUPSK, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*width; i++ {
		g := lo + i%width
		if key := fmt.Sprintf("g%d", g); numeric {
			b.AddNum(key, float64(g%5)+rng.NormFloat64())
		} else {
			b.AddStr(key, fmt.Sprintf("L%d", (g+rng.Intn(2))%levels))
		}
	}
	return b.Sketch()
}

// sideCatalog is 48 candidates in two name groups: numeric key windows
// from full to no overlap with the trains' keys, runs of candidates on
// one key set, categorical ones of 6 and of ~500 levels, and candidates
// that repeat a key hash the trains do not carry. Sealed, so the key
// index selects; read with no sketch cache, so every load decodes.
func sideCatalog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenWithOptions(dir, OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 48; c++ {
		var sk *core.Sketch
		switch salt := int64(c); c % 8 {
		case 0, 1:
			sk = sideSketch(t, core.RoleCandidate, true, (c*37)%700, 300, 0, salt)
		case 2, 3:
			sk = sideSketch(t, core.RoleCandidate, true, 0, 600, 0, salt)
		case 4:
			sk = sideSketch(t, core.RoleCandidate, false, (c*11)%300, 400, 6, salt)
		case 5:
			sk = sideSketch(t, core.RoleCandidate, false, 0, 600, 1000, salt)
		case 6:
			sk = sideSketch(t, core.RoleCandidate, true, c%200, 500, 0, salt)
			sk.KeyHashes = append(sk.KeyHashes, 0xdeadbeef, 0xdeadbeef)
			sk.Nums = append(sk.Nums, 1, 2)
		default:
			sk = sideSketch(t, core.RoleCandidate, true, 590, 40, 0, salt)
		}
		if err := st.Put(fmt.Sprintf("side/%c/c%02d", "ab"[c%2], c), sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sideTrains are a numeric train over keys 0–599 and its fresh-valued
// variants: fresh(i) for i > 0 carries the same key sample with other
// values, cat(i) the same sample with categorical values, and permuted
// the same key multiset in another entry order.
type sideTrains struct {
	base *core.Sketch
}

func (st sideTrains) fresh(i int) *core.Sketch {
	b := st.base
	nums := make([]float64, len(b.Nums))
	for j, v := range b.Nums {
		nums[j] = v + 0.3*float64(i)*float64(j%3)
	}
	return &core.Sketch{Method: b.Method, Role: b.Role, Seed: b.Seed, Size: b.Size, Numeric: true,
		KeyHashes: b.KeyHashes, Nums: nums, SourceRows: b.SourceRows}
}

func (st sideTrains) cat(i int) *core.Sketch {
	b := st.base
	strs := make([]string, len(b.Nums))
	for j, v := range b.Nums {
		strs[j] = fmt.Sprintf("T%d", (int(v)+i*(j%2))%4)
	}
	return &core.Sketch{Method: b.Method, Role: b.Role, Seed: b.Seed, Size: b.Size,
		KeyHashes: b.KeyHashes, Strs: strs, SourceRows: b.SourceRows}
}

func (st sideTrains) permuted(i int) *core.Sketch {
	f := st.fresh(i)
	perm := rand.New(rand.NewSource(9)).Perm(len(f.KeyHashes))
	keys, nums := make([]uint32, len(perm)), make([]float64, len(perm))
	for to, from := range perm {
		keys[to], nums[to] = f.KeyHashes[from], f.Nums[from]
	}
	f.KeyHashes, f.Nums = keys, nums
	return f
}

// TestSideMemoBitIdentical: fresh trains on one key sample, alone and in
// a batch with a categorical train on the same sample, at MinJoinSize
// −1, 0 and 50, two prefixes, with and without the index, half of them
// seed calls — every call answers, in rankings, Pruned, Skipped, seed
// bounds and the cheap/exact/rescue and pruned-pair counters, what a
// freshly opened twin answers, whether it
// loaded every candidate, some or none. A train with the same key
// multiset in another entry order shares nothing with them.
func TestSideMemoBitIdentical(t *testing.T) {
	dir, twin := sideCatalog(t), sideCatalog(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	trains := sideTrains{sideSketch(t, core.RoleTrain, true, 0, 600, 0, 99)}
	ctx := context.Background()
	counters := func(a, b Stats) [4]int64 {
		return [4]int64{b.CascadeCheapOnly - a.CascadeCheapOnly, b.CascadeExact - a.CascadeExact,
			b.CascadeMarginRescues - a.CascadeMarginRescues, b.PrunedPairs - a.PrunedPairs}
	}
	rank := func(label string, batch []*core.Sketch, opt RankOptions) *BatchResult {
		t.Helper()
		fresh, err := Open(twin)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RankBatch(ctx, batch, opt)
		if err != nil {
			t.Fatalf("%s on the twin: %v", label, err)
		}
		wantCounters := counters(Stats{}, fresh.Stats())
		if err := fresh.Close(); err != nil {
			t.Fatal(err)
		}
		s0 := st.Stats()
		got, err := st.RankBatch(ctx, batch, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s1 := st.Stats()
		sameBatch(t, label, got, want)
		if c := counters(s0, s1); c != wantCounters {
			t.Fatalf("%s: counters (cheap, exact, rescues, pruned) %v, a fresh twin %v", label, c, wantCounters)
		}
		if got.SideHits > got.Visited {
			t.Fatalf("%s: %d side hits of %d visited", label, got.SideHits, got.Visited)
		}
		return got
	}
	allHit := 0
	call := 0
	for _, minJoin := range []int{-1, 0, 50} {
		for _, prefix := range []string{"", "side/a"} {
			for _, noIndex := range []bool{false, true} {
				opt := RankOptions{Prefix: prefix, MinJoinSize: minJoin, K: 3, TopK: 4, Workers: 1, NoIndex: noIndex}
				for i := 0; i < 3; i++ {
					// A seed answer's rows and bound are the cheap scores'.
					call++
					opt.Seed = call%2 == 0
					label := fmt.Sprintf("minJoin %d prefix %q noIndex %v seed %v, fresh train %d", minJoin, prefix, noIndex, opt.Seed, i)
					if got := rank(label, []*core.Sketch{trains.fresh(call)}, opt); got.SideHits == got.Visited && got.Visited > 0 {
						allHit++
					}
					rank(label+" in a batch", []*core.Sketch{trains.fresh(call), trains.cat(call)}, opt)
				}
			}
		}
	}
	if ss := st.Stats(); allHit == 0 || ss.SideFills == 0 {
		t.Fatalf("degenerate: %d calls loaded no candidate, %d sides kept", allHit, ss.SideFills)
	}
	opt := RankOptions{Prefix: "side/a", MinJoinSize: 0, K: 3, TopK: 4, Workers: 1, Seed: true}
	for i, wantHits := range []bool{false, false, true} {
		got := rank(fmt.Sprintf("permuted train %d", i), []*core.Sketch{trains.permuted(i)}, opt)
		if (got.SideHits > 0) != wantHits {
			t.Fatalf("permuted train %d: %d side hits, want hits: %v — entry order is part of the key sample", i, got.SideHits, wantHits)
		}
	}
}

// TestSideMemoOversizeSampleNeverFills: a key sample whose sides would not
// fit the view's bound is never kept. When the visit list alone could
// overflow it, no side is filled. When the joins' rows do, the sides are
// filled once and never again on the view: a set dropped after every fill
// would have every other rank refill it. The ranks, of fresh trains on the
// sample, answer what a twin that keeps no plan answers.
func TestSideMemoOversizeSampleNeverFills(t *testing.T) {
	build := func(role core.Role, lo, width, size int, salt int64) *core.Sketch {
		rng := rand.New(rand.NewSource(salt))
		b, err := core.NewStreamBuilder(role, true, core.Options{Method: core.TUPSK, Size: size})
		if err != nil {
			t.Fatal(err)
		}
		for g := lo; g < lo+width; g++ {
			b.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
		}
		return b.Sketch()
	}
	train := build(core.RoleTrain, 0, 6000, 4096, 99)
	entry := 64 + len(train.KeyHashes) // a side's cost bound, its rows shared
	for _, tc := range []struct {
		name  string
		cands int
		fills bool // the sample's second rank fills its sides
	}{{"visit list over the bound", 600, false}, {"rows over the bound", 150, true}} {
		t.Run(tc.name, func(t *testing.T) {
			open := func() *Store {
				st, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				return st
			}
			st, ref := open(), memoOff(t, open())
			for c := 0; c < tc.cands; c++ {
				// Key windows of their own: no two candidates share rows.
				sk := build(core.RoleCandidate, c*9%5800, 200, 32, int64(c))
				for _, s := range []*Store{st, ref} {
					if err := s.Put(fmt.Sprintf("big/c%03d", c), sk); err != nil {
						t.Fatal(err)
					}
				}
			}
			ctx := context.Background()
			opt := RankOptions{MinJoinSize: 0, K: 3, TopK: 5, Workers: 1}
			for i := range 6 {
				fills := st.Stats().SideFills
				batch := []*core.Sketch{freshOn(train, i)}
				want, err := ref.RankBatch(ctx, batch, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.RankBatch(ctx, batch, opt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if over := int(got.Visited)*entry > planCacheBytes; over == tc.fills || int(got.Visited)*4*len(train.KeyHashes) <= planCacheBytes {
						t.Fatalf("fixture: %d candidates visited", got.Visited)
					}
				}
				sameBatch(t, fmt.Sprintf("rank %d", i), got, want)
				if n := st.Stats().SideFills - fills; got.SideHits != 0 || (n > 0) != (i == 1 && tc.fills) {
					t.Fatalf("rank %d: %d side hits, %d sides kept", i, got.SideHits, n)
				}
			}
		})
	}
}

// TestSamplePlanBytesFollowTheVisitList: a sample plan is charged for
// the candidates its phase 1 visits, not for the catalog. Catalogs of
// 2 000 and 20 000 candidates, 200 a key domain, give a train on one
// domain's keys the same plan, to the byte, once its sides are kept — 200
// visited candidates' worth, where a slot a catalog entry would be 160 KB.
// A train whose sides could not fit keeps a plan of its visit list alone,
// which every later call finds, and none collects sides.
func TestSamplePlanBytesFollowTheVisitList(t *testing.T) {
	sketch := func(role core.Role, d, keys, size int, salt int64) *core.Sketch {
		rng := rand.New(rand.NewSource(salt))
		b, err := core.NewStreamBuilder(role, true, core.Options{Method: core.TUPSK, Size: size})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < keys; g++ {
			b.AddNum(fmt.Sprintf("d%03d-k%d", d+g/400, g%400), float64(g%7)+rng.NormFloat64())
		}
		return b.Sketch()
	}
	ctx := context.Background()
	opt := RankOptions{Prefix: "s/d000/", MinJoinSize: 10, K: 3, TopK: 5, Workers: 1}
	samplePlan := func(st *Store, train *core.Sketch) (*rankPlan, int64) {
		key := (&rankRun{trains: []*core.Sketch{train}, opt: opt, seed: train.Seed}).planKey(true)
		p, ok := currentView(st).plans.Get(key)
		if !ok {
			t.Fatal("the view keeps no plan for the sample")
		}
		return p, p.cost(key)
	}
	train := sketch(core.RoleTrain, 0, 400, 256, 99)
	var costs []int64
	for _, domains := range []int{10, 100} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for d := range domains {
			sk := sketch(core.RoleCandidate, d, 400, 64, int64(d))
			for c := range 200 {
				if err := st.Put(fmt.Sprintf("s/d%03d/c%03d", d, c), sk); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Three fresh trains on the sample: the first selects, the second
		// keeps the sides, the third answers from them.
		var res *BatchResult
		for i := range 3 {
			if res, err = st.RankBatch(ctx, []*core.Sketch{freshOn(train, i)}, opt); err != nil {
				t.Fatal(err)
			}
		}
		p, cost := samplePlan(st, train)
		if res.Visited != 200 || res.SideHits != 200 || p.sides == nil {
			t.Fatalf("%d candidates: the third rank visited %d, %d side hits", 200*domains, res.Visited, res.SideHits)
		}
		costs = append(costs, cost)

		// Over the bound: 200 visited candidates of a train of 12 000 keys.
		big := sketch(core.RoleTrain, 0, 12000, 16384, 98)
		if int64(200*(sideEntryBytes+big.Len())) <= planCacheBytes {
			t.Fatalf("fixture: a %d-key train's sides fit", big.Len())
		}
		s0 := st.Stats()
		for i := range 4 {
			if res, err = st.RankBatch(ctx, []*core.Sketch{freshOn(big, i)}, opt); err != nil || res.SideHits != 0 {
				t.Fatalf("the big train: %v, %d side hits", err, res.SideHits)
			}
		}
		s1 := st.Stats()
		if p, _ := samplePlan(st, big); p.sides != nil || s1.SelectHits-s0.SelectHits != 3 || s1.SideFills != s0.SideFills {
			t.Fatalf("the big train: %d plan hits, %d sides collected", s1.SelectHits-s0.SelectHits, s1.SideFills-s0.SideFills)
		}
	}
	if costs[0] != costs[1] || costs[1] > 200*1024 {
		t.Fatalf("sample plans cost %d and %d bytes on catalogs of 2 000 and 20 000", costs[0], costs[1])
	}
}

// TestSideMemoSkipsRacingPut: a Put that lands during the phase 1 that
// would keep the candidate sides moves the store past the call's view, so
// none is kept, and the call still answers the view's catalog — the
// overwritten candidate is loaded from its snapshot, not from the cache
// the Put filled. On a quiet store the same calls keep them. Every call
// ranks fresh trains on the same samples, so each runs phase 1.
func TestSideMemoSkipsRacingPut(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ref, _ := cascadeStore(t, 60)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5, Workers: 1}
	if _, err := st.RankBatch(ctx, trains, opt); err != nil { // the samples' first sight
		t.Fatal(err)
	}
	racing := freshAll(trains, 1)
	want, err := memoOff(t, ref).RankBatch(ctx, racing, opt)
	if err != nil {
		t.Fatal(err)
	}
	over, err := st.Get("casc/c006#x")
	if err != nil {
		t.Fatal(err)
	}
	fills := st.Stats().SideFills
	fired := false
	testHookRankWork = func(int) {
		if !fired {
			fired = true
			if err := st.Put("casc/c000#x", over); err != nil {
				panic(err)
			}
		}
	}
	got, err := st.RankBatch(ctx, racing, opt)
	testHookRankWork = nil
	if err != nil {
		t.Fatal(err)
	}
	sameBatch(t, "Put mid-phase-1", got, want)
	if n := st.Stats().SideFills - fills; !fired || n != 0 {
		t.Fatalf("Put fired %v; %d sides kept after it", fired, n)
	}
	for i, wantFills := range []bool{false, true} {
		fills := st.Stats().SideFills
		if _, err := st.RankBatch(ctx, freshAll(trains, 2+i), opt); err != nil {
			t.Fatal(err)
		}
		if n := st.Stats().SideFills - fills; (n > 0) != wantFills {
			t.Fatalf("quiet rank %d: %d sides kept, want some: %v", i, n, wantFills)
		}
	}
}

// TestPlanHitLoadsItsSnapshot: under a reused plan phase 2 loads each
// candidate on first use. A compatible overwrite that lands meanwhile
// fills the sketch cache with the new version, which the call must not
// take for its view's: it scores the candidate the view admitted.
func TestPlanHitLoadsItsSnapshot(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ref, _ := cascadeStore(t, 60)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 5, TopK: 5, Workers: 1}
	want, err := memoOff(t, ref).RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Keeps the plan, and its exact answers at K 3: at K 5 every pair
	// phase 2 scores loads its candidate.
	opt.K = 3
	if _, err := st.RankBatch(ctx, trains, opt); err != nil {
		t.Fatal(err)
	}
	over, err := st.Get("casc/c006#x")
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	testHookRankWork = func(int) {
		if !fired {
			fired = true
			if err := st.Put("casc/c000#x", over); err != nil {
				panic(err)
			}
		}
	}
	opt.K = 5
	got, err := st.RankBatch(ctx, trains, opt)
	testHookRankWork = nil
	if err != nil {
		t.Fatal(err)
	}
	if !fired || got.PlanHits != 1 || got.Decoded == 0 {
		t.Fatalf("fixture: Put fired %v, %d plan hits, %d loads", fired, got.PlanHits, got.Decoded)
	}
	sameBatch(t, "Put mid-phase-2 of a plan hit", got, want)
}

// TestSideMemoAcrossCompaction ranks a train of its own on one key
// sample, on one worker, again and again while each round overwrites
// candidates and compacts, retiring and unmapping the segments the last
// queries' candidates were borrowed from — and a second ranker races the
// compactions. No train repeats, so no probe plan is ever reused and
// every rank runs phase 1: from the third rank on a view, phase 1 answers
// from the sides an earlier one kept, which must hold no borrowed bytes.
// Each answer is the one a twin that keeps no plan gives the same train.
// Run it with -race.
func TestSideMemoAcrossCompaction(t *testing.T) {
	open := func() *Store {
		st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	st, ref := open(), memoOff(t, open())
	cands := make([]*core.Sketch, 24)
	for c := range cands {
		cands[c] = windowSketch(t, core.RoleCandidate, 0, 0, 80, int64(c))
		for _, s := range []*Store{st, ref} {
			if err := s.Put(fmt.Sprintf("side/c%02d", c), cands[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 0, 80, 99)
	ctx := context.Background()
	if _, err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	opt := RankOptions{Prefix: "side/", MinJoinSize: 20, K: 3, TopK: 5, Workers: 1}
	var next, sided atomic.Int64 // trains handed out; ranks that answered from sides
	check := func(label string) {
		batch := []*core.Sketch{freshOn(train, int(next.Add(1)))}
		want, err := ref.RankBatch(ctx, batch, opt)
		if err != nil || len(want.Queries[0].Ranked) != 5 {
			t.Errorf("%s: fixture: %v", label, err)
			return
		}
		got, err := st.RankBatch(ctx, batch, opt)
		if err != nil || !sameRanked(got.Queries[0].Ranked, want.Queries[0].Ranked) {
			t.Errorf("%s: %v, differing from the twin's answer", label, err)
			return
		}
		if got.SideHits > 0 {
			sided.Add(1)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				check(fmt.Sprintf("racing rank %d", i))
			}
		}
	}()
	const rounds = 20
	for round := 0; round < rounds && !t.Failed(); round++ {
		for _, c := range []int{round % 24, (round + 7) % 24} {
			if err := st.Put(fmt.Sprintf("side/c%02d", c), cands[c]); err != nil {
				t.Fatal(err)
			}
		}
		if cs, err := st.Compact(ctx); err != nil || !cs.Compacted {
			t.Fatalf("round %d: compact %+v, %v", round, cs, err)
		}
		for i := range 3 {
			check(fmt.Sprintf("round %d rank %d", round, i))
		}
	}
	close(done)
	wg.Wait()
	if s := st.Stats(); s.PlanHits != 0 || sided.Load() < rounds {
		t.Fatalf("%d plan hits, %d of %d ranks answered from sides: want none, and one a view at least", s.PlanHits, sided.Load(), next.Load())
	}
}
