package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
)

// The plan memo's contract, from outside: a rank that reuses phase 1
// answers exactly what the same call answers when it plans for itself.
// Plans are keyed by the trains' content, so the reference is the same
// call on a twin whose views keep no plan (memoOff), or a call on a
// fresh train on the same keys (freshOn), whose phase 1 always runs.

func planCounters(st *Store) (hits, misses int64) {
	ss := st.Stats()
	return ss.PlanHits, ss.PlanMisses
}

// memoOff makes every catalog view st builds from now on keep no plan,
// so every rank on st plans afresh, and drops its current view.
func memoOff(t testing.TB, st *Store) *Store {
	t.Helper()
	prev := testHookNoMemo
	testHookNoMemo = func(s *Store) bool { return s == st || prev != nil && prev(s) }
	t.Cleanup(func() { testHookNoMemo = prev })
	st.mu.Lock()
	st.view = nil
	st.mu.Unlock()
	return st
}

// freshOn is a train on tr's key sample, in tr's entry order, with values
// no other i gives: its rank plans phase 1 for itself and meets the
// sample plan of its keys, as a never-repeated train on known keys does.
// freshOn(tr, 0) is a deep copy of tr, which meets tr's plans.
func freshOn(tr *core.Sketch, i int) *core.Sketch {
	f := &core.Sketch{Method: tr.Method, Role: tr.Role, Seed: tr.Seed, Size: tr.Size, Numeric: tr.Numeric,
		KeyHashes: slices.Clone(tr.KeyHashes), Nums: slices.Clone(tr.Nums), Strs: slices.Clone(tr.Strs), SourceRows: tr.SourceRows}
	for j := range f.Nums {
		f.Nums[j] += 0.01 * float64(i) * float64(j%3)
	}
	for j := range f.Strs {
		if i != 0 {
			f.Strs[j] = fmt.Sprintf("%s~%d", f.Strs[j], i*(j%2))
		}
	}
	return f
}

func freshAll(trains []*core.Sketch, i int) []*core.Sketch {
	out := make([]*core.Sketch, len(trains))
	for q, tr := range trains {
		out[q] = freshOn(tr, i)
	}
	return out
}

// sameBatch holds two batch answers equal in every field a caller sees.
func sameBatch(t *testing.T, label string, got, want *BatchResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Skipped, want.Skipped) {
		t.Fatalf("%s: skipped %v, want %v", label, got.Skipped, want.Skipped)
	}
	for q := range want.Queries {
		g, w := got.Queries[q], want.Queries[q]
		diffRankings(t, fmt.Sprintf("%s train %d", label, q), g.Ranked, w.Ranked)
		if g.Pruned != w.Pruned || math.Float64bits(g.SeedBound) != math.Float64bits(w.SeedBound) {
			t.Fatalf("%s train %d: pruned %d bound %v, want %d and %v", label, q, g.Pruned, g.SeedBound, w.Pruned, w.SeedBound)
		}
	}
}

func TestPlanReuseBitIdentical(t *testing.T) {
	goldenIn := func(open func(t *testing.T, names []string, cands []*core.Sketch) *Store) func(t *testing.T) (*Store, []*core.Sketch) {
		return func(t *testing.T) (*Store, []*core.Sketch) {
			names, cands, trains := goldenCatalog(t)
			return open(t, names, cands), trains
		}
	}
	unsealed := func(t *testing.T, names []string, cands []*core.Sketch) *Store {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		putAll(t, st, names, cands)
		return st
	}
	cases := []struct {
		name string
		open func(t *testing.T) (*Store, []*core.Sketch)
		opt  RankOptions
	}{
		{"cascadeStore", func(t *testing.T) (*Store, []*core.Sketch) { return cascadeStore(t, 60) }, RankOptions{Prefix: "casc/", MinJoinSize: 30}},
		{"cohortStore", func(t *testing.T) (*Store, []*core.Sketch) {
			st, train := cohortStore(t)
			return st, []*core.Sketch{train}
		}, RankOptions{Prefix: "bench/", MinJoinSize: 100}},
		{"golden/fs-open", goldenIn(unsealed), RankOptions{MinJoinSize: 30}},
		{"golden/fs-sealed", goldenIn(func(t *testing.T, names []string, cands []*core.Sketch) *Store {
			return sealedStore(t, names, cands, false)
		}), RankOptions{MinJoinSize: 30}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, trains := tc.open(t)
			ref, _ := tc.open(t)
			memoOff(t, ref)
			// The floors come off the exact ranking: its median MI, and a
			// value above every candidate's.
			all := tc.opt
			all.K, all.NoCascade = 3, true
			full, err := st.RankBatch(ctx, trains, all)
			if err != nil || len(full.Queries[0].Ranked) < 4 {
				t.Fatalf("fixture: %v, %d ranked", err, len(full.Queries[0].Ranked))
			}
			mid := make([]float64, len(trains))
			above := make([]float64, len(trains))
			for q, qr := range full.Queries {
				if len(qr.Ranked) > 0 {
					mid[q], above[q] = qr.Ranked[len(qr.Ranked)/2].MI, qr.Ranked[0].MI+1
				}
			}
			var variants []RankOptions
			for _, topK := range []int{1, 5, 10, 50} {
				for _, floors := range [][]float64{nil, mid, above} {
					for _, seed := range []bool{false, true} {
						for _, workers := range []int{1, 2, 4} {
							for _, k := range []int{3, 5} {
								o := tc.opt
								o.TopK, o.MinMI, o.Seed, o.Workers, o.K = topK, floors, seed, workers, k
								variants = append(variants, o)
							}
						}
					}
				}
			}
			rand.New(rand.NewSource(22)).Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
			hits0, misses0 := planCounters(st)
			for _, o := range variants {
				label := fmt.Sprintf("top=%d floors=%v seed=%v workers=%d k=%d", o.TopK, o.MinMI, o.Seed, o.Workers, o.K)
				s0 := ref.Stats()
				want, err := ref.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s1, s2 := ref.Stats(), st.Stats()
				got, err := st.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameBatch(t, label, got, want)
				// One worker fixes the visit order, so every pair must settle
				// in the same tier whether phase 1 ran or was reused.
				tiers := func(a, b Stats) [3]int64 {
					return [3]int64{b.CascadeCheapOnly - a.CascadeCheapOnly, b.CascadeExact - a.CascadeExact, b.CascadeMarginRescues - a.CascadeMarginRescues}
				}
				if s3 := st.Stats(); o.Workers == 1 && tiers(s2, s3) != tiers(s0, s1) {
					t.Fatalf("%s: tiers (cheap, exact, rescues) %v on the kept plan, %v planning afresh", label, tiers(s2, s3), tiers(s0, s1))
				}
			}
			if hits, misses := planCounters(st); misses-misses0 != 1 || hits-hits0 != int64(len(variants))-1 {
				t.Fatalf("%d variants of one key: %d plan misses and %d hits, want 1 and the rest", len(variants), misses-misses0, hits-hits0)
			}

			// RankQuery goes through the same stages. One train is a
			// different key from the batch's list unless the batch is it.
			hits0, misses0 = planCounters(st)
			for i, topK := range []int{3, 1, 10} {
				o := RankOptions{Prefix: tc.opt.Prefix, MinJoinSize: tc.opt.MinJoinSize, K: 3, TopK: topK, MinMI: []float64{mid[0] * float64(i%2)}}
				want, wantSkipped, err := ref.RankQuery(ctx, trains[0], o)
				if err != nil {
					t.Fatal(err)
				}
				got, gotSkipped, err := st.RankQuery(ctx, trains[0], o)
				if err != nil {
					t.Fatal(err)
				}
				diffRankings(t, fmt.Sprintf("RankQuery top=%d", topK), got, want)
				if !reflect.DeepEqual(gotSkipped, wantSkipped) {
					t.Fatalf("RankQuery top=%d: skipped %v, want %v", topK, gotSkipped, wantSkipped)
				}
			}
			wantMisses := int64(1)
			if len(trains) == 1 {
				wantMisses = 0 // the batch of one left this very plan
			}
			if hits, misses := planCounters(st); misses-misses0 != wantMisses || hits-hits0 != 3-wantMisses {
				t.Fatalf("three RankQuery variants: %d misses and %d hits, want %d and %d", misses-misses0, hits-hits0, wantMisses, 3-wantMisses)
			}

			// What phase 1 does read is in the key: each of these plans for
			// itself, once, and answers what its own reference answers.
			prefix, minJoin, noIndex := tc.opt, tc.opt, tc.opt
			prefix.Prefix += "c"
			minJoin.MinJoinSize++
			noIndex.NoIndex = true
			for _, o := range []RankOptions{prefix, minJoin, noIndex} {
				o.K, o.TopK = 3, 5
				want, err := ref.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatal(err)
				}
				for pass, wantHit := range []int64{0, 1} {
					hits0, misses0 = planCounters(st)
					got, err := st.RankBatch(ctx, trains, o)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("prefix=%q minJoin=%d noIndex=%v pass %d", o.Prefix, o.MinJoinSize, o.NoIndex, pass)
					sameBatch(t, label, got, want)
					if hits, misses := planCounters(st); hits-hits0 != wantHit || misses-misses0 != 1-wantHit {
						t.Fatalf("%s: %d hits, %d misses; want %d and %d", label, hits-hits0, misses-misses0, wantHit, 1-wantHit)
					}
				}
			}
		})
	}

	// A batch's key is its trains' content in order: same eight, any TopK,
	// is one plan, and so are deep copies of them; a permutation, or one
	// value changed, is another.
	st, trains := batchStore(t, 60, 8)
	ref, _ := batchStore(t, 60, 8)
	memoOff(t, ref)
	rank := func(label string, trains []*core.Sketch, topK int, wantHit int64) {
		t.Helper()
		o := RankOptions{Prefix: "batch/", MinJoinSize: 20, K: 3, TopK: topK}
		want, err := ref.RankBatch(ctx, trains, o)
		if err != nil {
			t.Fatal(err)
		}
		hits0, misses0 := planCounters(st)
		got, err := st.RankBatch(ctx, trains, o)
		if err != nil {
			t.Fatal(err)
		}
		sameBatch(t, label, got, want)
		if hits, misses := planCounters(st); hits-hits0 != wantHit || misses-misses0 != 1-wantHit {
			t.Fatalf("%s: %d hits, %d misses; want %d and %d", label, hits-hits0, misses-misses0, wantHit, 1-wantHit)
		}
	}
	rank("eight trains, top 5", trains, 5, 0)
	rank("the same eight, top 10", trains, 10, 1)
	swapped := slices.Clone(trains)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	rank("two of them swapped", swapped, 10, 0)
	rank("deep copies of the eight", freshAll(trains, 0), 10, 1)
	nudged := slices.Clone(trains)
	nudged[7] = freshOn(trains[7], 1)
	rank("one train's values changed", nudged, 10, 0)
	rank("and again", nudged, 5, 1)
	rank("a prefix of the list", trains[:7], 5, 0)
}

// TestPlanKeyIsTrainContent: a plan is keyed by all that phase 1 and the
// exact slots read of the trains. Two trains on one seed and one key
// sample that differ in one value never share a plan: ranked alternately,
// each answers its own uncascaded ranking, and each finds only its own
// plan again. A deep copy of a train meets the train's plan.
func TestPlanKeyIsTrainContent(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 10, Workers: 1}
	exact := opt
	exact.NoCascade = true
	for _, a := range trains { // one numeric, one categorical
		b := freshOn(a, 0)
		if b.Numeric {
			b.Nums[0] += 100
		} else {
			b.Strs[0] += "'"
		}
		var answers [2]*BatchResult
		for round := range 3 {
			for i, tr := range []*core.Sketch{a, b} {
				label := fmt.Sprintf("numeric %v, train %c, round %d", a.Numeric, "ab"[i], round)
				want, err := st.RankBatch(ctx, []*core.Sketch{tr}, exact)
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.RankBatch(ctx, []*core.Sketch{tr}, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameBatch(t, label, got, want)
				if hit := got.PlanHits == 1; hit != (round > 0) {
					t.Fatalf("%s: plan hit %v", label, hit)
				}
				answers[i] = want
			}
		}
		if sameRanked(answers[0].Queries[0].Ranked, answers[1].Queries[0].Ranked) {
			t.Fatalf("fixture: the value changed in train b (numeric %v) moves no answer", a.Numeric)
		}
		got, err := st.RankBatch(ctx, []*core.Sketch{freshOn(b, 0)}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.PlanHits != 1 {
			t.Fatalf("a deep copy of b (numeric %v) missed its plan", a.Numeric)
		}
	}
}

// TestPlanKeyBound: trains whose values would make a probe plan's key
// crowd out the view's other plans keep no probe plan, and answer as
// before. A categorical train of long strings, whose key alone nearly
// fills the view's plan bound, leaves a small train's plan in place.
func TestPlanKeyBound(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 10, Workers: 1}
	rank := func(tr *core.Sketch, opt RankOptions) *BatchResult {
		t.Helper()
		res, err := st.RankBatch(ctx, []*core.Sketch{tr}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rank(trains[0], opt)
	if rank(trains[0], opt).PlanHits != 1 {
		t.Fatal("fixture: the small train keeps no plan")
	}
	big := freshOn(trains[1], 0)
	pad := strings.Repeat("x", (planCacheBytes-1<<16)/len(big.Strs))
	for j := range big.Strs {
		big.Strs[j] = pad + big.Strs[j]
	}
	key := (&rankRun{trains: []*core.Sketch{big}, opt: opt, seed: big.Seed}).planKey(false)
	if n := len(key.ids); n <= planCacheBytes/8 || n >= planCacheBytes-1<<15 {
		t.Fatalf("fixture: a %d-byte key", n)
	}
	exact := opt
	exact.NoCascade = true
	for round := range 2 {
		got := rank(big, opt)
		sameBatch(t, fmt.Sprintf("the big train, round %d", round), got, rank(big, exact))
		if got.PlanHits != 0 || got.PlanMisses != 1 {
			t.Fatalf("the big train, round %d: %d plan hits, %d misses", round, got.PlanHits, got.PlanMisses)
		}
	}
	if rank(trains[0], opt).PlanHits != 1 {
		t.Fatal("the big train's rank evicted the small train's plan")
	}
}

// TestJoinMemoAcrossCompaction ranks on one worker again and again while
// each round overwrites candidates and compacts, retiring and unmapping
// the segments the last query's candidates borrowed their key hashes
// from — and a second ranker races the compactions. Every candidate
// carries the train's key sample, so every join after a scratch's first
// is checked against its memo, which must hold no borrowed bytes: the
// answers stay the first round's.
func TestJoinMemoAcrossCompaction(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cands := make([]*core.Sketch, 24)
	for c := range cands {
		cands[c] = windowSketch(t, core.RoleCandidate, 0, 0, 80, int64(c))
		if err := st.Put(fmt.Sprintf("memo/c%02d", c), cands[c]); err != nil {
			t.Fatal(err)
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 0, 80, 99)
	ctx := context.Background()
	if _, err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	// One worker, so each candidate after a scratch's first in a rank is
	// matched against its memo.
	opt := RankOptions{Prefix: "memo/", MinJoinSize: 20, K: 3, TopK: 5, Workers: 1}
	want, _, err := st.RankQuery(ctx, train, opt)
	if err != nil || len(want) != 5 {
		t.Fatalf("fixture: %v, %d ranked", err, len(want))
	}
	check := func(label string) {
		if got, _, err := st.RankQuery(ctx, train, opt); err != nil || !sameRanked(got, want) {
			t.Errorf("%s: %v, %d ranked, differing from the first round", label, err, len(got))
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
	for round := 0; round < 20 && !t.Failed(); round++ {
		for _, c := range []int{round % 24, (round + 7) % 24} {
			if err := st.Put(fmt.Sprintf("memo/c%02d", c), cands[c]); err != nil {
				t.Fatal(err)
			}
		}
		if cs, err := st.Compact(ctx); err != nil || !cs.Compacted {
			t.Fatalf("round %d: compact %+v, %v", round, cs, err)
		}
		check(fmt.Sprintf("round %d", round))
	}
	close(done)
	wg.Wait()
}

// TestPlanDiesWithItsView: every kind of mutation between two identical
// ranks makes the second plan for itself on the new catalog state.
func TestPlanDiesWithItsView(t *testing.T) {
	dir, opened := t.TempDir(), OpenOptions{SegmentBytes: 16 << 10}
	st, err := OpenWithOptions(dir, opened)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	for c := 0; c < 24; c++ {
		if err := st.Put(fmt.Sprintf("view/c%02d", c), windowSketch(t, core.RoleCandidate, 0, 50+c, 80, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 60, 90, 77)
	ctx := context.Background()
	opt := RankOptions{Prefix: "view/", MinJoinSize: 20, K: 3, TopK: 30}
	// rank answers, checks it against the uncascaded reference on the same
	// catalog state — which looks for no plan, and with TopK above the
	// catalog ranks the same rows — and reports hit or miss.
	rank := func(label string) (ranked []RankedSketch, hit bool) {
		t.Helper()
		ref := opt
		ref.NoCascade = true
		want, wantSkipped, err := st.RankQuery(ctx, train, ref)
		if err != nil {
			t.Fatal(err)
		}
		hits0, misses0 := planCounters(st)
		got, skipped, err := st.RankQuery(ctx, train, opt)
		if err != nil {
			t.Fatal(err)
		}
		diffRankings(t, label, got, want)
		if !reflect.DeepEqual(skipped, wantSkipped) {
			t.Fatalf("%s: skipped %v, want %v", label, skipped, wantSkipped)
		}
		hits, misses := planCounters(st)
		if hits-hits0+misses-misses0 != 1 {
			t.Fatalf("%s: %d hits and %d misses for one rank", label, hits-hits0, misses-misses0)
		}
		return got, hits > hits0
	}
	names := func(ranked []RankedSketch) map[string]bool {
		m := map[string]bool{}
		for _, rs := range ranked {
			m[rs.Name] = true
		}
		return m
	}
	rank("cold")
	before, hit := rank("warm")
	if !hit || len(before) != 24 {
		t.Fatalf("fixture: second identical rank hit=%v with %d rows, want a hit and 24", hit, len(before))
	}
	steps := []struct {
		name   string
		mutate func() error
		sees   func(after []RankedSketch) bool
	}{
		{"put", func() error { return st.Put("view/new", windowSketch(t, core.RoleCandidate, 0, 60, 80, 99)) },
			func(after []RankedSketch) bool { return names(after)["view/new"] && len(after) == 25 }},
		{"overwrite", func() error { return st.Put("view/c03", windowSketch(t, core.RoleCandidate, 9, 60, 80, 3)) },
			func(after []RankedSketch) bool { return !names(after)["view/c03"] && len(after) == 24 }},
		{"delete", func() error { return st.Delete("view/c05") },
			func(after []RankedSketch) bool { return !names(after)["view/c05"] && len(after) == 23 }},
		{"compact", func() error {
			cs, err := st.Compact(ctx)
			if err == nil && !cs.Compacted {
				err = fmt.Errorf("nothing compacted")
			}
			return err
		}, func(after []RankedSketch) bool { return len(after) == 23 }},
		// A closed store ranks nothing; the same catalog reopened plans afresh.
		{"close", func() error {
			if err := st.Close(); err != nil {
				return err
			}
			if _, _, err := st.RankQuery(ctx, train, opt); !errors.Is(err, fs.ErrClosed) {
				return fmt.Errorf("rank after Close = %v, want fs.ErrClosed", err)
			}
			st, err = OpenWithOptions(dir, opened)
			return err
		}, func(after []RankedSketch) bool { return len(after) == 23 }},
	}
	for _, step := range steps {
		if err := step.mutate(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after, hit := rank("after " + step.name)
		if hit {
			t.Fatalf("%s: the rank after it reused a plan", step.name)
		}
		if !step.sees(after) {
			t.Fatalf("%s: the rank after it does not show the mutation: %d rows", step.name, len(after))
		}
		if _, hit = rank("again after " + step.name); !hit {
			t.Fatalf("%s: the catalog is at rest, yet the second rank planned again", step.name)
		}
	}
}

// TestPlanPinsNothing: a memoised plan keeps neither its train nor the
// probe compiled from it (which holds the train) reachable, and a view's
// plans stay inside their budget however many distinct trains rank on it.
func TestPlanPinsNothing(t *testing.T) {
	st, train := cohortStore(t)
	ctx := context.Background()
	const n = 224
	var finalized atomic.Int64
	viewPlans := func() (used, evictions int64) {
		st.mu.Lock()
		v := st.view
		st.mu.Unlock()
		ps := v.plans.Stats()
		return ps.Used, ps.Evictions
	}
	for i := 0; i < n; i++ {
		tr := freshOn(train, i+1)
		runtime.SetFinalizer(tr, func(*core.Sketch) { finalized.Add(1) })
		if _, _, err := st.RankQuery(ctx, tr, RankOptions{Prefix: "bench/", MinJoinSize: 100, K: 3, TopK: 3}); err != nil {
			t.Fatal(err)
		}
		if used, _ := viewPlans(); used > planCacheBytes {
			t.Fatalf("after %d trains the view holds %d plan bytes, over its %d budget", i+1, used, planCacheBytes)
		}
	}
	if _, misses := planCounters(st); misses != n {
		t.Fatalf("%d misses for %d distinct trains", misses, n)
	}
	if used, evictions := viewPlans(); evictions == 0 || used == 0 {
		t.Fatalf("degenerate: %d plan bytes, %d evictions — the budget was never reached", used, evictions)
	}
	for deadline := time.Now().Add(10 * time.Second); finalized.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != n {
		t.Fatalf("%d of %d trains were collected: something on the store keeps the rest reachable", got, n)
	}
}
