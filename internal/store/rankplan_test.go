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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
)

// The plan memo's contract, from outside: a rank that reuses phase 1
// answers exactly what the same call answers when it plans for itself.
// The reference is always the same call without Probes — a probe
// compiled inside the call has a number no memoised plan carries, so
// that call never consults the memo.

func planCounters(st *Store) (hits, misses int64) {
	ss := st.Stats()
	return ss.PlanHits, ss.PlanMisses
}

func compileAll(trains []*core.Sketch) []*core.TrainProbe {
	probes := make([]*core.TrainProbe, len(trains))
	for q, tr := range trains {
		probes[q] = core.CompileTrainProbe(tr)
	}
	return probes
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
	unsealed := func(backend string) func(t *testing.T, names []string, cands []*core.Sketch) *Store {
		return func(t *testing.T, names []string, cands []*core.Sketch) *Store {
			st, err := OpenWithOptions(t.TempDir(), OpenOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			putAll(t, st, names, cands)
			return st
		}
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
		{"golden/fs-open", goldenIn(unsealed(BackendFS)), RankOptions{MinJoinSize: 30}},
		{"golden/fs-sealed", goldenIn(func(t *testing.T, names []string, cands []*core.Sketch) *Store {
			return sealedStore(t, names, cands, false)
		}), RankOptions{MinJoinSize: 30}},
		{"golden/mem", goldenIn(unsealed(BackendMem)), RankOptions{MinJoinSize: 30}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, trains := tc.open(t)
			probes := compileAll(trains)
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
				s0 := st.Stats()
				want, err := st.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s1 := st.Stats()
				o.Probes = probes
				got, err := st.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s2 := st.Stats()
				sameBatch(t, label, got, want)
				// One worker fixes the visit order, so every pair must settle
				// in the same tier whether phase 1 ran or was reused.
				tiers := func(a, b Stats) [3]int64 {
					return [3]int64{b.CascadeCheapOnly - a.CascadeCheapOnly, b.CascadeExact - a.CascadeExact, b.CascadeMarginRescues - a.CascadeMarginRescues}
				}
				if o.Workers == 1 && tiers(s1, s2) != tiers(s0, s1) {
					t.Fatalf("%s: tiers (cheap, exact, rescues) %v with the shared probes, %v planning afresh", label, tiers(s1, s2), tiers(s0, s1))
				}
			}
			if hits, misses := planCounters(st); misses-misses0 != 1 || hits-hits0 != int64(len(variants))-1 {
				t.Fatalf("%d variants of one key: %d plan misses and %d hits, want 1 and the rest", len(variants), misses-misses0, hits-hits0)
			}

			// RankQuery goes through the same stages. One probe is a
			// different key from the batch's list unless the batch is it.
			hits0, misses0 = planCounters(st)
			for i, topK := range []int{3, 1, 10} {
				o := RankOptions{Prefix: tc.opt.Prefix, MinJoinSize: tc.opt.MinJoinSize, K: 3, TopK: topK, MinMI: []float64{mid[0] * float64(i%2)}}
				want, wantSkipped, err := st.RankQuery(ctx, trains[0], o)
				if err != nil {
					t.Fatal(err)
				}
				o.Probes = probes[:1]
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
				want, err := st.RankBatch(ctx, trains, o)
				if err != nil {
					t.Fatal(err)
				}
				o.Probes = probes
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

	// A batch's key is its probes in order: same eight, any TopK, is one
	// plan; a permutation or one recompiled probe is another.
	st, trains := batchStore(t, 60, 8)
	probes := compileAll(trains)
	rank := func(label string, trains []*core.Sketch, probes []*core.TrainProbe, topK int, wantHit int64) {
		t.Helper()
		o := RankOptions{Prefix: "batch/", MinJoinSize: 20, K: 3, TopK: topK}
		want, err := st.RankBatch(ctx, trains, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Probes = probes
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
	rank("eight probes, top 5", trains, probes, 5, 0)
	rank("the same eight, top 10", trains, probes, 10, 1)
	swappedT, swappedP := append([]*core.Sketch(nil), trains...), append([]*core.TrainProbe(nil), probes...)
	swappedT[2], swappedT[5], swappedP[2], swappedP[5] = swappedT[5], swappedT[2], swappedP[5], swappedP[2]
	rank("two of them swapped", swappedT, swappedP, 10, 0)
	probes[7] = core.CompileTrainProbe(trains[7])
	rank("one recompiled", trains, probes, 10, 0)
	rank("and again", trains, probes, 5, 1)
	rank("a prefix of the list", trains[:7], probes[:7], 5, 0)
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
	// One probe for every rank, so a scratch's memo can match it.
	probes := []*core.TrainProbe{core.CompileTrainProbe(train)}
	opt := RankOptions{Prefix: "memo/", MinJoinSize: 20, K: 3, TopK: 5, Workers: 1, Probes: probes}
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
	opt := RankOptions{Prefix: "view/", MinJoinSize: 20, K: 3, TopK: 30, Probes: []*core.TrainProbe{core.CompileTrainProbe(train)}}
	// rank answers with the shared probe, checks it against the probe-less
	// reference on the same catalog state, and reports hit or miss.
	rank := func(label string) (ranked []RankedSketch, hit bool) {
		t.Helper()
		ref := opt
		ref.Probes = nil
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

// TestPlanPinsNothing: a memoised plan keeps neither its probe nor its
// train reachable, and a view's plans stay inside their budget however
// many distinct probes rank on it.
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
		// A private copy of the train per probe, so both can be watched.
		tr := &core.Sketch{
			Method: train.Method, Role: train.Role, Seed: train.Seed, Size: train.Size, Numeric: train.Numeric,
			KeyHashes: train.KeyHashes, Nums: train.Nums, Strs: train.Strs, SourceRows: train.SourceRows,
		}
		probe := core.CompileTrainProbe(tr)
		runtime.SetFinalizer(probe, func(*core.TrainProbe) { finalized.Add(1) })
		runtime.SetFinalizer(tr, func(*core.Sketch) { finalized.Add(1) })
		if _, _, err := st.RankQuery(ctx, tr, RankOptions{Prefix: "bench/", MinJoinSize: 100, K: 3, TopK: 3, Probes: []*core.TrainProbe{probe}}); err != nil {
			t.Fatal(err)
		}
		if used, _ := viewPlans(); used > planCacheBytes {
			t.Fatalf("after %d probes the view holds %d plan bytes, over its %d budget", i+1, used, planCacheBytes)
		}
	}
	if _, misses := planCounters(st); misses != n {
		t.Fatalf("%d misses for %d distinct probes", misses, n)
	}
	if used, evictions := viewPlans(); evictions == 0 || used == 0 {
		t.Fatalf("degenerate: %d plan bytes, %d evictions — the budget was never reached", used, evictions)
	}
	for deadline := time.Now().Add(10 * time.Second); finalized.Load() < 2*n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != 2*n {
		t.Fatalf("%d of %d probes and trains were collected: something on the store keeps the rest reachable", got, 2*n)
	}
}
