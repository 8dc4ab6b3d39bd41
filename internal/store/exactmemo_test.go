package store

// Exact once per plan: a kept plan remembers each pair's exact answer,
// and the calls that reuse the plan must answer what they answer without
// it — the reference is the same call on a freshly opened twin store,
// where no plan exists — while a mutation racing phase 2 leaves nothing
// remembered.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"misketch/internal/core"
)

// slotsFilled counts the slots of v's plan for trains under opt that hold
// an answer.
func slotsFilled(t *testing.T, v *catalogView, trains []*core.Sketch, opt RankOptions) int {
	t.Helper()
	p, ok := v.plans.Get((&rankRun{trains: trains, seed: trains[0].Seed, opt: opt}).planKey(false))
	if !ok {
		t.Fatal("the view keeps no plan for the call")
	}
	n := 0
	for i := range p.exact {
		if p.exact[i].word.Load()&slotDone != 0 {
			n++
		}
	}
	return n
}

// currentView is the store's catalog view, built if a mutation dropped it.
func currentView(st *Store) *catalogView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.viewLocked()
}

// TestExactMemoBitIdentical: `top` 5/8/10/12, K 3 and 5, a MinMI floor, a
// seed round and its floored round, one train and batches of two and four
// — each call on one plan per train list answers, in rankings, SeedBound,
// Pruned and the cheap/exact/rescue counters, what it answers on a fresh
// twin; and the first call at a K the slots were not written at hits none.
func TestExactMemoBitIdentical(t *testing.T) {
	build := func() (string, []*core.Sketch) {
		st, trains := cascadeStore(t, 60)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return st.Dir(), trains
	}
	dir, trains := build()
	twin, _ := build()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	sets := []struct {
		name   string
		trains []*core.Sketch
	}{
		{"single", trains[:1]},
		{"batch2", trains},
		{"batch4", append(trains[:2:2], trains...)},
	}
	tiers := func(a, b Stats) [3]int64 {
		return [3]int64{b.CascadeCheapOnly - a.CascadeCheapOnly, b.CascadeExact - a.CascadeExact, b.CascadeMarginRescues - a.CascadeMarginRescues}
	}
	rank := func(label string, set int, trs []*core.Sketch, o RankOptions) *BatchResult {
		t.Helper()
		label = fmt.Sprintf("%s %s", sets[set].name, label)
		o.Prefix, o.MinJoinSize, o.Workers = "casc/", 30, 1
		if o.MinMI != nil {
			o.MinMI = o.MinMI[:len(trs)]
		}
		fresh, err := Open(twin)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RankBatch(ctx, trs, o)
		if err != nil {
			t.Fatalf("%s on the twin: %v", label, err)
		}
		freshTiers := tiers(Stats{}, fresh.Stats())
		if err := fresh.Close(); err != nil {
			t.Fatal(err)
		}
		s0 := st.Stats()
		got, err := st.RankBatch(ctx, trs, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s1 := st.Stats()
		sameBatch(t, label, got, want)
		if tiers(s0, s1) != freshTiers {
			t.Fatalf("%s: tiers (cheap, exact, rescues) %v on the plan, %v on a fresh twin", label, tiers(s0, s1), freshTiers)
		}
		if got.ExactMemoHits > got.CascadeExact {
			t.Fatalf("%s: the call reports %d/%d remembered/exact", label, got.ExactMemoHits, got.CascadeExact)
		}
		return got
	}

	// Floors come off the exact ranking: each train's median MI.
	all, err := st.RankBatch(ctx, trains, RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, NoCascade: true})
	if err != nil {
		t.Fatal(err)
	}
	var mid []float64
	for range 2 {
		for _, qr := range all.Queries {
			mid = append(mid, qr.Ranked[len(qr.Ranked)/2].MI)
		}
	}
	var memo int64
	for _, k := range []int{3, 5} {
		for set := range sets {
			for i, top := range []int{5, 8, 10, 12} {
				got := rank(fmt.Sprintf("K=%d top=%d", k, top), set, sets[set].trains, RankOptions{K: k, TopK: top})
				if k != 3 && i == 0 && got.ExactMemoHits != 0 {
					t.Fatalf("%s: the first call at K=%d took %d answers remembered at K=3", sets[set].name, k, got.ExactMemoHits)
				}
				memo += got.ExactMemoHits
			}
			memo += rank(fmt.Sprintf("K=%d top=10 floored", k), set, sets[set].trains, RankOptions{K: k, TopK: 10, MinMI: mid}).ExactMemoHits
			// A coordinator's two rounds on a plan of their own, of fresh
			// trains on the same keys: the seed answer's K-th MI is round 2's
			// floor, and round 2 re-estimates none of the pairs the seed
			// round scored.
			own := freshAll(sets[set].trains, k)
			seed := rank(fmt.Sprintf("K=%d seed", k), set, own, RankOptions{K: k, TopK: 5, Seed: true})
			floors := make([]float64, len(seed.Queries))
			for q, qr := range seed.Queries {
				floors[q] = qr.Ranked[len(qr.Ranked)-1].MI
			}
			if r2 := rank(fmt.Sprintf("K=%d round 2", k), set, own, RankOptions{K: k, TopK: 5, MinMI: floors}); r2.ExactMemoHits == 0 {
				t.Fatalf("%s K=%d: round 2 remembered none of the %d pairs it scored exactly", sets[set].name, k, r2.CascadeExact)
			}
		}
	}
	if memo == 0 {
		t.Fatal("no top variant reused an exact answer")
	}
}

// TestExactMemoSkipsRacingPut: a Put that lands once phase 2 has begun
// moves the store past the generation the call took its view at, so no
// pair the call scores afterwards is remembered — here none is, though the
// answer is the view's — while the same call on a quiet store remembers
// every pair it scores.
func TestExactMemoSkipsRacingPut(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ref, _ := cascadeStore(t, 60)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5, Workers: 1}
	want, err := memoOff(t, ref).RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A compatible overwrite of one of the strongest candidates.
	over, err := st.Get("casc/c006#x")
	if err != nil {
		t.Fatal(err)
	}
	v := currentView(st)
	fired := false
	testHookRankWork = func(int) {
		// The plan is on the view from the end of phase 1: this is phase 2.
		if !fired && v.plans.Stats().Entries > 0 {
			fired = true
			if err := st.Put("casc/c000#x", over); err != nil {
				panic(err)
			}
		}
	}
	got, err := st.RankBatch(ctx, trains, opt)
	testHookRankWork = nil
	if err != nil {
		t.Fatal(err)
	}
	if !fired || got.PlanMisses != 1 || got.CascadeExact == 0 {
		t.Fatalf("fixture: Put fired %v, %d plan misses, %d exact", fired, got.PlanMisses, got.CascadeExact)
	}
	sameBatch(t, "Put mid-phase-2", got, want)
	if n := slotsFilled(t, v, trains, opt); n != 0 {
		t.Fatalf("%d of %d pairs scored after a racing Put were remembered", n, got.CascadeExact)
	}

	quiet, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := slotsFilled(t, currentView(st), trains, opt); quiet.PlanMisses != 1 || int64(n) != quiet.CascadeExact || n == 0 {
		t.Fatalf("quiet store: %d plan misses, %d of %d pairs remembered, want all", quiet.PlanMisses, n, quiet.CascadeExact)
	}
}

// TestExactMemoHammer: eight goroutines rank one plan at mixed K and TopK
// on two workers each, so slots are claimed, written and read at once —
// and every answer is the exact pass's. Run it with -race.
func TestExactMemoHammer(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ctx := context.Background()
	base := RankOptions{Prefix: "casc/", MinJoinSize: 30}
	var variants []RankOptions
	var want []*BatchResult
	for _, k := range []int{3, 5} {
		for _, top := range []int{1, 5, 10} {
			o := base
			o.K, o.TopK, o.Workers, o.NoCascade = k, top, 1, true
			res, err := st.RankBatch(ctx, trains, o)
			if err != nil {
				t.Fatal(err)
			}
			o.Workers, o.NoCascade = 2, false
			variants, want = append(variants, o), append(want, res)
		}
	}
	const goroutines, rounds = 8, 12
	got := make([][rounds]*BatchResult, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				res, err := st.RankBatch(ctx, trains, variants[(g+i)%len(variants)])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = res
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for i, res := range got[g] {
			v := (g + i) % len(variants)
			sameBatch(t, fmt.Sprintf("goroutine %d round %d K=%d top=%d", g, i, variants[v].K, variants[v].TopK), res, want[v])
		}
	}
	if st.Stats().ExactMemoHits == 0 {
		t.Fatal("no call reused an exact answer")
	}
}
