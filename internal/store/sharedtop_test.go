package store

// One top-K per train, shared by every worker, and a phase 2 claimed a
// pair at a time: what a second worker must not cost (exact estimates),
// what it must not change (the answer), and what can go wrong on a worker
// goroutine (a cancellation, a panic) without going wrong for anyone else.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExactCountIndependentOfWorkers: on the num1k shape a rank scores 17
// pairs exactly at one worker — the ten contenders and the margin band —
// and more workers may add only the pairs in flight when the bound lands.
// Per-worker heaps fed by chunked claims ran 23–30 at two to eight: the
// second worker's bound stayed at zero until its own heap was full.
func TestExactCountIndependentOfWorkers(t *testing.T) {
	st, train := cohortStoreN(t, 1000)
	ctx := context.Background()
	run := func(workers int) ([]RankedSketch, int64) {
		t.Helper()
		before := st.Stats().CascadeExact
		ranked, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 100, K: 3, TopK: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ranked, st.Stats().CascadeExact - before
	}
	want, base := run(1)
	if len(want) != 10 || base < 10 || base > 40 {
		t.Fatalf("fixture: %d rows from %d exact estimates at one worker", len(want), base)
	}
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			got, exact := run(workers)
			diffRankings(t, fmt.Sprintf("workers=%d", workers), got, want)
			if exact > base+int64(workers)-1 {
				t.Fatalf("workers=%d: %d exact estimates, one worker makes %d", workers, exact, base)
			}
		}
	}
}

// TestSharedTopKHammer: eight workers offering into four trains' heaps,
// at a K of one (every entry displaces the root) and of ten, on a catalog
// with every estimator family and on one whose MIs tie at zero by the
// dozen (so names decide the cut) — always the exact pass's answer, with
// the cascade and without. Run it with -race -count=10.
func TestSharedTopKHammer(t *testing.T) {
	ctx := context.Background()
	casc, two := cascadeStore(t, 60)
	names, cands, four := diffSketches(t, 80, 4)
	tied := sealedStore(t, names, cands, false)
	for _, tc := range []struct {
		name string
		st   *Store
		opt  RankOptions
	}{
		{"cascadeStore", casc, RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3}},
		{"tied", tied, RankOptions{MinJoinSize: 20, K: 3}},
	} {
		trains := four
		if tc.st == casc {
			trains = append(slices.Clone(two), two...)
		}
		for _, topK := range []int{1, 10} {
			ref := tc.opt
			ref.TopK, ref.Workers, ref.NoCascade = topK, 1, true
			want, err := tc.st.RankBatch(ctx, trains, ref)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				for _, noCascade := range []bool{false, true} {
					opt := tc.opt
					opt.TopK, opt.Workers, opt.NoCascade = topK, 8, noCascade
					got, err := tc.st.RankBatch(ctx, trains, opt)
					if err != nil {
						t.Fatal(err)
					}
					sameBatch(t, fmt.Sprintf("%s topK=%d noCascade=%v", tc.name, topK, noCascade), got, want)
				}
			}
		}
	}
}

// TestCancelMidPhase2: a context cancelled while phase 2 runs is the
// rank's error, seen at every worker's next claim — the pair in hand is
// finished, the rest of the list is not scored.
func TestCancelMidPhase2(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	// K above the catalog: no bound ever lands, every pair goes exact.
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 100, Workers: 2}
	pre := st.Stats()
	if _, err := st.RankBatch(context.Background(), trains, opt); err != nil {
		t.Fatal(err)
	}
	pairs := st.Stats().CascadeExact - pre.CascadeExact
	if pairs < 50 {
		t.Fatalf("fixture: only %d pairs in phase 2", pairs)
	}
	// The same call again finds its plan and runs phase 2 alone, so every
	// index the hook sees is a pair of it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Counting and cancelling are one step: a worker preempted between
	// them would let the other claim pairs — remembered ones cost next to
	// nothing — before the cancel it has already been counted for.
	var claimedMu sync.Mutex
	var claimed atomic.Int64
	testHookRankWork = func(int) {
		claimedMu.Lock()
		defer claimedMu.Unlock()
		if claimed.Add(1) == 5 {
			cancel()
		}
	}
	defer func() { testHookRankWork = nil }()
	hits, _ := planCounters(st)
	before := st.Stats()
	_, err := st.RankBatch(ctx, trains, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("rank cancelled mid-phase-2 returned %v, want context.Canceled", err)
	}
	if now, _ := planCounters(st); now != hits+1 {
		t.Fatal("fixture: the cancelled rank did not reuse the plan, so the hook saw phase 1")
	}
	// What it did reaches the store's totals once, failed as it is: every
	// pair claimed went exact, and the first rank remembered each answer.
	n := claimed.Load()
	checkMoved(t, "the cancelled rank", before, st.Stats(), RankTrace{PlanHits: 1, CascadeExact: n, ExactMemoHits: n})
	// The canceller finishes its pair; the other worker may have been
	// between its check and the hook.
	if n := claimed.Load(); n > 5+int64(opt.Workers)-1 {
		t.Fatalf("%d of %d pairs claimed after a cancel at the fifth", n, pairs)
	}
	testHookRankWork = nil
	if _, err := st.RankBatch(context.Background(), trains, opt); err != nil {
		t.Fatalf("rank after a cancelled one: %v", err)
	}
}

// TestRankWorkerPanic: a panic on a worker goroutine — where no request
// handler's recover reaches — fails its own query with a named error,
// is counted, leaves one stack on standard error, and costs the store
// nothing: the next rank answers.
func TestRankWorkerPanic(t *testing.T) {
	st, trains := cascadeStore(t, 36)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5, Workers: 4}
	want, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	testHookRankWork = func(i int) {
		if i == 7 {
			panic("injected")
		}
	}
	_, rankErr := st.RankBatch(ctx, trains, opt)
	testHookRankWork = nil
	os.Stderr = stderr
	w.Close()
	logged, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	const msg = "store: rank worker panicked: injected"
	if rankErr == nil || rankErr.Error() != msg {
		t.Fatalf("rank with a panicking worker returned %v, want %q", rankErr, msg)
	}
	if n := strings.Count(string(logged), msg); n != 1 || !strings.Contains(string(logged), "goroutine ") {
		t.Fatalf("standard error carries the panic %d times, want once with its stack:\n%s", n, logged)
	}
	if n := st.Stats().RankPanics; n != 1 {
		t.Fatalf("RankPanics = %d, want 1", n)
	}
	got, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatalf("rank after a panicked one: %v", err)
	}
	sameBatch(t, "after a panic", got, want)
}

// TestRankHeapKeepsTheTopK holds the typed heap to sort-and-cut under
// MIs that tie, and a full heap's offer to zero allocations.
func TestRankHeapKeepsTheTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 7, 10, 64, 0} {
		var h rankHeap
		var all []RankedSketch
		for i := 0; i < 300; i++ {
			rs := RankedSketch{Name: fmt.Sprintf("c%03d", rng.Intn(1000)*1000+i), MI: float64(rng.Intn(12)) / 4}
			all = append(all, rs)
			root := RankedSketch{MI: -1}
			if k > 0 && len(h.s) == k {
				root = h.s[0]
			}
			if in := h.offer(rs, k); in != (k <= 0 || len(all) <= k || byRank(rs, root) < 0) {
				t.Fatalf("k=%d offer %d: entered=%v against root %+v", k, i, in, root)
			}
			if k > 0 && len(h.s) == k { // full: the bound is the k-th best so far
				slices.SortFunc(all, byRank)
				if got, want := math.Float64frombits(h.bound.Load()-1), all[k-1].MI; got != want {
					t.Fatalf("k=%d offer %d: bound %v, the k-th best is %v", k, i, got, want)
				}
			}
		}
		slices.SortFunc(all, byRank)
		if k > 0 {
			all = all[:k]
		}
		slices.SortFunc(h.s, byRank)
		if !slices.Equal(h.s, all) {
			t.Fatalf("k=%d: heap kept %v, want %v", k, h.s, all)
		}
	}
	var h rankHeap
	for i := 0; i < 10; i++ {
		h.offer(RankedSketch{Name: "fill", MI: rng.Float64()}, 10)
	}
	if avg := testing.AllocsPerRun(1000, func() { h.offer(RankedSketch{Name: "next", MI: rng.Float64()}, 10) }); avg != 0 {
		t.Fatalf("rankHeap.offer allocates %.1f times per call at steady state", avg)
	}
}
