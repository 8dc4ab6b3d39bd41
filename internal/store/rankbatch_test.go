package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"misketch/internal/core"
	"misketch/internal/mi"
)

// batchStore fills a store with candidates covering sliding key windows
// (so different trains overlap different candidate subsets) and returns
// it with nTrains train sketches over staggered windows of the same key
// universe. The geometry guarantees every prefilter regime appears:
// disjoint pairs (overlap 0), marginal pairs near the min-join cutoff,
// and fully-joinable pairs.
func batchStore(t testing.TB, nCand, nTrains int) (*Store, []*core.Sketch) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	opt := core.Options{Method: core.TUPSK, Size: 128}
	trains := make([]*core.Sketch, nTrains)
	for q := range trains {
		tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo := q * 40
		for i := 0; i < 2000; i++ {
			tb.AddNum(fmt.Sprintf("g%d", lo+rng.Intn(120)), rng.NormFloat64())
		}
		trains[q] = tb.Sketch()
	}
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo := (c * 13) % 400
		for g := lo; g < lo+80; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%6)+rng.NormFloat64())
		}
		if err := st.Put(fmt.Sprintf("batch/c%03d#x", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	return st, trains
}

// TestRankBatchMatchesPerQueryRankQuery pins the batch pipeline's core
// contract: every query in a batch returns bit-for-bit what an
// independent RankQuery returns — same candidates, same order, same MI
// bits — with and without a top-K bound, across worker counts.
func TestRankBatchMatchesPerQueryRankQuery(t *testing.T) {
	st, trains := batchStore(t, 60, 5)
	ctx := context.Background()
	const minJoin = 20
	for _, topK := range []int{0, 7} {
		for _, workers := range []int{1, 3} {
			res, err := st.RankBatch(ctx, trains, RankOptions{
				Prefix: "batch/", MinJoinSize: minJoin, K: 3, TopK: topK, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Queries) != len(trains) {
				t.Fatalf("got %d query results for %d trains", len(res.Queries), len(trains))
			}
			anyRanked := false
			for q, tr := range trains {
				want, wantSkipped, err := st.RankQuery(ctx, tr, RankOptions{
					Prefix: "batch/", MinJoinSize: minJoin, K: 3, TopK: topK,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Queries[q].Ranked
				if len(got) != len(want) {
					t.Fatalf("topK=%d workers=%d train %d: batch %d results, per-query %d",
						topK, workers, q, len(got), len(want))
				}
				if len(got) > 0 {
					anyRanked = true
				}
				for i := range want {
					if got[i].Name != want[i].Name || got[i].JoinSize != want[i].JoinSize ||
						got[i].Estimator != want[i].Estimator ||
						math.Float64bits(got[i].MI) != math.Float64bits(want[i].MI) {
						t.Fatalf("train %d result %d diverges: batch %+v vs per-query %+v",
							q, i, got[i], want[i])
					}
				}
				if len(res.Skipped) != len(wantSkipped) {
					t.Fatalf("batch skipped %d, per-query %d", len(res.Skipped), len(wantSkipped))
				}
			}
			if !anyRanked {
				t.Fatal("degenerate fixture: no query ranked anything")
			}
		}
	}
}

// TestRankBatchPrefilterExact proves the prefiltered pairs are exactly
// the pairs whose sketch join has at most MinJoinSize samples: the
// per-query pruned count must equal the number of eligible candidates
// whose key overlap (== join size, by TestKeyOverlapMatchesJoinSize) is
// at or below the cutoff, and ranked + pruned + small-but-estimated
// must account for every eligible candidate.
func TestRankBatchPrefilterExact(t *testing.T) {
	st, trains := batchStore(t, 60, 5)
	ctx := context.Background()
	const minJoin = 20
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.RankBatch(ctx, trains, RankOptions{
		Prefix: "batch/", MinJoinSize: minJoin, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalPruned := 0
	for q, tr := range trains {
		wantPruned, wantRanked := 0, 0
		for _, name := range names {
			cand, err := st.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := core.KeyOverlap(tr, cand); n <= minJoin {
				wantPruned++
			} else {
				wantRanked++
			}
		}
		if got := res.Queries[q].Pruned; got != wantPruned {
			t.Fatalf("train %d: pruned %d pairs, want exactly %d (pairs with join size <= %d)",
				q, got, wantPruned, minJoin)
		}
		// Overlap above the cutoff means the estimator ran AND the
		// min-join filter passed, so ranked must account for the rest.
		if got := len(res.Queries[q].Ranked); got != wantRanked {
			t.Fatalf("train %d: ranked %d, want %d", q, got, wantRanked)
		}
		totalPruned += wantPruned
	}
	if totalPruned == 0 {
		t.Fatal("degenerate fixture: prefilter never fired")
	}
	ss := st.Stats()
	if ss.RankBatches != 1 {
		t.Fatalf("RankBatches = %d, want 1", ss.RankBatches)
	}
	if ss.PrunedPairs != int64(totalPruned) {
		t.Fatalf("PrunedPairs = %d, want %d", ss.PrunedPairs, totalPruned)
	}
}

// TestRankBatchMinJoinNegative checks that MinJoinSize -1 (keep even
// empty joins) disables the prefilter entirely: overlap can never be
// at or below -1, so every pair is estimated, exactly as RankQuery does.
func TestRankBatchMinJoinNegative(t *testing.T) {
	st, trains := batchStore(t, 20, 2)
	res, err := st.RankBatch(context.Background(), trains, RankOptions{MinJoinSize: -1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for q, tr := range trains {
		if res.Queries[q].Pruned != 0 {
			t.Fatalf("train %d: pruned %d pairs under MinJoinSize -1", q, res.Queries[q].Pruned)
		}
		want, _, err := st.RankQuery(context.Background(), tr, RankOptions{MinJoinSize: -1, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Queries[q].Ranked) != len(want) {
			t.Fatalf("train %d: batch %d results, per-query %d", q, len(res.Queries[q].Ranked), len(want))
		}
	}
}

// TestRankBatchTrainCopiesAndScratch exercises the service plumbing: a
// batch of deep copies of the trains, as a server decodes them from each
// request, reuses the plan the trains left, and neither that nor a second
// worker on the store's scratch pool changes a single bit of any ranking.
func TestRankBatchTrainCopiesAndScratch(t *testing.T) {
	st, trains := batchStore(t, 30, 3)
	ctx := context.Background()
	base, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: 10, K: 3, TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.RankBatch(ctx, freshAll(trains, 0), RankOptions{MinJoinSize: 10, K: 3, TopK: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.PlanMisses != 1 || got.PlanHits != 1 {
		t.Fatalf("%d plan misses, then %d hits for the copies; want 1 and 1", base.PlanMisses, got.PlanHits)
	}
	for q := range trains {
		if len(got.Queries[q].Ranked) != len(base.Queries[q].Ranked) {
			t.Fatalf("train %d: %d results != %d", q, len(got.Queries[q].Ranked), len(base.Queries[q].Ranked))
		}
		for i, w := range base.Queries[q].Ranked {
			g := got.Queries[q].Ranked[i]
			if g.Name != w.Name || math.Float64bits(g.MI) != math.Float64bits(w.MI) {
				t.Fatalf("train %d result %d diverges on the copies: %+v vs %+v", q, i, g, w)
			}
		}
	}
}

// TestRankBatchValidation covers the up-front failure modes: mixed
// seeds, the empty batch, and — on both
// entry points — a negative K, which used to panic inside a worker
// goroutine ("mi: k must be positive") and take the process with it.
// K 0 is the default, as it is on the wire: the zero RankOptions ranks.
func TestRankBatchValidation(t *testing.T) {
	st, trains := batchStore(t, 5, 2)
	ctx := context.Background()

	odd := &core.Sketch{Method: core.TUPSK, Role: core.RoleTrain, Seed: trains[0].Seed + 1, Numeric: true}
	if _, err := st.RankBatch(ctx, []*core.Sketch{trains[0], odd}, RankOptions{}); err == nil {
		t.Fatal("mixed-seed batch did not fail")
	}
	res, err := st.RankBatch(ctx, nil, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 0 || len(res.Skipped) != 0 {
		t.Fatalf("empty batch returned %+v", res)
	}
	for _, topK := range []int{0, 3} { // inline exact tier, and the cascade's
		if _, err := st.RankBatch(ctx, trains, RankOptions{K: -1, TopK: topK}); err == nil || !strings.Contains(err.Error(), "non-negative K") {
			t.Fatalf("RankBatch with K=-1 TopK=%d: %v, want an error naming K", topK, err)
		}
		if _, _, err := st.RankQuery(ctx, trains[0], RankOptions{K: -1, TopK: topK}); err == nil || !strings.Contains(err.Error(), "non-negative K") {
			t.Fatalf("RankQuery with K=-1 TopK=%d: %v, want an error naming K", topK, err)
		}
		want, _, err := st.RankQuery(ctx, trains[0], RankOptions{K: mi.DefaultK, TopK: topK})
		if err != nil || len(want) == 0 {
			t.Fatalf("RankQuery with the default K spelled out: %d rows, %v", len(want), err)
		}
		if got, _, err := st.RankQuery(ctx, trains[0], RankOptions{TopK: topK}); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("RankQuery with K=0 TopK=%d: %v, %v; want K=%d's %v", topK, got, err, mi.DefaultK, want)
		}
		if got, err := st.RankBatch(ctx, trains[:1], RankOptions{TopK: topK}); err != nil || !reflect.DeepEqual(got.Queries[0].Ranked, want) {
			t.Fatalf("RankBatch with K=0 TopK=%d: %v, %v; want K=%d's %v", topK, got, err, mi.DefaultK, want)
		}
	}
}

// TestRankBatchDuplicateHashCandidate pins the malformed-candidate
// semantics against RankQuery's: a candidate with duplicated key hashes
// is exempt from the prefilter, so a duplicate that joins a train entry
// fails the batch (as it fails the single query), while one that joins
// nothing is estimated and ranked normally.
func TestRankBatchDuplicateHashCandidate(t *testing.T) {
	st, trains := batchStore(t, 4, 1)
	ctx := context.Background()
	train := trains[0]

	// A duplicate hash that matches nothing in the train sketch: the
	// batch must behave exactly like RankQuery (rank it normally).
	benign := &core.Sketch{
		Method: core.TUPSK, Role: core.RoleCandidate, Seed: train.Seed, Numeric: true,
		KeyHashes: []uint32{0xdeadbeef, 0xdeadbeef}, Nums: []float64{1, 2}, SourceRows: 2,
	}
	if !benign.HasDuplicateKeyHashes() {
		t.Fatal("fixture is not duplicated")
	}
	if err := st.Put("dup/benign", benign); err != nil {
		t.Fatal(err)
	}
	res, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: -1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := st.RankQuery(ctx, train, RankOptions{MinJoinSize: -1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries[0].Ranked) != len(want) {
		t.Fatalf("batch %d results, per-query %d", len(res.Queries[0].Ranked), len(want))
	}

	// A duplicate that joins: both paths must fail.
	joining := &core.Sketch{
		Method: core.TUPSK, Role: core.RoleCandidate, Seed: train.Seed, Numeric: true,
		KeyHashes: []uint32{train.KeyHashes[0], train.KeyHashes[0]}, Nums: []float64{1, 2}, SourceRows: 2,
	}
	if err := st.Put("dup/joining", joining); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.RankQuery(ctx, train, RankOptions{MinJoinSize: -1, K: 3}); err == nil {
		t.Fatal("RankQuery accepted a joining duplicate")
	}
	if _, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: -1, K: 3}); err == nil {
		t.Fatal("RankBatch accepted a joining duplicate")
	}
}

// TestStatsAreProcessLifetime pins the documented Stats contract: the
// activity counters (puts, deletes, rank queries, batches, pruned
// pairs, disk reads) describe one handle's lifetime and are NOT
// persisted — reopening the same directory starts every counter at
// zero while the content-describing fields survive via the manifest.
func TestStatsAreProcessLifetime(t *testing.T) {
	dir := t.TempDir()
	st, trains := func() (*Store, []*core.Sketch) {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		opt := core.Options{Method: core.TUPSK, Size: 64}
		tb, _ := core.NewStreamBuilder(core.RoleTrain, true, opt)
		for i := 0; i < 800; i++ {
			tb.AddNum(fmt.Sprintf("g%d", rng.Intn(40)), rng.NormFloat64())
		}
		for c := 0; c < 6; c++ {
			cb, _ := core.NewStreamBuilder(core.RoleCandidate, true, opt)
			for g := 0; g < 40; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), rng.NormFloat64())
			}
			if err := st.Put(fmt.Sprintf("c%d", c), cb.Sketch()); err != nil {
				t.Fatal(err)
			}
		}
		return st, []*core.Sketch{tb.Sketch()}
	}()
	ctx := context.Background()
	if _, _, err := st.RankQuery(ctx, trains[0], RankOptions{MinJoinSize: 5, K: 3}); err != nil {
		t.Fatal(err)
	}
	// Two trains: a rank counts as a batch by its train count, not by the
	// entry point it came through.
	if _, err := st.RankBatch(ctx, append(trains, trains[0]), RankOptions{MinJoinSize: 1 << 30, K: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("c5"); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if before.Puts != 6 || before.Deletes != 1 || before.RankQueries != 1 ||
		before.RankBatches != 1 || before.PrunedPairs == 0 {
		t.Fatalf("pre-close stats did not accumulate: %+v", before)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	after := re.Stats()
	if after.Sketches != 5 {
		t.Fatalf("reopened store indexes %d sketches, want 5", after.Sketches)
	}
	if after.Puts != 0 || after.Deletes != 0 || after.RankQueries != 0 ||
		after.RankBatches != 0 || after.PrunedPairs != 0 || after.DiskReads != 0 {
		t.Fatalf("reopened handle inherited activity counters: %+v", after)
	}
}
