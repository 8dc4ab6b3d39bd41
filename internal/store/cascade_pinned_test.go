package store

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"misketch/internal/core"
	"misketch/internal/table"
)

// Phase 1 of rankTrains decides, per (train, candidate) pair, between
// pruned, skipped, cheaply scored and exactly scored, and every one of
// those decisions is visible: in the ranking, in Pruned and Skipped, in
// a seed answer's rows and bound, and in five Stats counters. The other
// cascade tests hold the counters to their partition property only;
// this one holds the observables equal across worker counts and, at one
// worker (where scheduling cannot move a pair between tiers), the
// counters to the numbers the parent of the one-probe phase 1 (commit
// ca1e605) produced — a change to the probe, the cheap tier or the
// prefilter that moves a single pair fails here by name.

// goldenCatalog sketches testdata/golden/corpus the way the root
// package's golden tests do: two trains (numeric, categorical) and two
// candidates per file over key windows sliding from full overlap to
// none, so the prefilter has pairs to prune.
func goldenCatalog(t *testing.T) (names []string, cands, trains []*core.Sketch) {
	t.Helper()
	corpus := filepath.Join("..", "..", "testdata", "golden", "corpus")
	opt := core.Options{Method: core.TUPSK, Size: 128}
	read := func(file string) *table.Table {
		f, err := os.Open(filepath.Join(corpus, file))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tb, err := table.ReadCSV(f)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	build := func(tb *table.Table, col string, role core.Role) *core.Sketch {
		sk, err := core.Build(tb, "key", col, role, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	trainTb := read("train.csv")
	trains = []*core.Sketch{build(trainTb, "y_num", core.RoleTrain), build(trainTb, "y_cat", core.RoleTrain)}
	for c := 0; c < 10; c++ {
		file := fmt.Sprintf("c%02d.csv", c)
		tb := read(file)
		for _, col := range []string{"x_num", "x_cat"} {
			names = append(names, fmt.Sprintf("golden/%s#%s@key", file, col))
			cands = append(cands, build(tb, col, core.RoleCandidate))
		}
	}
	return names, cands, trains
}

func TestCascadeObservablesPinned(t *testing.T) {
	type counters struct{ cheapOnly, exact, rescues, pruned, noDecode int64 }
	cases := []struct {
		name string
		open func(t *testing.T) (*Store, []*core.Sketch)
		opt  BatchOptions
		// At Workers 1, recorded at commit ca1e605.
		rank, seed counters
	}{
		{
			name: "cascadeStore",
			open: func(t *testing.T) (*Store, []*core.Sketch) { return cascadeStore(t, 60) },
			opt:  BatchOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5},
			rank: counters{cheapOnly: 25, exact: 95, rescues: 6},
			seed: counters{exact: 10},
		},
		{
			name: "cohortStore",
			open: func(t *testing.T) (*Store, []*core.Sketch) {
				st, train := cohortStore(t)
				return st, []*core.Sketch{train}
			},
			opt:  BatchOptions{Prefix: "bench/", MinJoinSize: 100, K: 3, TopK: 3},
			rank: counters{cheapOnly: 195, exact: 5, rescues: 1},
			seed: counters{exact: 3},
		},
		{
			// Unsealed: no key index, so the probe itself prunes.
			name: "golden/open",
			open: func(t *testing.T) (*Store, []*core.Sketch) {
				names, cands, trains := goldenCatalog(t)
				st, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				for i, name := range names {
					if err := st.Put(name, cands[i]); err != nil {
						t.Fatal(err)
					}
				}
				return st, trains
			},
			opt:  BatchOptions{MinJoinSize: 30, K: 3, TopK: 3},
			rank: counters{exact: 20, pruned: 20},
			seed: counters{exact: 6, pruned: 20},
		},
		{
			// Sealed: the index excludes what it can before any decode.
			name: "golden/sealed",
			open: func(t *testing.T) (*Store, []*core.Sketch) {
				names, cands, trains := goldenCatalog(t)
				return sealedStore(t, names, cands, false), trains
			},
			opt:  BatchOptions{MinJoinSize: 30, K: 3, TopK: 3},
			rank: counters{exact: 20, pruned: 20, noDecode: 10},
			seed: counters{exact: 6, pruned: 20, noDecode: 10},
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, trains := tc.open(t)
			run := func(workers int, seed bool) (*BatchResult, counters) {
				t.Helper()
				opt := tc.opt
				opt.Workers, opt.Seed = workers, seed
				pre := st.Stats()
				res, err := st.RankBatch(ctx, trains, opt)
				if err != nil {
					t.Fatal(err)
				}
				post := st.Stats()
				return res, counters{
					post.CascadeCheapOnly - pre.CascadeCheapOnly,
					post.CascadeExact - pre.CascadeExact,
					post.CascadeMarginRescues - pre.CascadeMarginRescues,
					post.PrunedPairs - pre.PrunedPairs,
					post.CandidatesSkippedNoDecode - pre.CandidatesSkippedNoDecode,
				}
			}
			for _, seed := range []bool{false, true} {
				want, got := run(1, seed)
				pinned := tc.rank
				if seed {
					pinned = tc.seed
				}
				if got != pinned {
					t.Errorf("seed=%v workers=1: counters %+v, recorded at the parent %+v", seed, got, pinned)
				}
				for _, workers := range []int{2, 4} {
					res, _ := run(workers, seed)
					label := fmt.Sprintf("seed=%v workers=%d", seed, workers)
					if !reflect.DeepEqual(res.Skipped, want.Skipped) {
						t.Fatalf("%s: skipped %v, want %v", label, res.Skipped, want.Skipped)
					}
					for q := range want.Queries {
						g, w := res.Queries[q], want.Queries[q]
						diffRankings(t, fmt.Sprintf("%s train %d", label, q), g.Ranked, w.Ranked)
						if g.Pruned != w.Pruned || math.Float64bits(g.SeedBound) != math.Float64bits(w.SeedBound) {
							t.Fatalf("%s train %d: pruned %d bound %v, want %d and %v",
								label, q, g.Pruned, g.SeedBound, w.Pruned, w.SeedBound)
						}
					}
				}
			}
		})
	}
}
