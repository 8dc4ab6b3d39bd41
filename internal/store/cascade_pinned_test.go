package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"misketch/internal/core"
	"misketch/internal/table"
)

// Phase 1 of RankBatch decides, per (train, candidate) pair, between
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

// selCatalog is the benchmark's sel20k shape at test size: two disjoint
// 300-key domains of 40 candidates, half numeric half categorical (20
// long labels a domain), 8 of each domain planted on the 20-level
// signal, compacted into one compressed segment and read with no sketch
// cache — so every rank decodes its records (pooled decode scratch, at
// Workers 4 concurrently), half its pairs are DC-KSG, and with TopK 10
// reaching past the 8 planted the cheap tier settles almost nothing.
// The train is domain 0's.
func selCatalog(t *testing.T) (*Store, []*core.Sketch) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenWithOptions(dir, OpenOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	opt := core.Options{Method: core.TUPSK, Size: 256}
	signal := func(g int) float64 { return float64(g % 20) }
	builder := func(role core.Role, numeric bool) *core.StreamBuilder {
		b, err := core.NewStreamBuilder(role, numeric, opt)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for d := 0; d < 2; d++ {
		for j := 0; j < 40; j++ {
			numeric, planted := j%2 == 0, j%10 < 2
			b := builder(core.RoleCandidate, numeric)
			for g := 0; g < 300; g++ {
				key := fmt.Sprintf("d%03d-k%d", d, g)
				label := func(l int) string { return fmt.Sprintf("category/region-%03d/level-%02d", d, l) }
				switch {
				case numeric && planted:
					b.AddNum(key, signal(g)+0.3*rng.NormFloat64())
				case numeric:
					b.AddNum(key, rng.NormFloat64())
				case planted:
					b.AddStr(key, label(g%20))
				default:
					b.AddStr(key, label(rng.Intn(12)))
				}
			}
			if err := st.Put(fmt.Sprintf("sel/d%03d/t%03d#x", d, j), b.Sketch()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cs, err := st.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("compact = %+v, %v", cs, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenWithOptions(dir, OpenOptions{Compression: true, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if ss := st.Stats(); ss.CompressedSegments != 1 || ss.IndexedSegments != 1 {
		t.Fatalf("fixture stats %+v, want one compressed, indexed segment", ss)
	}
	tb := builder(core.RoleTrain, true)
	for i := 0; i < 4000; i++ {
		g := rng.Intn(300)
		tb.AddNum(fmt.Sprintf("d000-k%d", g), signal(g)+0.25*rng.NormFloat64())
	}
	return st, []*core.Sketch{tb.Sketch()}
}

func TestCascadeObservablesPinned(t *testing.T) {
	type counters struct{ cheapOnly, exact, rescues, pruned, noDecode int64 }
	cases := []struct {
		name string
		open func(t *testing.T) (*Store, []*core.Sketch)
		opt  RankOptions
		// At Workers 1, recorded at commit ca1e605.
		rank, seed counters
	}{
		{
			name: "cascadeStore",
			open: func(t *testing.T) (*Store, []*core.Sketch) { return cascadeStore(t, 60) },
			opt:  RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5},
			rank: counters{cheapOnly: 25, exact: 95, rescues: 6},
			seed: counters{exact: 10},
		},
		{
			name: "cohortStore",
			open: func(t *testing.T) (*Store, []*core.Sketch) {
				st, train := cohortStore(t)
				return st, []*core.Sketch{train}
			},
			opt:  RankOptions{Prefix: "bench/", MinJoinSize: 100, K: 3, TopK: 3},
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
			opt:  RankOptions{MinJoinSize: 30, K: 3, TopK: 3},
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
			opt:  RankOptions{MinJoinSize: 30, K: 3, TopK: 3},
			rank: counters{exact: 20, pruned: 20, noDecode: 10},
			seed: counters{exact: 6, pruned: 20, noDecode: 10},
		},
		{
			// Recorded at commit c8bc2de, the parent of the order-driven
			// DC-KSG and of the pooled decode scratch.
			name: "sel20k",
			open: selCatalog,
			opt:  RankOptions{Prefix: "sel/", MinJoinSize: 50, K: 3, TopK: 10},
			rank: counters{exact: 40, pruned: 40, noDecode: 40},
			seed: counters{exact: 10, pruned: 40, noDecode: 40},
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
