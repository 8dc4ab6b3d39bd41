package misketch

// golden_test.go is the repository's drift alarm: a small seeded
// synthetic corpus is committed under testdata/golden/, together with
// the exact rankings (names, order, estimator families, join sizes,
// and MI values down to the bit) every estimator family must produce
// over it. Any change that moves an estimate — a refactor of the
// estimators, the join, the hashing, the prefilter — fails
// TestGoldenRankings with a precise diff instead of silently shifting
// discovery results.
//
// Regenerate after an INTENTIONAL semantic change with:
//
//	go test -run TestGoldenRankings -update .
//
// which rewrites both the corpus CSVs (deterministic: fixed seed, fixed
// formatting) and testdata/golden/rankings.json. Review the resulting
// diff like any other semantic change.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden (corpus + expected rankings)")

const (
	goldenDir      = "testdata/golden"
	goldenCorpus   = "testdata/golden/corpus"
	goldenRankings = "testdata/golden/rankings.json"

	goldenSketchSize = 128
	goldenMinJoin    = 30
	goldenSeed       = 77
	goldenCandFiles  = 10
)

// goldenRecord is one expected ranking row. MI is stored twice: as a
// float for human review and as hex bits for exact comparison.
type goldenRecord struct {
	Name     string  `json:"name"`
	MI       float64 `json:"mi"`
	MIBits   string  `json:"mi_bits"`
	JoinSize int     `json:"join_size"`
}

// goldenQuery is one train target's expected result, grouped by
// estimator family (rankings are only comparable within a family; see
// the paper, Section V-C3).
type goldenQuery struct {
	Target   string                    `json:"target"`
	Pruned   int                       `json:"pruned"`
	Families map[string][]goldenRecord `json:"families"`
}

// goldenFile is the committed expectation.
type goldenFile struct {
	SketchSize int           `json:"sketch_size"`
	MinJoin    int           `json:"min_join"`
	K          int           `json:"k"`
	Queries    []goldenQuery `json:"queries"`
}

// writeGoldenCorpus regenerates the committed CSVs: one train table
// with a numeric and a categorical target, and candidate tables over
// sliding key windows with numeric and categorical features whose
// dependence on the key varies per file (including pure-noise files
// that should rank at the bottom, and far windows the prefilter
// prunes).
func writeGoldenCorpus(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(goldenSeed))
	if err := os.MkdirAll(goldenCorpus, 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("key,y_num,y_cat\n")
	for i := 0; i < 800; i++ {
		g := rng.Intn(80)
		fmt.Fprintf(&b, "k%03d,%.6f,cat%d\n", g, float64(g%9)+rng.NormFloat64(), (g+rng.Intn(3))%6)
	}
	if err := os.WriteFile(filepath.Join(goldenCorpus, "train.csv"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < goldenCandFiles; c++ {
		b.Reset()
		b.WriteString("key,x_num,x_cat\n")
		lo := c * 12 // windows slide from fully-overlapping to disjoint
		strength := float64(c % 4)
		for g := lo; g < lo+55; g++ {
			fmt.Fprintf(&b, "k%03d,%.6f,cat%d\n",
				g, strength*float64(g%9)+rng.NormFloat64(), (g+rng.Intn(2+c%3))%6)
		}
		name := fmt.Sprintf("c%02d.csv", c)
		if err := os.WriteFile(filepath.Join(goldenCorpus, name), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenStore ingests the committed corpus into a fresh store and
// returns it with the two train sketches.
func goldenStore(t *testing.T) (*Store, map[string]*Sketch) {
	t.Helper()
	return goldenStoreAt(t, t.TempDir())
}

func goldenStoreAt(t *testing.T, dir string) (*Store, map[string]*Sketch) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Size: goldenSketchSize}
	trainTb, err := ReadCSVFile(filepath.Join(goldenCorpus, "train.csv"))
	if err != nil {
		t.Fatal(err)
	}
	trains := make(map[string]*Sketch, 2)
	for _, target := range []string{"y_num", "y_cat"} {
		sk, err := SketchTrain(trainTb, "key", target, opt)
		if err != nil {
			t.Fatal(err)
		}
		trains[target] = sk
	}
	for c := 0; c < goldenCandFiles; c++ {
		file := fmt.Sprintf("c%02d.csv", c)
		tb, err := ReadCSVFile(filepath.Join(goldenCorpus, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"x_num", "x_cat"} {
			sk, err := SketchCandidate(tb, "key", col, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(fmt.Sprintf("golden/%s#%s@key", file, col), sk); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, trains
}

// computeGolden ranks both train targets over the corpus store —
// through the batch pipeline, whose results are asserted bit-identical
// to per-query RankQuery first — and groups each ranking by estimator
// family.
func computeGolden(t *testing.T, st *Store, trains map[string]*Sketch) goldenFile {
	t.Helper()
	ctx := context.Background()
	targets := []string{"y_num", "y_cat"}
	sks := make([]*Sketch, len(targets))
	for i, target := range targets {
		sks[i] = trains[target]
	}
	batch, err := RankBatch(ctx, st, sks, BatchRankOptions{
		MinJoinSize: goldenMinJoin, K: DefaultK,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := goldenFile{SketchSize: goldenSketchSize, MinJoin: goldenMinJoin, K: DefaultK}
	for i, target := range targets {
		direct, _, err := st.RankQuery(ctx, sks[i], RankOptions{MinJoinSize: goldenMinJoin, K: DefaultK})
		if err != nil {
			t.Fatal(err)
		}
		got := batch.Queries[i].Ranked
		if len(got) != len(direct) {
			t.Fatalf("%s: batch ranked %d, per-query %d", target, len(got), len(direct))
		}
		for j := range direct {
			if got[j].Name != direct[j].Name ||
				math.Float64bits(got[j].MI) != math.Float64bits(direct[j].MI) {
				t.Fatalf("%s rank[%d]: batch %+v != per-query %+v", target, j, got[j], direct[j])
			}
		}
		q := goldenQuery{Target: target, Pruned: batch.Queries[i].Pruned,
			Families: make(map[string][]goldenRecord)}
		for _, r := range direct {
			fam := string(r.Estimator)
			q.Families[fam] = append(q.Families[fam], goldenRecord{
				Name:     r.Name,
				MI:       r.MI,
				MIBits:   fmt.Sprintf("%016x", math.Float64bits(r.MI)),
				JoinSize: r.JoinSize,
			})
		}
		out.Queries = append(out.Queries, q)
	}
	return out
}

// TestGoldenRankingsIndexed re-runs the drift alarm against a sealed
// store: Close seals the segment and emits its inverted key index, so
// the reopened store answers through index-driven candidate selection
// — which must reproduce the committed rankings (and Pruned counts)
// bit for bit, exactly like the unsealed full-walk store.
func TestGoldenRankingsIndexed(t *testing.T) {
	if *updateGolden {
		t.Skip("golden regeneration runs through TestGoldenRankings")
	}
	dir := t.TempDir()
	st, trains := goldenStoreAt(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ss := st.Stats(); ss.IndexedSegments == 0 {
		t.Fatalf("sealed golden store carries no key index: %+v", ss)
	}
	got := computeGolden(t, st, trains)

	raw, err := os.ReadFile(goldenRankings)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("indexed rankings drifted from committed golden file:\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
	if skips := st.Stats().CandidatesSkippedNoDecode; skips == 0 {
		t.Fatal("indexed golden store never skipped a decode")
	}
}

// TestGoldenRankingsCompressed re-runs the drift alarm against an
// FSST-compressed store: the golden corpus is ingested, sealed, and
// compacted with Compression on, so every candidate decode routes
// through the per-segment dictionary decoder — which must reproduce the
// committed rankings (names, order, families, join sizes, MI bits)
// exactly, proving compression is invisible to the estimators.
func TestGoldenRankingsCompressed(t *testing.T) {
	if *updateGolden {
		t.Skip("golden regeneration runs through TestGoldenRankings")
	}
	dir := t.TempDir()
	st, trains := goldenStoreAt(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreWithOptions(dir, OpenStoreOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ss := st.Stats(); ss.CompressedSegments == 0 {
		t.Fatalf("compacted golden store is not compressed: %+v", ss)
	}
	got := computeGolden(t, st, trains)

	raw, err := os.ReadFile(goldenRankings)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("compressed rankings drifted from committed golden file:\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
}

// TestGoldenCascade extends the drift alarm to the two-tier cascade:
// over the committed golden corpus, top-K rankings with the cascade
// enabled must be bit-identical — names, order, estimator families,
// join sizes, MI bits — to the exact-only pass, for every train
// target, across top-K bounds and worker counts.
func TestGoldenCascade(t *testing.T) {
	if *updateGolden {
		t.Skip("golden regeneration runs through TestGoldenRankings")
	}
	st, trains := goldenStore(t)
	ctx := context.Background()
	for _, target := range []string{"y_num", "y_cat"} {
		sk := trains[target]
		for _, topK := range []int{1, 5, 50} {
			for _, workers := range []int{1, 4} {
				exact, _, err := st.RankQuery(ctx, sk, RankOptions{
					MinJoinSize: goldenMinJoin, K: DefaultK, TopK: topK,
					Workers: workers, NoCascade: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				cascade, _, err := st.RankQuery(ctx, sk, RankOptions{
					MinJoinSize: goldenMinJoin, K: DefaultK, TopK: topK,
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(exact) == 0 {
					t.Fatalf("%s topK=%d: exact pass ranked nothing", target, topK)
				}
				if len(cascade) != len(exact) {
					t.Fatalf("%s topK=%d workers=%d: cascade ranked %d, exact %d",
						target, topK, workers, len(cascade), len(exact))
				}
				for i := range exact {
					if cascade[i].Name != exact[i].Name ||
						cascade[i].Estimator != exact[i].Estimator ||
						cascade[i].JoinSize != exact[i].JoinSize ||
						math.Float64bits(cascade[i].MI) != math.Float64bits(exact[i].MI) {
						t.Fatalf("%s topK=%d workers=%d rank %d: cascade %+v != exact %+v",
							target, topK, workers, i, cascade[i], exact[i])
					}
				}
			}
		}
	}
}

// TestGoldenRankings compares the corpus rankings against the
// committed expectation, estimate by estimate and bit by bit.
func TestGoldenRankings(t *testing.T) {
	if *updateGolden {
		writeGoldenCorpus(t)
	}
	st, trains := goldenStore(t)
	got := computeGolden(t, st, trains)

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRankings, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d queries)", goldenRankings, len(got.Queries))
		return
	}

	raw, err := os.ReadFile(goldenRankings)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenRankings -update .` to generate)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.SketchSize != want.SketchSize || got.MinJoin != want.MinJoin || got.K != want.K {
		t.Fatalf("golden options drifted: got (%d,%d,%d), committed (%d,%d,%d)",
			got.SketchSize, got.MinJoin, got.K, want.SketchSize, want.MinJoin, want.K)
	}
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("%d queries, committed %d", len(got.Queries), len(want.Queries))
	}
	for i, wq := range want.Queries {
		gq := got.Queries[i]
		if gq.Target != wq.Target {
			t.Fatalf("query %d target %q, committed %q", i, gq.Target, wq.Target)
		}
		if gq.Pruned != wq.Pruned {
			t.Errorf("%s: prefilter pruned %d candidates, committed %d", wq.Target, gq.Pruned, wq.Pruned)
		}
		var wantFams, gotFams []string
		for f := range wq.Families {
			wantFams = append(wantFams, f)
		}
		for f := range gq.Families {
			gotFams = append(gotFams, f)
		}
		sort.Strings(wantFams)
		sort.Strings(gotFams)
		if strings.Join(gotFams, ",") != strings.Join(wantFams, ",") {
			t.Fatalf("%s: estimator families %v, committed %v", wq.Target, gotFams, wantFams)
		}
		for _, fam := range wantFams {
			wrs, grs := wq.Families[fam], gq.Families[fam]
			if len(grs) != len(wrs) {
				t.Fatalf("%s/%s: %d ranked, committed %d", wq.Target, fam, len(grs), len(wrs))
			}
			for j, wr := range wrs {
				gr := grs[j]
				if gr.Name != wr.Name {
					t.Errorf("%s/%s rank %d: order drifted, %q vs committed %q",
						wq.Target, fam, j, gr.Name, wr.Name)
					continue
				}
				if gr.MIBits != wr.MIBits {
					t.Errorf("%s/%s %s: estimate drifted, %v (bits %s) vs committed %v (bits %s)",
						wq.Target, fam, wr.Name, gr.MI, gr.MIBits, wr.MI, wr.MIBits)
				}
				if gr.JoinSize != wr.JoinSize {
					t.Errorf("%s/%s %s: join size drifted, %d vs committed %d",
						wq.Target, fam, wr.Name, gr.JoinSize, wr.JoinSize)
				}
			}
		}
	}
}

// TestGoldenSketchBytesPinned pins the SHA-256 of WriteSketch's bytes
// over every golden-corpus sketch — the two trains, then each stored
// candidate in name order — at the value older builds wrote: the MISK
// format does not drift.
func TestGoldenSketchBytesPinned(t *testing.T) {
	st, trains := goldenStore(t)
	defer st.Close()
	var all bytes.Buffer
	for _, target := range []string{"y_num", "y_cat"} {
		if err := WriteSketch(&all, trains[target]); err != nil {
			t.Fatal(err)
		}
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	for _, name := range names {
		sk, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSketch(&all, sk); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(all.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "da2ffaec268ebfda3124f338553c64f5f2ddb0c06d57d63f8d4e2243353633e8"; got != want {
		t.Errorf("golden sketch bytes digest %s over %d sketches, want %s", got, len(names)+2, want)
	}
}
