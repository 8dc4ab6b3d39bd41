package store

// Differential tests for the segment engine: the mmap-backed zero-copy
// ranking path must produce bit-for-bit the rankings of the same
// sketches served from memory — cold, warm, reopened, compacted and
// compressed — and opening must cost O(segment files), never
// O(sketches), in file opens, and verifying none.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"misketch/internal/core"
	"misketch/internal/mi"
)

// mixedCorpus builds a deterministic mixed corpus: numeric and
// categorical candidates over overlapping key universes, plus sketches
// an eligible query must skip (foreign seed, train role).
func mixedCorpus(t *testing.T) (train *core.Sketch, sketches map[string]*core.Sketch) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	sopt := core.Options{Method: core.TUPSK, Size: 256}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, sopt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(300)), rng.NormFloat64())
	}
	train = tb.Sketch()
	sketches = map[string]*core.Sketch{}
	for c := 0; c < 40; c++ {
		numeric := c%3 != 0
		cb, err := core.NewStreamBuilder(core.RoleCandidate, numeric, sopt)
		if err != nil {
			t.Fatal(err)
		}
		lo := (c * 13) % 200
		for g := lo; g < lo+150; g++ {
			if numeric {
				cb.AddNum(fmt.Sprintf("g%d", g), float64(g%9)+rng.NormFloat64())
			} else {
				cb.AddStr(fmt.Sprintf("g%d", g), fmt.Sprintf("c%d", g%7))
			}
		}
		sketches[fmt.Sprintf("corpus/t%02d#x", c)] = cb.Sketch()
	}
	foreign, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 256, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	foreign.AddNum("g1", 1)
	sketches["corpus/foreign#x"] = foreign.Sketch()
	sketches["corpus/train-role"] = train
	return train, sketches
}

// rankAll runs the same query (all candidates, then top-5) against a
// store and returns both results.
func rankAll(t *testing.T, st *Store, train *core.Sketch) (full, top []RankedSketch, skipped []string) {
	t.Helper()
	ctx := context.Background()
	full, skipped, err := st.RankQuery(ctx, train, RankOptions{Prefix: "corpus/", MinJoinSize: 20, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	top, _, err = st.RankQuery(ctx, train, RankOptions{Prefix: "corpus/", MinJoinSize: 20, K: mi.DefaultK, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return full, top, skipped
}

func rankingsBitEqual(t *testing.T, label string, got, want []RankedSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || math.Float64bits(g.MI) != math.Float64bits(w.MI) ||
			g.Estimator != w.Estimator || g.JoinSize != w.JoinSize {
			t.Fatalf("%s: rank %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestMigrationRankingsBitForBit follows one catalog through every state
// a store can hold it in — active segment, warm cache, sealed and
// reopened, compacted, compression-backfilled — and asserts each ranks
// bit-for-bit identically to the reference: the same sketches put into a
// second store, estimated by the same query.
func TestMigrationRankingsBitForBit(t *testing.T) {
	train, sketches := mixedCorpus(t)
	fill := func(st *Store) {
		for name, sk := range sketches {
			if err := st.Put(name, sk); err != nil {
				t.Fatal(err)
			}
		}
	}

	ref, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fill(ref)
	wantFull, wantTop, wantSkipped := rankAll(t, ref, train)
	if len(wantFull) == 0 || len(wantTop) != 5 || len(wantSkipped) != 2 {
		t.Fatalf("degenerate reference: %d full, %d top, %v skipped", len(wantFull), len(wantTop), wantSkipped)
	}
	same := func(label string, st *Store) {
		t.Helper()
		gotFull, gotTop, gotSkipped := rankAll(t, st, train)
		rankingsBitEqual(t, label+"-full", gotFull, wantFull)
		rankingsBitEqual(t, label+"-top", gotTop, wantTop)
		if len(gotSkipped) != len(wantSkipped) {
			t.Errorf("%s: skipped = %v, want %v", label, gotSkipped, wantSkipped)
		}
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(st)
	same("cold", st)
	same("warm", st) // cache hits on the first pass's decodes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	same("reopen", st2) // borrowed views out of the sealed mapping
	// Overwrite one sketch with itself so the pass has a dead record to
	// fold; the catalog's contents do not change.
	if err := st2.Put("corpus/t00#x", sketches["corpus/t00#x"]); err != nil {
		t.Fatal(err)
	}
	if cs, err := st2.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("compact = %+v, %v", cs, err)
	}
	same("compacted", st2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// And through a compression backfill: raw segments -> FSST-compressed
	// segments, still bit-identical to the reference.
	st3, err := OpenWithOptions(dir, OpenOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	if cs, err := st3.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("compression backfill = %+v, %v", cs, err)
	}
	if ss := st3.Stats(); ss.CompressedSegments == 0 {
		t.Fatalf("backfill left no compressed segment: %+v", ss)
	}
	same("compressed", st3)
}

// TestOpenCostIsIndependentOfSketchCount pins the open-count fix: a
// clean (flushed) store opens with file opens proportional to the segment
// count, not the sketch count, and verifies through the mappings it
// already holds, opening none.
func TestOpenCostIsIndependentOfSketchCount(t *testing.T) {
	countOpens := func(n int) (opens, verifyOpens int) {
		t.Helper()
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
		for i := 0; i < n; i++ {
			if err := st.Put(fmt.Sprintf("s%04d", i), sk); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		testHookFileOpen = func(string) { opens++ }
		st2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		testHookFileOpen = func(string) { verifyOpens++ }
		if err := st2.Verify(); err != nil {
			t.Fatal(err)
		}
		testHookFileOpen = nil
		if m, _ := st2.Len(); m != n {
			t.Fatalf("reopened store has %d sketches, want %d", m, n)
		}
		return opens, verifyOpens
	}
	smallOpen, smallVerify := countOpens(10)
	bigOpen, bigVerify := countOpens(300)
	if bigOpen != smallOpen {
		t.Errorf("open cost scales with sketches: %d opens at 300 vs %d at 10", bigOpen, smallOpen)
	}
	if smallVerify != 0 || bigVerify != 0 {
		t.Errorf("Verify opened %d files at 10 sketches and %d at 300; want 0", smallVerify, bigVerify)
	}
	// Both stores hold one segment + one manifest; a handful of opens.
	if bigOpen > 4 {
		t.Errorf("open performed %d file opens for a 1-segment store", bigOpen)
	}
}
