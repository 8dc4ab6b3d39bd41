package misketch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestStreamBuilderAPI(t *testing.T) {
	b, err := NewStreamBuilder(RoleTrain, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b.AddNum(fmt.Sprintf("k%d", rng.Intn(300)), rng.NormFloat64())
	}
	s := b.Sketch()
	if s.Method != TUPSK || s.Size != DefaultSketchSize {
		t.Errorf("defaults not applied: %v/%d", s.Method, s.Size)
	}
	if s.Len() == 0 {
		t.Error("empty streamed sketch")
	}
}

func TestSketchPersistenceAPI(t *testing.T) {
	train, cand := syntheticPair(t, 3000, 300)
	st, _ := SketchTrain(train, "key", "y", Options{})
	sc, _ := SketchCandidate(cand, "key", "x", Options{})

	// In-memory round trip.
	var buf bytes.Buffer
	if err := WriteSketch(&buf, st); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != st.Len() {
		t.Error("round trip size mismatch")
	}

	// File round trip, then estimate.
	dir := t.TempDir()
	p1 := filepath.Join(dir, "train.misk")
	p2 := filepath.Join(dir, "cand.misk")
	if err := SaveSketch(p1, st); err != nil {
		t.Fatal(err)
	}
	if err := SaveSketch(p2, sc); err != nil {
		t.Fatal(err)
	}
	lst, err := LoadSketch(p1)
	if err != nil {
		t.Fatal(err)
	}
	lsc, err := LoadSketch(p2)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := EstimateMI(st, sc)
	loaded, err := EstimateMI(lst, lsc)
	if err != nil {
		t.Fatal(err)
	}
	if direct.MI != loaded.MI {
		t.Errorf("estimate changed across persistence: %v vs %v", direct.MI, loaded.MI)
	}
	if _, err := LoadSketch(filepath.Join(dir, "missing.misk")); err == nil {
		t.Error("missing file should error")
	}
}

func TestStoreAPIEndToEnd(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train, _ := syntheticPair(t, 4000, 300)
	trainSk, _ := SketchTrain(train, "key", "y", Options{})

	// Ingest three candidates of decreasing usefulness.
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name string
		f    func(g int) float64
	}{
		{"exact#x", func(g int) float64 { return float64(g % 5) }},
		{"noisy#x", func(g int) float64 { return float64(g%5) + 4*rng.NormFloat64() }},
		{"noise#x", func(g int) float64 { return rng.NormFloat64() }},
	} {
		var b strings.Builder
		b.WriteString("key,x\n")
		for g := 0; g < 300; g++ {
			fmt.Fprintf(&b, "g%d,%g\n", g, c.f(g))
		}
		tb, _ := ReadCSV(strings.NewReader(b.String()))
		sk, err := SketchCandidate(tb, "key", "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(c.name, sk); err != nil {
			t.Fatal(err)
		}
	}
	ranked, skipped, err := st.RankQuery(context.Background(), trainSk, RankOptions{MinJoinSize: 100, K: DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("skipped: %v", skipped)
	}
	if len(ranked) != 3 || ranked[0].Name != "exact#x" || ranked[2].Name != "noise#x" {
		t.Errorf("ranking wrong: %+v", ranked)
	}
}

func TestStoreOptionsAndTopKAPI(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreWithOptions(dir, OpenStoreOptions{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := syntheticPair(t, 4000, 300)
	trainSk, err := SketchTrain(train, "key", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8; i++ {
		noise := float64(i)
		var b strings.Builder
		b.WriteString("key,x\n")
		for g := 0; g < 300; g++ {
			fmt.Fprintf(&b, "g%d,%g\n", g, float64(g%5)+noise*rng.NormFloat64())
		}
		tb, _ := ReadCSV(strings.NewReader(b.String()))
		sk, err := SketchCandidate(tb, "key", "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(fmt.Sprintf("cand%02d#x", i), sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold: the manifest-backed index serves the same catalog.
	cold, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := cold.RankQuery(context.Background(), trainSk, RankOptions{MinJoinSize: 100, K: DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	top3, _, err := cold.RankQuery(context.Background(), trainSk, RankOptions{MinJoinSize: 100, K: DefaultK, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) != 3 {
		t.Fatalf("topK = %d results", len(top3))
	}
	for i := range top3 {
		if top3[i] != full[i] {
			t.Errorf("top-K[%d] = %+v, full[%d] = %+v", i, top3[i], i, full[i])
		}
	}
	if meta, ok := cold.Meta("cand00#x"); !ok || meta.Entries == 0 {
		t.Errorf("manifest metadata missing: %+v (ok=%v)", meta, ok)
	}
	if stats := cold.Stats(); stats.Sketches != 8 || stats.DiskReads == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestCompositeKeyAPI(t *testing.T) {
	tb := NewTable(
		NewStringColumn("date", []string{"d1", "d1", "d2"}),
		NewStringColumn("zip", []string{"a", "b", "a"}),
		NewFloatColumn("y", []float64{1, 2, 3}),
	)
	t2, err := WithCompositeKey(tb, "_key", []string{"date", "zip"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SketchTrain(t2, "_key", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("sketch len = %d", s.Len())
	}
}

func TestEstimateMIWithCIAPI(t *testing.T) {
	train, cand := syntheticPair(t, 8000, 400)
	st, _ := SketchTrain(train, "key", "y", Options{})
	sc, _ := SketchCandidate(cand, "key", "x", Options{})
	res, ci, err := EstimateMIWithCI(st, sc, 40, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > res.MI || ci.Hi < res.MI {
		t.Errorf("estimate %v outside its interval [%v, %v]", res.MI, ci.Lo, ci.Hi)
	}
	if ci.Lo < 0 {
		t.Error("MI interval must be clamped at 0")
	}
	if ci.Level != 0.9 {
		t.Error("level not recorded")
	}
	// Seed mismatch surfaces as an error, not a panic.
	bad, _ := SketchCandidate(cand, "key", "x", Options{Seed: 99})
	if _, _, err := EstimateMIWithCI(st, bad, 10, 0.9, 1); err == nil {
		t.Error("seed mismatch should error")
	}
}
