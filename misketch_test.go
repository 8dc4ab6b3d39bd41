package misketch

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempCSV writes a CSV file and returns its path.
func writeTempCSV(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadCSVFile(t *testing.T) {
	path := writeTempCSV(t, "t.csv", "zip,trips\n11201,136\n10011,112\n")
	tb, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.Column("trips") == nil {
		t.Error("CSV parse failed")
	}
	if _, err := ReadCSVFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
	bad := writeTempCSV(t, "bad.csv", "")
	if _, err := ReadCSVFile(bad); err == nil || !strings.Contains(err.Error(), "bad.csv") {
		t.Errorf("error should name the file: %v", err)
	}
}

// syntheticPair creates train/cand CSV-equivalent tables where the
// candidate feature determines the target.
func syntheticPair(t *testing.T, n, groups int) (*Table, *Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var trainCSV strings.Builder
	trainCSV.WriteString("key,y\n")
	for i := 0; i < n; i++ {
		g := rng.Intn(groups)
		fmt.Fprintf(&trainCSV, "g%d,%d\n", g, g%5)
	}
	var candCSV strings.Builder
	candCSV.WriteString("key,x\n")
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&candCSV, "g%d,%d\n", g, g%5)
	}
	train, err := ReadCSV(strings.NewReader(trainCSV.String()))
	if err != nil {
		t.Fatal(err)
	}
	cand, err := ReadCSV(strings.NewReader(candCSV.String()))
	if err != nil {
		t.Fatal(err)
	}
	return train, cand
}

func TestEndToEndEstimate(t *testing.T) {
	train, cand := syntheticPair(t, 6000, 400)
	st, err := SketchTrain(train, "key", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := SketchCandidate(cand, "key", "x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateMI(st, sc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullJoinMI(train, "key", "y", cand, "key", "x", AggFirst)
	if err != nil {
		t.Fatal(err)
	}
	// x determines y (both are g mod 5): MI ≈ H ≈ ln 5 on the full join,
	// and the sketch estimate should track it.
	if math.Abs(full.MI-math.Log(5)) > 0.1 {
		t.Errorf("full MI = %v, want about ln5", full.MI)
	}
	if math.Abs(res.MI-full.MI) > 0.4 {
		t.Errorf("sketch MI = %v vs full %v", res.MI, full.MI)
	}
}

func TestOptionsDefaults(t *testing.T) {
	train, _ := syntheticPair(t, 500, 50)
	s, err := SketchTrain(train, "key", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Method != TUPSK {
		t.Errorf("default method = %v, want TUPSK", s.Method)
	}
	if s.Size != DefaultSketchSize {
		t.Errorf("default size = %d", s.Size)
	}
}

func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, groups = 6000, 500
	var trainCSV strings.Builder
	trainCSV.WriteString("key,y\n")
	ys := make(map[int]float64, groups)
	for g := 0; g < groups; g++ {
		ys[g] = float64(g % 7)
	}
	for i := 0; i < n; i++ {
		g := rng.Intn(groups)
		fmt.Fprintf(&trainCSV, "g%d,%g\n", g, ys[g])
	}
	train, err := ReadCSV(strings.NewReader(trainCSV.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := SketchTrain(train, "key", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Three candidates: informative, partially informative, and noise.
	mkCand := func(f func(g int) float64) *Sketch {
		var b strings.Builder
		b.WriteString("key,x\n")
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, "g%d,%g\n", g, f(g))
		}
		tb, err := ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := SketchCandidate(tb, "key", "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cands := []Candidate{
		{Name: "noise", Sketch: mkCand(func(g int) float64 { return rng.NormFloat64() })},
		{Name: "exact", Sketch: mkCand(func(g int) float64 { return ys[g] })},
		{Name: "partial", Sketch: mkCand(func(g int) float64 { return ys[g] + 2*rng.NormFloat64() })},
	}
	ranked, err := Rank(st, cands, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d candidates", len(ranked))
	}
	if ranked[0].Name != "exact" {
		t.Errorf("best candidate = %s, want exact (ranking: %+v)", ranked[0].Name, ranked)
	}
	if ranked[2].Name != "noise" {
		t.Errorf("worst candidate = %s, want noise", ranked[2].Name)
	}
	// The filter drops candidates with tiny sketch joins.
	none, err := Rank(st, cands, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Error("min join filter not applied")
	}
}

func TestSeedMismatchSurfaces(t *testing.T) {
	train, cand := syntheticPair(t, 500, 50)
	st, _ := SketchTrain(train, "key", "y", Options{Seed: 1})
	sc, _ := SketchCandidate(cand, "key", "x", Options{Seed: 2})
	if _, err := EstimateMI(st, sc); err == nil {
		t.Error("seed mismatch should error")
	}
}

func TestRankSmoothed(t *testing.T) {
	// Discrete target; null candidates with high cardinality fool the raw
	// MLE but not the smoothed ranking.
	rng := rand.New(rand.NewSource(31))
	const groups = 1500
	var trainCSV strings.Builder
	trainCSV.WriteString("key,y\n")
	for i := 0; i < 9000; i++ {
		g := rng.Intn(groups)
		fmt.Fprintf(&trainCSV, "g%d,y%d\n", g, g%4)
	}
	train, err := ReadCSV(strings.NewReader(trainCSV.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := SketchTrain(train, "key", "y", Options{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	mkCand := func(f func(g int) string) *Sketch {
		var b strings.Builder
		b.WriteString("key,x\n")
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, "g%d,%s\n", g, f(g))
		}
		tb, _ := ReadCSV(strings.NewReader(b.String()))
		// Candidate sketches sized to retain every key: only the train
		// side needs sampling, and the sketch join recovers all 256
		// train entries (see the candidate-size ablation in
		// EXPERIMENTS.md).
		s, err := SketchCandidate(tb, "key", "x", Options{Size: 2048})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cands := []Candidate{
		{Name: "signal", Sketch: mkCand(func(g int) string { return fmt.Sprintf("x%d", g%4) })},
		{Name: "highcard-null", Sketch: mkCand(func(g int) string { return fmt.Sprintf("n%d", rng.Intn(400)) })},
	}
	smoothed, err := RankSmoothed(st, cands, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(smoothed) != 2 || smoothed[0].Name != "signal" {
		t.Fatalf("smoothed ranking wrong: %+v", smoothed)
	}
	// The null's smoothed score must be a small fraction of the signal's.
	if smoothed[1].MI > 0.3*smoothed[0].MI {
		t.Errorf("null score %.3f not suppressed vs signal %.3f", smoothed[1].MI, smoothed[0].MI)
	}
	// Filter behaves as in Rank.
	none, err := RankSmoothed(st, cands, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Error("min join filter not applied")
	}
}

func TestReadCSVMalformedHeaderIsAnError(t *testing.T) {
	// A file's header reaches NewTable's duplicate-name panic only
	// through ReadCSV, which must turn it into an error for the caller
	// (`store ingest` skips the file, /v1/sketch answers 400).
	for _, in := range []string{"key,a,a\n1,2,3\n", "key,,a\n1,2,3\n", "key,,\n1,2,3\n"} {
		if tb, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) = %v, want an error", in, tb.ColumnNames())
		}
	}
	path := writeTempCSV(t, "dup.csv", "key,a,a\n1,2,3\n")
	if _, err := ReadCSVFile(path); err == nil || !strings.Contains(err.Error(), "dup.csv") {
		t.Errorf("ReadCSVFile: err %v, want one naming the file", err)
	}
	// A byte-order mark is not part of the first column's name.
	tb, err := ReadCSV(strings.NewReader("\ufeffkey,v\nk1,2\n"))
	if err != nil || tb.Column("key") == nil {
		t.Errorf("BOM-prefixed CSV: columns %v, err %v", tb.ColumnNames(), err)
	}
}
