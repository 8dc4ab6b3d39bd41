package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"misketch/internal/mi"
	"misketch/internal/stats"
	"misketch/internal/table"
)

// makeTrainTable builds a train table with the given key and target values.
func makeTrainTable(keys []string, ys []float64) *table.Table {
	return table.New(
		table.NewStringColumn("k", keys),
		table.NewFloatColumn("y", ys),
	)
}

// makeCandTable builds a candidate table mapping keys to feature values.
func makeCandTable(keys []string, xs []float64) *table.Table {
	return table.New(
		table.NewStringColumn("k", keys),
		table.NewFloatColumn("x", xs),
	)
}

// uniqueKeyTables builds a pair of tables joined one-to-one by unique keys,
// with y = x so the joined MI is maximal.
func uniqueKeyTables(n int, rng *rand.Rand) (*table.Table, *table.Table) {
	keys := make([]string, n)
	ys := make([]float64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		ys[i] = rng.NormFloat64()
	}
	return makeTrainTable(keys, ys), makeCandTable(keys, ys)
}

func buildOrDie(t *testing.T, tb *table.Table, key, val string, role Role, opt Options) *Sketch {
	t.Helper()
	s, err := Build(tb, key, val, role, opt)
	if err != nil {
		t.Fatalf("Build(%v, role=%d): %v", opt.Method, role, err)
	}
	return s
}

func TestSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Skewed keys: key z repeats heavily.
	var keys []string
	var ys []float64
	for i := 0; i < 2000; i++ {
		if i%4 == 0 {
			keys = append(keys, fmt.Sprintf("k%d", i))
		} else {
			keys = append(keys, "zz")
		}
		ys = append(ys, rng.NormFloat64())
	}
	train := makeTrainTable(keys, ys)
	const n = 64
	for _, m := range Methods {
		s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: m, Size: n, RNGSeed: 7})
		bound := n
		if m == LV2SK || m == PRISK {
			bound = 2 * n
		}
		if s.Len() > bound {
			t.Errorf("%s: size %d exceeds bound %d", m, s.Len(), bound)
		}
		if s.Len() == 0 {
			t.Errorf("%s: empty sketch", m)
		}
	}
}

func TestTUPSKExactSize(t *testing.T) {
	// TUPSK stores exactly min(n, N) entries.
	rng := rand.New(rand.NewSource(2))
	train, _ := uniqueKeyTables(1000, rng)
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 256})
	if s.Len() != 256 {
		t.Errorf("TUPSK size = %d, want 256", s.Len())
	}
	small := buildOrDie(t, makeTrainTable([]string{"a", "b"}, []float64{1, 2}), "k", "y",
		RoleTrain, Options{Method: TUPSK, Size: 256})
	if small.Len() != 2 {
		t.Errorf("TUPSK small size = %d, want 2", small.Len())
	}
}

func TestLV2SKAtLeastNWhenEnoughKeys(t *testing.T) {
	// The paper: Σ n_k ≥ n whenever the number of distinct keys ≥ n.
	rng := rand.New(rand.NewSource(3))
	train, _ := uniqueKeyTables(500, rng)
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: LV2SK, Size: 128, RNGSeed: 1})
	if s.Len() < 128 {
		t.Errorf("LV2SK size = %d, want >= 128", s.Len())
	}
}

func TestLV2SKFrequencyProportionality(t *testing.T) {
	// For keys selected in level 1, sketch frequency tracks table
	// frequency: with fewer distinct keys than n, every key is selected
	// and a key holding half the table gets n_k ≈ n/2 sketch entries.
	// (Level-1 selection itself ignores frequency — that is exactly the
	// limitation Section IV-B criticizes and TestTUPSKUniformInclusion
	// contrasts.)
	rng := rand.New(rand.NewSource(4))
	var keys []string
	var ys []float64
	const total = 4000
	for i := 0; i < total; i++ {
		if i < total/2 {
			keys = append(keys, "heavy")
		} else {
			keys = append(keys, fmt.Sprintf("k%d", i%50)) // 50 light keys
		}
		ys = append(ys, rng.NormFloat64())
	}
	train := makeTrainTable(keys, ys)
	const n = 64 // 51 distinct keys < n, so level 1 keeps them all
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: LV2SK, Size: n, RNGSeed: 2})
	heavyHash := keyHashOf(t, "heavy")
	heavyCount := 0
	for _, hk := range s.KeyHashes {
		if hk == heavyHash {
			heavyCount++
		}
	}
	if heavyCount != n/2 {
		t.Errorf("heavy key has %d of %d entries, want %d", heavyCount, s.Len(), n/2)
	}
}

func keyHashOf(t *testing.T, k string) uint32 {
	t.Helper()
	tb := table.New(table.NewStringColumn("k", []string{k}), table.NewFloatColumn("y", []float64{1}))
	s, err := Build(tb, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s.KeyHashes[0]
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, cand := uniqueKeyTables(500, rng)
	for _, m := range Methods {
		opt := Options{Method: m, Size: 64, RNGSeed: 99}
		a := buildOrDie(t, train, "k", "y", RoleTrain, opt)
		b := buildOrDie(t, train, "k", "y", RoleTrain, opt)
		if a.Len() != b.Len() {
			t.Fatalf("%s: nondeterministic size", m)
		}
		for i := range a.KeyHashes {
			if a.KeyHashes[i] != b.KeyHashes[i] || a.Nums[i] != b.Nums[i] {
				t.Fatalf("%s: nondeterministic entries", m)
			}
		}
		_ = cand
	}
}

func TestCoordinationOnUniqueKeys(t *testing.T) {
	// With unique join keys, coordinated methods must select the same keys
	// from both tables, so the sketch join recovers the full n samples.
	rng := rand.New(rand.NewSource(6))
	train, cand := uniqueKeyTables(5000, rng)
	const n = 256
	for _, m := range []Method{TUPSK, LV2SK, PRISK, CSK} {
		opt := Options{Method: m, Size: n, RNGSeed: 3}
		st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
		sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
		js, err := Join(st, sc)
		if err != nil {
			t.Fatal(err)
		}
		if js.Size != n {
			t.Errorf("%s: join size = %d, want %d (full coordination)", m, js.Size, n)
		}
		// y = x in this fixture, so every joined pair must agree.
		for i := range js.Y.Num {
			if js.Y.Num[i] != js.X.Num[i] {
				t.Fatalf("%s: join matched wrong rows", m)
			}
		}
	}
}

func TestINDSKJoinIsSmall(t *testing.T) {
	// Independent sampling matches keys only by chance: expected join size
	// is about n²/N ≪ n.
	rng := rand.New(rand.NewSource(7))
	train, cand := uniqueKeyTables(5000, rng)
	const n = 256
	opt := Options{Method: INDSK, Size: n, RNGSeed: 4}
	st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
	sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
	js, err := Join(st, sc)
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(n) * float64(n) / 5000 // ≈ 13
	if float64(js.Size) > 5*expected {
		t.Errorf("INDSK join size = %d, want about %.0f", js.Size, expected)
	}
}

func TestTUPSKUniformInclusion(t *testing.T) {
	// The headline property (Section IV-B): every row has the same
	// inclusion probability, regardless of its key's frequency. Build a
	// table where key "f" covers 95% of rows and check inclusion rates of
	// heavy-key rows vs light-key rows. TUPSK's hash is deterministic, so
	// randomize over seeds.
	const rows = 400
	const n = 40
	var keys []string
	var ys []float64
	for i := 0; i < rows; i++ {
		if i < 20 {
			keys = append(keys, fmt.Sprintf("light%d", i))
		} else {
			keys = append(keys, "f")
		}
		ys = append(ys, float64(i))
	}
	train := makeTrainTable(keys, ys)
	lightIncl, heavyIncl := 0, 0
	const trials = 300
	for seed := uint32(1); seed <= trials; seed++ {
		s, err := Build(train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Nums {
			if v < 20 {
				lightIncl++
			} else {
				heavyIncl++
			}
		}
	}
	// Under uniform inclusion: light rows contribute 20/400 of entries,
	// heavy rows 380/400.
	lightRate := float64(lightIncl) / float64(trials*n)
	if math.Abs(lightRate-20.0/400) > 0.015 {
		t.Errorf("light-row share = %.4f, want 0.05 (uniform inclusion)", lightRate)
	}
	heavyRate := float64(heavyIncl) / float64(trials*n)
	if math.Abs(heavyRate-380.0/400) > 0.015 {
		t.Errorf("heavy-row share = %.4f, want 0.95", heavyRate)
	}
}

// TestPaperSection4BExample reproduces the adversarial example from
// Section IV-B: K_Y = [a,b,c,d,e,f,f,...,f], Y = [0,0,0,0,0,1,2,...,95].
// A size-5 LV2SK sketch that picks keys {a..e} yields a constant Y sample
// with zero entropy (and hence zero MI against anything), while TUPSK's
// row-level sampling keeps Y diverse.
func TestPaperSection4BExample(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	ys := []float64{0, 0, 0, 0, 0}
	for i := 1; i <= 95; i++ {
		keys = append(keys, "f")
		ys = append(ys, float64(i))
	}
	train := makeTrainTable(keys, ys)

	// Find a hash seed under which LV2SK's first level selects exactly
	// {a,b,c,d,e} (the adversarial outcome the paper describes; it has
	// probability 1/6 per random seed, since it happens whenever f does
	// not land among the 5 minimum key hashes of the 6 keys).
	var lvSketch *Sketch
	found := false
	for seed := uint32(1); seed < 4000 && !found; seed++ {
		s, err := Build(train, "k", "y", RoleTrain, Options{Method: LV2SK, Size: 5, Seed: seed, RNGSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hasF := false
		for _, v := range s.Nums {
			if v != 0 {
				hasF = true
			}
		}
		if !hasF {
			lvSketch = s
			found = true
		}
	}
	if !found {
		t.Fatal("no seed produced the adversarial LV2SK selection; the 5-of-6-keys event has probability 1/6 per seed")
	}
	// The LV2SK sample of Y is constant: entropy 0, so MI against any X is 0.
	strY := make([]string, len(lvSketch.Nums))
	for i, v := range lvSketch.Nums {
		strY[i] = fmt.Sprintf("%g", v)
	}
	if h := stats.EntropyMLE(strY); h != 0 {
		t.Errorf("adversarial LV2SK sample entropy = %v, want 0", h)
	}

	// TUPSK at the same size samples rows uniformly: P[all 5 from the
	// zero block] is (5/100)^5 ≈ 3e-7, so across seeds the sample is
	// essentially never constant and mostly f-rows.
	nonZero := 0
	total := 0
	for seed := uint32(1); seed <= 50; seed++ {
		s, err := Build(train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Nums {
			total++
			if v != 0 {
				nonZero++
			}
		}
	}
	rate := float64(nonZero) / float64(total)
	if rate < 0.85 { // true row share of f is 0.95
		t.Errorf("TUPSK sampled non-zero rows at rate %.3f, want about 0.95", rate)
	}
}

func TestCandidateAggregation(t *testing.T) {
	// Candidate sketches aggregate repeated keys with AGG before sampling.
	cand := makeCandTable(
		[]string{"a", "b", "b", "b"},
		[]float64{1, 2, 2, 5},
	)
	s := buildOrDie(t, cand, "k", "x", RoleCandidate,
		Options{Method: TUPSK, Size: 10, Agg: table.AggAvg})
	if s.Len() != 2 {
		t.Fatalf("candidate sketch size = %d, want 2 (unique keys)", s.Len())
	}
	got := map[uint32]float64{}
	for i, hk := range s.KeyHashes {
		got[hk] = s.Nums[i]
	}
	aHash, bHash := keyHashOf(t, "a"), keyHashOf(t, "b")
	if got[aHash] != 1 || got[bHash] != 3 {
		t.Errorf("aggregated values = %v", got)
	}
}

func TestCSKKeepsFirstSeen(t *testing.T) {
	// CSK does not aggregate: it stores the first value seen per key.
	cand := makeCandTable(
		[]string{"a", "b", "b", "b"},
		[]float64{1, 7, 2, 5},
	)
	s := buildOrDie(t, cand, "k", "x", RoleCandidate, Options{Method: CSK, Size: 10})
	if s.Len() != 2 {
		t.Fatalf("CSK size = %d, want 2", s.Len())
	}
	bHash := keyHashOf(t, "b")
	for i, hk := range s.KeyHashes {
		if hk == bHash && s.Nums[i] != 7 {
			t.Errorf("CSK kept %v for key b, want first-seen 7", s.Nums[i])
		}
	}
}

func TestNullRowsSkipped(t *testing.T) {
	train := table.New(
		table.NewStringColumn("k", []string{"a", "", "c", "d"}),
		table.NewFloatColumn("y", []float64{1, 2, math.NaN(), 4}),
	)
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 10})
	if s.SourceRows != 2 || s.Len() != 2 {
		t.Errorf("sourceRows=%d len=%d, want 2/2", s.SourceRows, s.Len())
	}
}

func TestJoinSeedMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train, cand := uniqueKeyTables(50, rng)
	a := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 10, Seed: 1})
	b := buildOrDie(t, cand, "k", "x", RoleCandidate, Options{Method: TUPSK, Size: 10, Seed: 2})
	if _, err := Join(a, b); err == nil {
		t.Error("expected seed-mismatch error")
	}
}

func TestJoinRejectsDuplicateCandKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train, _ := uniqueKeyTables(50, rng)
	a := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 10})
	bad := &Sketch{Seed: a.Seed, Numeric: true, KeyHashes: []uint32{1, 1}, Nums: []float64{1, 2}}
	if _, err := Join(a, bad); err == nil {
		t.Error("expected duplicate-key error")
	}
}

func TestBuildErrors(t *testing.T) {
	tb := makeTrainTable([]string{"a"}, []float64{1})
	if _, err := Build(tb, "k", "y", RoleTrain, Options{Method: "bogus", Size: 10}); err == nil {
		t.Error("unknown method should error")
	}
	if _, err := Build(tb, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 0}); err == nil {
		t.Error("zero size should error")
	}
	if _, err := Build(tb, "zzz", "y", RoleTrain, Options{Method: TUPSK, Size: 1}); err == nil {
		t.Error("missing column should error")
	}
}

func TestEstimateMIRecoversStrongDependence(t *testing.T) {
	// End-to-end: y deterministically depends on the candidate feature.
	rng := rand.New(rand.NewSource(10))
	const rows = 8000
	keys := make([]string, rows)
	ys := make([]float64, rows)
	candKeys := make([]string, 0)
	candXs := make([]float64, 0)
	seen := map[string]bool{}
	for i := range keys {
		g := rng.Intn(500)
		keys[i] = fmt.Sprintf("g%d", g)
		x := float64(g % 8)
		ys[i] = x // y equals the feature
		if !seen[keys[i]] {
			seen[keys[i]] = true
			candKeys = append(candKeys, keys[i])
			candXs = append(candXs, x)
		}
	}
	train := makeTrainTable(keys, ys)
	cand := makeCandTable(candKeys, candXs)
	truth := math.Log(8) // H(X) for 8 equiprobable values

	full, err := FullJoinMI(train, "k", "y", cand, "k", "x", table.AggFirst, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.MI-truth) > 0.1 {
		t.Fatalf("full-join MI = %v, want about %v", full.MI, truth)
	}
	for _, m := range []Method{TUPSK, LV2SK} {
		opt := Options{Method: m, Size: 512, RNGSeed: 5}
		st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
		sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
		r, err := EstimateMI(st, sc, mi.DefaultK)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.MI-full.MI) > 0.4 {
			t.Errorf("%s sketch MI = %v, full-join MI = %v", m, r.MI, full.MI)
		}
	}
}

func TestEstimateMIIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows = 8000
	keys := make([]string, rows)
	ys := make([]float64, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("g%d", rng.Intn(1000))
		ys[i] = rng.NormFloat64()
	}
	candKeys := make([]string, 1000)
	candXs := make([]float64, 1000)
	for i := range candKeys {
		candKeys[i] = fmt.Sprintf("g%d", i)
		candXs[i] = rng.NormFloat64() // independent of y
	}
	train := makeTrainTable(keys, ys)
	cand := makeCandTable(candKeys, candXs)
	opt := Options{Method: TUPSK, Size: 512, RNGSeed: 6}
	st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
	sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
	r, err := EstimateMI(st, sc, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	if r.MI > 0.25 {
		t.Errorf("independent columns: sketch MI = %v, want near 0", r.MI)
	}
}

func TestStringFeaturePipeline(t *testing.T) {
	// Discrete-discrete path end to end (MLE estimator).
	rng := rand.New(rand.NewSource(12))
	const rows = 4000
	keys := make([]string, rows)
	ysStr := make([]string, rows)
	for i := range keys {
		g := rng.Intn(300)
		keys[i] = fmt.Sprintf("z%d", g)
		ysStr[i] = fmt.Sprintf("label%d", g%4)
	}
	train := table.New(
		table.NewStringColumn("k", keys),
		table.NewStringColumn("y", ysStr),
	)
	candKeys := make([]string, 300)
	candXs := make([]string, 300)
	for i := range candKeys {
		candKeys[i] = fmt.Sprintf("z%d", i)
		candXs[i] = fmt.Sprintf("cat%d", i%4)
	}
	cand := table.New(
		table.NewStringColumn("k", candKeys),
		table.NewStringColumn("x", candXs),
	)
	opt := Options{Method: TUPSK, Size: 512, Agg: table.AggMode}
	st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
	sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
	r, err := EstimateMI(st, sc, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimator != mi.EstMLE {
		t.Errorf("estimator = %s, want MLE", r.Estimator)
	}
	// y and x are both g mod 4, so MI should be near ln 4.
	if math.Abs(r.MI-math.Log(4)) > 0.25 {
		t.Errorf("MI = %v, want about ln4 = %v", r.MI, math.Log(4))
	}
}

func TestJoinEmptyResult(t *testing.T) {
	a := &Sketch{Seed: 1, Numeric: true, KeyHashes: []uint32{1}, Nums: []float64{1}}
	b := &Sketch{Seed: 1, Numeric: true, KeyHashes: []uint32{2}, Nums: []float64{2}}
	js, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if js.Size != 0 {
		t.Errorf("join size = %d, want 0", js.Size)
	}
	// Estimation on an empty join must not panic and yields 0.
	r := mi.Estimate(js.Y, js.X, 3)
	if r.MI != 0 {
		t.Errorf("empty-join MI = %v", r.MI)
	}
}

func TestNullAsCategoryPolicy(t *testing.T) {
	train := table.New(
		table.NewStringColumn("k", []string{"a", "b", "c", "d"}),
		table.NewStringColumn("y", []string{"u", "", "v", ""}),
	)
	// Default policy drops NULL-valued rows.
	drop := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 10})
	if drop.SourceRows != 2 {
		t.Errorf("NullDrop kept %d rows, want 2", drop.SourceRows)
	}
	// NullAsCategory keeps them with the sentinel label.
	keep := buildOrDie(t, train, "k", "y", RoleTrain,
		Options{Method: TUPSK, Size: 10, Nulls: NullAsCategory})
	if keep.SourceRows != 4 {
		t.Errorf("NullAsCategory kept %d rows, want 4", keep.SourceRows)
	}
	nulls := 0
	for _, v := range keep.Strs {
		if v == NullCategory {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("found %d sentinel values, want 2", nulls)
	}
	// Numeric columns cannot use the policy.
	numT := makeTrainTable([]string{"a"}, []float64{1})
	if _, err := Build(numT, "k", "y", RoleTrain,
		Options{Method: TUPSK, Size: 10, Nulls: NullAsCategory}); err == nil {
		t.Error("NullAsCategory on numeric column should error")
	}
	// Streaming obeys the same policy.
	sb, err := NewStreamBuilder(RoleTrain, false, Options{Method: TUPSK, Size: 10, Nulls: NullAsCategory})
	if err != nil {
		t.Fatal(err)
	}
	sb.AddStr("a", "")
	sb.AddStr("b", "x")
	if sb.Rows() != 2 {
		t.Errorf("streaming kept %d rows, want 2", sb.Rows())
	}
	if _, err := NewStreamBuilder(RoleTrain, true, Options{Method: TUPSK, Size: 10, Nulls: NullAsCategory}); err == nil {
		t.Error("numeric streaming NullAsCategory should error")
	}
}

func TestNullAsCategoryInformativeMissingness(t *testing.T) {
	// Missingness correlated with the target: dropping NULLs hides the
	// signal that the NULL category carries.
	rng := rand.New(rand.NewSource(21))
	var keys, ys []string
	var candKeys, xs []string
	for g := 0; g < 600; g++ {
		k := fmt.Sprintf("g%d", g)
		candKeys = append(candKeys, k)
		if g%2 == 0 {
			xs = append(xs, "") // missing exactly when the target is "even"
		} else {
			xs = append(xs, fmt.Sprintf("v%d", rng.Intn(3)))
		}
		for r := 0; r < 8; r++ {
			keys = append(keys, k)
			ys = append(ys, fmt.Sprintf("%d", g%2))
		}
	}
	train := table.New(table.NewStringColumn("k", keys), table.NewStringColumn("y", ys))
	cand := table.New(table.NewStringColumn("k", candKeys), table.NewStringColumn("x", xs))
	opt := Options{Method: TUPSK, Size: 512, Nulls: NullAsCategory, Agg: table.AggMode}
	st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
	sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
	r, err := EstimateMI(st, sc, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	// X = <null> iff y = 0, so I(X;Y) = H(Y) = ln 2.
	if math.Abs(r.MI-math.Ln2) > 0.15 {
		t.Errorf("informative missingness MI = %v, want about ln2", r.MI)
	}
}

// numValOrderReference is NumValOrder as it was first written (a
// sort.Slice over entry indices): the order the packed format stores and
// every rank tier consumes, kept here as the oracle for the typed sort.
func numValOrderReference(nums []float64) []int32 {
	order := make([]int32, len(nums))
	for i := range order {
		if math.IsNaN(nums[i]) {
			return nil
		}
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := nums[order[a]], nums[order[b]]
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})
	return order
}

// TestNumValOrderMatchesReference pins "ascending value, ties by
// ascending entry index" on the inputs where a sort can go wrong: heavy
// ties, signed zeros (equal as values, so ordered by index), ±Inf,
// subnormals, and NaN (no order at all).
func TestNumValOrderMatchesReference(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 1, 2.5, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		nums := make([]float64, rng.Intn(400))
		for i := range nums {
			switch trial % 3 {
			case 0: // tie-heavy and special values only
				nums[i] = pool[rng.Intn(len(pool))]
			case 1: // few distinct values
				nums[i] = float64(rng.Intn(5)) - 2
			default: // continuous with the occasional special value
				nums[i] = rng.NormFloat64()
				if rng.Intn(10) == 0 {
					nums[i] = pool[rng.Intn(len(pool))]
				}
			}
		}
		got := (&Sketch{Numeric: true, Nums: nums}).NumValOrder()
		want := numValOrderReference(nums)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: NumValOrder diverges from the reference on %v:\n got %v\nwant %v", trial, nums, got, want)
		}
	}
	withNaN := &Sketch{Numeric: true, Nums: []float64{1, math.NaN(), 0}}
	if got := withNaN.NumValOrder(); got != nil {
		t.Fatalf("NaN input ordered as %v, want nil", got)
	}
	if got := (&Sketch{Nums: []float64{1, 2}}).NumValOrder(); got != nil {
		t.Fatalf("categorical sketch ordered as %v, want nil", got)
	}
}

// numValOrderComparator is the typed comparator sort NumValOrder ran
// before it shared the k-NN package's radix sort.
func numValOrderComparator(nums []float64) []int32 {
	order := make([]int32, len(nums))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		va, vb := nums[a], nums[b]
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return cmp.Compare(a, b) // equal values, -0 and +0 included
	})
	return order
}

// TestNumValOrderMatchesComparator holds the radix order to the
// comparator it replaced, index for index — raw records persist it — on
// random bit patterns, duplicate-heavy values, signed zeros, ±Inf and
// subnormals, at lengths that take one radix pass and several.
func TestNumValOrderMatchesComparator(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), tiny, -tiny, 3 * tiny, -2 * tiny, 0x1p-1022, 1}
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		nums := make([]float64, []int{1, 2, 17, 256, 300, 4096}[trial%6])
		for i := range nums {
			switch trial / 6 % 5 {
			case 0: // random bit patterns, NaN redrawn
				for nums[i] = math.NaN(); math.IsNaN(nums[i]); {
					nums[i] = math.Float64frombits(rng.Uint64())
				}
			case 1: // duplicate-heavy
				nums[i] = float64(rng.Intn(3))
			case 2: // signed zeros only
				nums[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			case 3: // the special values, ±Inf and subnormals among them
				nums[i] = specials[rng.Intn(len(specials))]
			default: // subnormals only
				nums[i] = float64(rng.Intn(9)-4) * tiny
			}
		}
		got := (&Sketch{Numeric: true, Nums: nums}).NumValOrder()
		if want := numValOrderComparator(nums); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): NumValOrder diverges from the comparator:\n got %v\nwant %v", trial, len(nums), got, want)
		}
	}
}
