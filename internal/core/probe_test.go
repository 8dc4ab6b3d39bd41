package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"misketch/internal/mi"
)

// probeTrainSketch streams skewed keyed rows into a train sketch.
func probeTrainSketch(t *testing.T, n, keys int, numeric bool, seed int64) *Sketch {
	t.Helper()
	b, err := NewStreamBuilder(RoleTrain, numeric, Options{Method: TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(keys))
		if numeric {
			b.AddNum(key, rng.NormFloat64())
		} else {
			b.AddStr(key, fmt.Sprintf("v%d", rng.Intn(7)))
		}
	}
	return b.Sketch()
}

// probeCandSketch builds a candidate sketch covering a fraction of the
// key universe, numeric or categorical, optionally tie-heavy.
func probeCandSketch(t *testing.T, keys int, numeric, ties bool, seed int64) *Sketch {
	t.Helper()
	b, err := NewStreamBuilder(RoleCandidate, numeric, Options{Method: TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < keys; k++ {
		if rng.Intn(3) == 0 {
			continue // leave holes so some train entries miss
		}
		key := fmt.Sprintf("k%d", k)
		if numeric {
			v := rng.NormFloat64()
			if ties {
				v = float64(rng.Intn(4))
			}
			b.AddNum(key, v)
		} else {
			b.AddStr(key, fmt.Sprintf("w%d", rng.Intn(5)))
		}
	}
	return b.Sketch()
}

// TestJoinScratchMatchesJoin checks that the probe join recovers the
// exact sample Join does — same pairs, same order — across numeric and
// categorical sides.
func TestJoinScratchMatchesJoin(t *testing.T) {
	for _, trainNum := range []bool{true, false} {
		for _, candNum := range []bool{true, false} {
			train := probeTrainSketch(t, 3000, 150, trainNum, 11)
			probe := CompileTrainProbe(train)
			var scratch Scratch
			for trial := int64(0); trial < 5; trial++ {
				cand := probeCandSketch(t, 150, candNum, trial%2 == 0, 100+trial)
				want, err := Join(train, cand)
				if err != nil {
					t.Fatal(err)
				}
				got, err := probe.JoinScratch(cand, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size != want.Size {
					t.Fatalf("train=%v cand=%v: size %d != %d", trainNum, candNum, got.Size, want.Size)
				}
				if got.Y.IsNumeric() != want.Y.IsNumeric() || got.X.IsNumeric() != want.X.IsNumeric() {
					t.Fatalf("column kinds diverge")
				}
				for i := 0; i < want.Size; i++ {
					if want.Y.IsNumeric() && got.Y.Num[i] != want.Y.Num[i] {
						t.Fatalf("Y[%d]: %v != %v", i, got.Y.Num[i], want.Y.Num[i])
					}
					if !want.Y.IsNumeric() && got.Y.Str[i] != want.Y.Str[i] {
						t.Fatalf("Y[%d]: %q != %q", i, got.Y.Str[i], want.Y.Str[i])
					}
					if want.X.IsNumeric() && got.X.Num[i] != want.X.Num[i] {
						t.Fatalf("X[%d]: %v != %v", i, got.X.Num[i], want.X.Num[i])
					}
					if !want.X.IsNumeric() && got.X.Str[i] != want.X.Str[i] {
						t.Fatalf("X[%d]: %q != %q", i, got.X.Str[i], want.X.Str[i])
					}
				}
			}
		}
	}
}

// TestEstimateMIScratchBitIdentical checks the full scratch pipeline —
// probe join, ordering hints, reused estimator state — against the
// legacy EstimateMI, bit for bit, with one scratch reused across every
// candidate and type combination.
func TestEstimateMIScratchBitIdentical(t *testing.T) {
	var scratch Scratch
	for _, trainNum := range []bool{true, false} {
		train := probeTrainSketch(t, 4000, 200, trainNum, 21)
		probe := CompileTrainProbe(train)
		for _, candNum := range []bool{true, false} {
			for trial := int64(0); trial < 8; trial++ {
				cand := probeCandSketch(t, 200, candNum, trial%2 == 0, 300+trial)
				want, err := EstimateMI(train, cand, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EstimateMIScratch(probe, cand, 3, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if got.Estimator != want.Estimator || got.N != want.N {
					t.Fatalf("metadata diverges: %+v vs %+v", got, want)
				}
				if math.Float64bits(got.MI) != math.Float64bits(want.MI) {
					t.Fatalf("train=%v cand=%v trial=%d: MI %v != %v",
						trainNum, candNum, trial, got.MI, want.MI)
				}
				// Each numeric side has its order — Mixed-KSG reads both,
				// DC-KSG its numeric column's — and a categorical side
				// none, so cat×cat derives nothing.
				h := probe.hints(cand, &scratch)
				if (h.XOrder != nil) != trainNum || (h.YOrder != nil) != candNum {
					t.Fatalf("train=%v cand=%v: hints derived x=%v y=%v, want one per numeric side",
						trainNum, candNum, h.XOrder != nil, h.YOrder != nil)
				}
				for _, order := range [][]int32{h.XOrder, h.YOrder} {
					if order != nil && len(order) != got.N {
						t.Fatalf("train=%v cand=%v: an order of %d rows for a sample of %d",
							trainNum, candNum, len(order), got.N)
					}
				}
			}
		}
	}
}

// TestHintsOrderEachNumericSide checks the hints against the sample
// itself rather than against another run of the estimator: on sketches
// whose train keys repeat (so candidate entries chain several joined
// rows) and whose values tie, each numeric side's order must be a
// permutation of the joined rows along which that side's column never
// descends, whatever the other side's kind — the chains of one side are
// built without the other's. With it the mixed pairs' estimates, for
// k 1…5 on one scratch, must equal EstimateMI's, which sorts for itself;
// so must those of a column holding a NaN, which has no value order and
// therefore no hint.
func TestHintsOrderEachNumericSide(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var scratch Scratch
	for trial := 0; trial < 200; trial++ {
		trainNum, candNum := trial&1 == 0, trial&2 == 0
		universe := 40 + rng.Intn(260)
		trainHashes := make([]uint32, 2+rng.Intn(255))
		for i := range trainHashes {
			trainHashes[i] = uint32(1 + rng.Intn(universe))
		}
		var candHashes []uint32
		for h := 1; h <= universe; h++ {
			if rng.Intn(4) != 0 {
				candHashes = append(candHashes, uint32(h))
			}
		}
		rng.Shuffle(len(candHashes), func(i, j int) { candHashes[i], candHashes[j] = candHashes[j], candHashes[i] })
		train := handSketch(RoleTrain, trainNum, trainHashes, rng)
		cand := handSketch(RoleCandidate, candNum, candHashes, rng)
		withNaN := trial%8 >= 6 && (trainNum || candNum)
		if withNaN {
			if trainNum {
				train.Nums[rng.Intn(train.Len())] = math.NaN()
			} else {
				cand.Nums[rng.Intn(cand.Len())] = math.NaN()
			}
		}
		probe := CompileTrainProbe(train)
		label := fmt.Sprintf("trial %d (train num=%v, cand num=%v, NaN=%v)", trial, trainNum, candNum, withNaN)
		js, err := probe.JoinScratch(cand, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		h := probe.hints(cand, &scratch)
		for _, side := range []struct {
			order []int32
			col   mi.Column
			sk    *Sketch
		}{{h.XOrder, js.Y, train}, {h.YOrder, js.X, cand}} {
			if want := side.sk.NumValOrder() != nil; (side.order != nil) != want {
				t.Fatalf("%s: order derived %v, want %v", label, side.order != nil, want)
			}
			if side.order == nil {
				continue
			}
			if len(side.order) != js.Size {
				t.Fatalf("%s: an order of %d rows for a sample of %d", label, len(side.order), js.Size)
			}
			seen := make([]bool, js.Size)
			for j, row := range side.order {
				if int(row) >= js.Size || seen[row] {
					t.Fatalf("%s: order %v is not a permutation of %d rows", label, side.order, js.Size)
				}
				seen[row] = true
				if j > 0 && side.col.Num[side.order[j-1]] > side.col.Num[row] {
					t.Fatalf("%s: column descends along its order at %d", label, j)
				}
			}
		}
		if trainNum == candNum {
			continue
		}
		for k := 1; k <= 5; k++ {
			want, err := EstimateMI(train, cand, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateMIScratch(probe, cand, k, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimator != mi.EstDCKSG || got.N != want.N || math.Float64bits(got.MI) != math.Float64bits(want.MI) {
				t.Fatalf("%s k=%d: hinted %+v, EstimateMI %+v", label, k, got, want)
			}
		}
	}
}

// TestJoinScratchSeedMismatch mirrors Join's seed check.
func TestJoinScratchSeedMismatch(t *testing.T) {
	train := probeTrainSketch(t, 500, 50, true, 1)
	cand := probeCandSketch(t, 50, true, false, 2)
	cand.Seed++
	probe := CompileTrainProbe(train)
	var scratch Scratch
	if _, err := probe.JoinScratch(cand, &scratch); err == nil {
		t.Fatal("expected seed-mismatch error")
	}
}

// TestJoinScratchDuplicateCandHash reports duplicated candidate key
// hashes that reach the join, as Join does.
func TestJoinScratchDuplicateCandHash(t *testing.T) {
	train := probeTrainSketch(t, 500, 50, true, 1)
	probe := CompileTrainProbe(train)
	cand := &Sketch{
		Method:  TUPSK,
		Role:    RoleCandidate,
		Seed:    train.Seed,
		Size:    4,
		Numeric: true,
		// Duplicate a hash that certainly joins: the train's first one.
		KeyHashes:  []uint32{train.KeyHashes[0], train.KeyHashes[0]},
		Nums:       []float64{1, 2},
		SourceRows: 2,
	}
	var scratch Scratch
	if _, err := probe.JoinScratch(cand, &scratch); err == nil ||
		!strings.Contains(err.Error(), "duplicate key hash") {
		t.Fatalf("expected duplicate-hash error, got %v", err)
	}
}

// handSketch assembles a sketch entry by entry, for pairs no builder
// produces: chosen key hashes, repeated or duplicated at will.
func handSketch(role Role, numeric bool, hashes []uint32, rng *rand.Rand) *Sketch {
	sk := &Sketch{Method: TUPSK, Role: role, Seed: 7, Size: 64, Numeric: numeric,
		KeyHashes: hashes, SourceRows: len(hashes)}
	if numeric {
		sk.Nums = make([]float64, len(hashes))
		for i := range sk.Nums {
			sk.Nums[i] = float64(rng.Intn(6)) + float64(hashes[i]%5) // ties and signal
		}
	} else {
		sk.Strs = make([]string, len(hashes))
		for i := range sk.Strs {
			sk.Strs[i] = fmt.Sprintf("v%d", (int(hashes[i])+rng.Intn(2))%4)
		}
	}
	return sk
}

// TestJoinAboveMatchesJoinScratch holds the phase-1 entry to the calls
// it replaced, over generated pairs: its Size is KeyOverlap's count, its
// error is JoinScratch's, above the cutoff its columns are JoinScratch's
// element for element and at or below it nothing is emitted — for every
// cutoff around the overlap, with repeated train keys, duplicated
// candidate hashes that join and that do not, empty and disjoint
// candidates, numeric and categorical on both sides. A full
// JoinScratch + EstimateJoined on the same scratch right after must
// equal EstimateMIScratch on a fresh one: phase 1 builds no chains and
// may leave none half-built.
func TestJoinAboveMatchesJoinScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var scratch Scratch // one scratch across every pair and shape
	// handSketch values are never NaN, so == compares them.
	sameColumn := func(a, b mi.Column) bool {
		return a.IsNumeric() == b.IsNumeric() && slices.Equal(a.Num, b.Num) && slices.Equal(a.Str, b.Str)
	}
	var rejected, emitted, cut int
	for trial := 0; trial < 400; trial++ {
		trainNum, candNum := trial&1 == 0, trial&2 == 0
		// Train entries repeat keys of a small universe.
		universe := 20 + rng.Intn(60)
		trainHashes := make([]uint32, 1+rng.Intn(64))
		for i := range trainHashes {
			trainHashes[i] = uint32(1 + rng.Intn(universe))
		}
		// Candidate hashes are unique: a slice of the universe (empty, or
		// wholly outside the train's keys, in some trials) ...
		var candHashes []uint32
		switch shape := trial % 7; shape {
		case 5: // empty candidate
		case 6: // disjoint key sets
			for h := 0; h < 30; h++ {
				candHashes = append(candHashes, uint32(1000+h))
			}
		default:
			for h := 1; h <= universe; h++ {
				if rng.Intn(3) != 0 {
					candHashes = append(candHashes, uint32(h))
				}
			}
			rng.Shuffle(len(candHashes), func(i, j int) { candHashes[i], candHashes[j] = candHashes[j], candHashes[i] })
			// ... plus, in some, one duplicated hash: one that joins a
			// train entry, or one that joins nothing.
			if shape == 3 {
				candHashes = append(candHashes, trainHashes[rng.Intn(len(trainHashes))], trainHashes[0])
				candHashes = append(candHashes, candHashes[len(candHashes)-1])
			} else if shape == 4 {
				candHashes = append(candHashes, 5000, 5000)
			}
		}
		train := handSketch(RoleTrain, trainNum, trainHashes, rng)
		cand := handSketch(RoleCandidate, candNum, candHashes, rng)
		probe := CompileTrainProbe(train)
		overlap := probe.KeyOverlap(cand)
		if overlap != KeyOverlap(train, cand) {
			t.Fatalf("trial %d: fixture overlaps disagree", trial)
		}

		var ref Scratch
		wantJS, wantErr := probe.JoinScratch(cand, &ref)
		for _, minJoin := range []int{-1, 0, overlap - 1, overlap, overlap + 1} {
			label := fmt.Sprintf("trial %d (train num=%v, cand num=%v, overlap %d) minJoin %d", trial, trainNum, candNum, overlap, minJoin)
			got, err := probe.JoinAbove(cand, minJoin, false, &scratch)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, JoinScratch's %v", label, err, wantErr)
			}
			switch {
			case err != nil:
				rejected++
			case got.Size != overlap:
				t.Fatalf("%s: size %d", label, got.Size)
			case overlap <= minJoin:
				cut++
				if got.Y.Len() != 0 || got.X.Len() != 0 || got.Y.IsNumeric() || got.X.IsNumeric() {
					t.Fatalf("%s: a pair at or below the cutoff emitted %+v", label, got)
				}
			default:
				emitted++
				if got.Y.IsNumeric() != trainNum || got.X.IsNumeric() != candNum ||
					!sameColumn(got.Y, wantJS.Y) || !sameColumn(got.X, wantJS.X) {
					t.Fatalf("%s: sample %+v, JoinScratch's %+v", label, got, wantJS)
				}
			}

			// The exact tier on the scratch phase 1 just used: straight
			// off the phase-1 sample (no chains, so no hints) and after
			// a full join.
			var fresh Scratch
			want, wantErr2 := EstimateMIScratch(probe, cand, 3, &fresh)
			if err == nil && got.Size > minJoin {
				if r := probe.EstimateJoined(cand, got, 3, &scratch); r != want {
					t.Fatalf("%s: exact estimate of the phase-1 sample %+v, want %+v", label, r, want)
				}
			}
			js, err := probe.JoinScratch(cand, &scratch)
			if (err == nil) != (wantErr2 == nil) {
				t.Fatalf("%s: follow-up join error %v, want %v", label, err, wantErr2)
			}
			if err == nil {
				if r := probe.EstimateJoined(cand, js, 3, &scratch); r.Estimator != want.Estimator || r.N != want.N ||
					math.Float64bits(r.MI) != math.Float64bits(want.MI) {
					t.Fatalf("%s: exact estimate after phase 1 %+v, want %+v", label, r, want)
				}
			}
		}
	}
	if rejected < 100 || emitted < 500 || cut < 500 {
		t.Fatalf("degenerate generator: %d rejected, %d emitted, %d cut", rejected, emitted, cut)
	}
}

// TestJoinMemoBitIdentical holds the join memo to a scratch that never
// joined before. One scratch runs a shuffled stream of joins: runs of
// candidates that share a key sample (one slice or equal copies) but not
// values or kinds, switches to other samples, the same sketch again,
// other probes — one of them a second compile of the same train, one on
// another seed — and a candidate whose duplicated hash may join. Each
// join's error, sample, cheap score (with direct CheapMI calls on other
// columns in between) and exact estimate must equal, bit for bit, those
// of the fresh scratch.
func TestJoinMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const universe = 120
	var probes []*TrainProbe
	for i := 0; i < 4; i++ {
		hashes := make([]uint32, 40+rng.Intn(120))
		for j := range hashes {
			hashes[j] = uint32(1 + rng.Intn(universe))
		}
		train := handSketch(RoleTrain, i%2 == 0, hashes, rng)
		if i == 3 {
			train.Seed++
		}
		probes = append(probes, CompileTrainProbe(train))
	}
	probes = append(probes, CompileTrainProbe(probes[0].Train()))
	var groups [][]*Sketch // one key sample each
	for g := 0; g < 4; g++ {
		var keys []uint32
		for h := 1; h <= universe; h++ {
			if rng.Intn(3) != 0 {
				keys = append(keys, uint32(h))
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		if g == 3 {
			keys = append(keys, keys[0]) // a duplicated hash
		}
		var group []*Sketch
		for v := 0; v < 5; v++ {
			ks := keys
			if v%2 == 1 {
				ks = slices.Clone(keys)
			}
			group = append(group, handSketch(RoleCandidate, v%3 != 0, ks, rng))
		}
		other := handSketch(RoleCandidate, true, keys, rng)
		other.Seed = probes[3].Train().Seed
		groups = append(groups, append(group, other))
	}
	sameColumn := func(a, b mi.Column) bool { // handSketch values are never NaN
		return a.IsNumeric() == b.IsNumeric() && slices.Equal(a.Num, b.Num) && slices.Equal(a.Str, b.Str)
	}
	// Direct calls on columns of their own: a categorical x rewrites the
	// IDs a kept reduction lives in.
	noise := [2]mi.Column{mi.NumericColumn(make([]float64, 200)), mi.CategoricalColumn(make([]string, 200))}
	for i := range 200 {
		noise[0].Num[i], noise[1].Str[i] = float64(i%9), fmt.Sprint(i%11)
	}
	var s Scratch
	p, group := probes[0], groups[0]
	var hits, misses, cheap, direct int
	for step := 0; step < 1500; step++ {
		if rng.Intn(5) == 0 {
			p = probes[rng.Intn(len(probes))]
		}
		if rng.Intn(4) == 0 {
			group = groups[rng.Intn(len(groups))]
		}
		cand := group[rng.Intn(len(group))]
		minJoin := []int{-1, 0, 20, 60, 200}[rng.Intn(5)]
		exact := rng.Intn(2) == 0
		bins := []int{mi.DefaultCheapBins, 5}[rng.Intn(2)]
		label := fmt.Sprintf("step %d (train num=%v seed %d, cand num=%v seed %d, minJoin %d, exact %v)",
			step, p.Train().Numeric, p.Train().Seed, cand.Numeric, cand.Seed, minJoin, exact)
		if s.memoProbe == p && slices.Equal(s.memoKeys, cand.KeyHashes) {
			hits++
		} else {
			misses++
		}
		var fresh Scratch
		want, wantErr := p.JoinAbove(cand, minJoin, exact, &fresh)
		got, err := p.JoinAbove(cand, minJoin, exact, &s)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, a fresh scratch's %v", label, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Size != want.Size || !sameColumn(got.Y, want.Y) || !sameColumn(got.X, want.X) {
			t.Fatalf("%s: sample %+v, a fresh scratch's %+v", label, got, want)
		}
		if got.Size <= minJoin {
			continue
		}
		if rng.Intn(3) == 0 {
			c := noise[direct%2]
			s.MI.CheapMI(c, c, bins)
			direct++
		}
		cheap++
		if g, w := s.CheapMI(got, nil, bins), fresh.MI.CheapMI(want.Y, want.X, bins); math.Float64bits(g.MI) != math.Float64bits(w.MI) ||
			math.Float64bits(g.Ceil) != math.Float64bits(w.Ceil) {
			t.Fatalf("%s bins %d: cheap %+v, a fresh scratch's %+v", label, bins, g, w)
		}
		if g, w := p.EstimateJoined(cand, got, 3, &s), p.EstimateJoined(cand, want, 3, &fresh); g.Estimator != w.Estimator ||
			g.N != w.N || math.Float64bits(g.MI) != math.Float64bits(w.MI) {
			t.Fatalf("%s: exact %+v, a fresh scratch's %+v", label, g, w)
		}
	}
	if hits < 300 || misses < 300 || cheap < 300 || direct < 50 {
		t.Fatalf("degenerate stream: %d memo hits, %d misses, %d cheap scores, %d direct calls", hits, misses, cheap, direct)
	}
}

// TestDistinctKeyHashesDeterministic: a train's distinct key hashes come
// out in ascending order, so two compiles of one train give equal slices
// and index selection reads postings in a reproducible order.
func TestDistinctKeyHashesDeterministic(t *testing.T) {
	train := probeTrainSketch(t, 3000, 150, true, 41)
	h1, m1 := CompileTrainProbe(train).DistinctKeyHashes()
	h2, m2 := CompileTrainProbe(train).DistinctKeyHashes()
	if !slices.Equal(h1, h2) || !slices.Equal(m1, m2) {
		t.Fatal("two compiles of one train list its distinct key hashes differently")
	}
	for i := 1; i < len(h1); i++ {
		if h1[i-1] >= h1[i] {
			t.Fatalf("hash %d (%#x) does not ascend from %#x", i, h1[i], h1[i-1])
		}
	}
}

// TestTrainProbeConcurrentRankers shares one TrainProbe across
// concurrent rankers, each with its own Scratch, and checks every
// worker reproduces the sequential estimates exactly. Run under -race
// this also proves the probe (and the lazy sketch value-order memo) are
// data-race free.
func TestTrainProbeConcurrentRankers(t *testing.T) {
	train := probeTrainSketch(t, 4000, 200, true, 31)
	probe := CompileTrainProbe(train)
	const nCand = 24
	cands := make([]*Sketch, nCand)
	for i := range cands {
		cands[i] = probeCandSketch(t, 200, i%3 != 0, i%2 == 0, int64(500+i))
	}
	want := make([]float64, nCand)
	var seq Scratch
	for i, c := range cands {
		r, err := EstimateMIScratch(probe, c, 3, &seq)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.MI
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch Scratch
			for i := w; i < nCand; i += 1 + w%3 {
				r, err := EstimateMIScratch(probe, cands[i], 3, &scratch)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(r.MI) != math.Float64bits(want[i]) {
					errs <- fmt.Errorf("worker %d cand %d: %v != %v", w, i, r.MI, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDistinctKeyHashes checks the probe's materialized distinct-hash
// view against the train sketch itself: every distinct hash appears
// exactly once with its exact multiplicity, so an inverted index probed
// with these terms reproduces KeyOverlap term for term.
func TestDistinctKeyHashes(t *testing.T) {
	train := probeTrainSketch(t, 3000, 150, true, 41)
	probe := CompileTrainProbe(train)
	hashes, mults := probe.DistinctKeyHashes()
	if len(hashes) != len(mults) {
		t.Fatalf("%d hashes vs %d multiplicities", len(hashes), len(mults))
	}
	want := map[uint32]int32{}
	for _, hk := range train.KeyHashes {
		want[hk]++
	}
	if len(hashes) != len(want) {
		t.Fatalf("%d distinct hashes, want %d", len(hashes), len(want))
	}
	seen := map[uint32]bool{}
	for i, hk := range hashes {
		if seen[hk] {
			t.Fatalf("hash %#x listed twice", hk)
		}
		seen[hk] = true
		if mults[i] != want[hk] {
			t.Fatalf("hash %#x multiplicity %d, want %d", hk, mults[i], want[hk])
		}
	}
	// The index-selection contract: summing multiplicities over the
	// candidate's distinct hashes equals KeyOverlap exactly.
	cand := probeCandSketch(t, 150, true, false, 42)
	byHash := want
	got := 0
	for _, hk := range cand.KeyHashes {
		got += int(byHash[hk])
	}
	if want := KeyOverlap(train, cand); got != want {
		t.Fatalf("distinct-hash overlap %d != KeyOverlap %d", got, want)
	}
}
