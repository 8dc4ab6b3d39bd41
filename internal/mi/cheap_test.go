package mi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The cheap tier is a pruning score, so its contract is narrower than an
// estimator's: it must agree with the reference discretize-then-MLE
// pipeline on numeric pairs, be deterministic to the last bit, never
// exceed its own Ceil, and survive the degenerate inputs (NaN, constant,
// empty, huge categorical cross products) a real catalog throws at it.

const cheapTol = 1e-9

// TestCheapMIMatchesBinnedMLE pins the numeric path to the reference
// pipeline: equal-width binning into the same cells, plug-in MI on the
// counts. Only summation order differs, so agreement must be near
// float-exact across distributions and bin counts.
func TestCheapMIMatchesBinnedMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func(n int) ([]float64, []float64){
		"independent": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			return xs, ys
		},
		"linear": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
				ys[i] = 2*xs[i] + 0.3*rng.NormFloat64()
			}
			return xs, ys
		},
		"ties": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(5))
				ys[i] = xs[i] + float64(rng.Intn(3))
			}
			return xs, ys
		},
	}
	for name, gen := range gens {
		for _, bins := range []int{4, DefaultCheapBins, 64} {
			t.Run(fmt.Sprintf("%s/bins%d", name, bins), func(t *testing.T) {
				xs, ys := gen(300)
				var s Scratch
				got := s.CheapMI(NumericColumn(xs), NumericColumn(ys), bins)
				want := BinnedMLE(xs, ys, bins, BinEqualWidth)
				if math.Abs(got.MI-want) > cheapTol {
					t.Fatalf("CheapMI = %v, BinnedMLE = %v (diff %g)", got.MI, want, got.MI-want)
				}
				if got.MI < -cheapTol {
					t.Fatalf("plug-in MI must be non-negative, got %v", got.MI)
				}
				if got.MI > got.Ceil+cheapTol {
					t.Fatalf("MI %v exceeds Ceil %v", got.MI, got.Ceil)
				}
			})
		}
	}
}

// TestCheapMICategorical pins the interning path to the reference MLE on
// the same strings, and checks a functional pair saturates its Ceil.
func TestCheapMICategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 400
	xs, ys := make([]string, n), make([]string, n)
	for i := range xs {
		xs[i] = fmt.Sprintf("c%d", rng.Intn(12))
		ys[i] = fmt.Sprintf("d%d", rng.Intn(7))
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	want := MLE(xs, ys)
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("categorical CheapMI = %v, MLE = %v", got.MI, want)
	}

	// y a function of x: MI = H(Y) = Ceil exactly (up to rounding).
	for i := range ys {
		ys[i] = xs[i] + "!"
	}
	got = s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	if math.Abs(got.MI-got.Ceil) > cheapTol {
		t.Fatalf("functional pair: MI %v should saturate Ceil %v", got.MI, got.Ceil)
	}
}

// TestCheapMIMixed exercises a categorical–numeric pair against the
// reference pipeline (discretize the numeric side, MLE on labels).
func TestCheapMIMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 350
	xs := make([]string, n)
	ys := make([]float64, n)
	for i := range xs {
		g := rng.Intn(6)
		xs[i] = fmt.Sprintf("g%d", g)
		ys[i] = float64(g) + 0.5*rng.NormFloat64()
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), NumericColumn(ys), DefaultCheapBins)
	want := MLE(xs, Discretize(ys, DefaultCheapBins, BinEqualWidth))
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("mixed CheapMI = %v, reference = %v", got.MI, want)
	}
	if got.MI < 0.5 {
		t.Fatalf("strongly dependent mixed pair scored %v, want well above 0", got.MI)
	}
}

// TestCheapMIDeterministic runs the same pair through fresh and reused
// scratches; every result must be bit-identical.
func TestCheapMIDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 257
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i]*xs[i] + rng.NormFloat64()
	}
	var fresh Scratch
	want := fresh.CheapMI(NumericColumn(xs), NumericColumn(ys), DefaultCheapBins)
	var reused Scratch
	// Dirty the reused scratch with an unrelated pair first.
	reused.CheapMI(NumericColumn(ys), NumericColumn(xs), 7)
	for i := 0; i < 3; i++ {
		got := reused.CheapMI(NumericColumn(xs), NumericColumn(ys), DefaultCheapBins)
		if got != want {
			t.Fatalf("run %d: %+v != %+v (must be bit-identical)", i, got, want)
		}
	}
}

// TestCheapMIDegenerate covers the inputs that must not panic and must
// stay deterministic: NaNs, constant columns, empty columns.
func TestCheapMIDegenerate(t *testing.T) {
	var s Scratch
	if got := s.CheapMI(NumericColumn(nil), NumericColumn(nil), 8); got != (CheapResult{}) {
		t.Fatalf("empty columns: got %+v, want zero", got)
	}

	// Constant column: one bin, zero entropy, zero MI and Ceil.
	xs := []float64{3, 3, 3, 3}
	ys := []float64{1, 2, 3, 4}
	got := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 8)
	if got.MI != 0 || got.Ceil != 0 {
		t.Fatalf("constant column: got %+v, want MI=0 Ceil=0", got)
	}

	// NaNs land in bin 0 deterministically; the pair still scores.
	nan := math.NaN()
	xs = []float64{nan, 1, 2, nan, 3, 4, 5, 6}
	ys = []float64{0, 1, 2, 0, 3, 4, 5, 6}
	a := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 4)
	b := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 4)
	if a != b {
		t.Fatalf("NaN pair not deterministic: %+v vs %+v", a, b)
	}
	if math.IsNaN(a.MI) || math.IsNaN(a.Ceil) {
		t.Fatalf("NaN leaked into the score: %+v", a)
	}

	// An all-NaN column collapses to a single bin like a constant.
	xs = []float64{nan, nan, nan}
	got = s.CheapMI(NumericColumn(xs), NumericColumn(ys[:3]), 4)
	if got.MI != 0 || got.Ceil != 0 {
		t.Fatalf("all-NaN column: got %+v, want MI=0 Ceil=0", got)
	}
}

// TestCheapMIMapFallback forces the joint table over cheapMaxFlatCells
// (two high-cardinality categorical sides) and pins the overflow path to
// the reference MLE.
func TestCheapMIMapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const card = 600 // 600×600 cells > 1<<18: must take the map path
	n := 3000
	xs, ys := make([]string, n), make([]string, n)
	for i := 0; i < card; i++ {
		// Guarantee full cardinality on both sides.
		xs[i] = fmt.Sprintf("x%d", i)
		ys[i] = fmt.Sprintf("y%d", i)
	}
	for i := card; i < n; i++ {
		xs[i] = fmt.Sprintf("x%d", rng.Intn(card))
		ys[i] = fmt.Sprintf("y%d", rng.Intn(card))
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	want := MLE(xs, ys)
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("map-fallback CheapMI = %v, MLE = %v", got.MI, want)
	}
}

// TestCheapMIPreservesExactEstimate verifies the coexistence contract the
// cascade relies on: a cheap pass between two exact estimates on the same
// scratch must not change the exact result.
func TestCheapMIPreservesExactEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 200
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + 0.5*rng.NormFloat64()
	}
	var s Scratch
	before := s.Estimate(NumericColumn(ys), NumericColumn(xs), DefaultK)
	s.CheapMI(NumericColumn(ys), NumericColumn(xs), DefaultCheapBins)
	after := s.Estimate(NumericColumn(ys), NumericColumn(xs), DefaultK)
	if before != after {
		t.Fatalf("cheap pass disturbed the exact estimator: %+v vs %+v", before, after)
	}
}

// cheapReference is the state of the multi-pass cheap tier CheapMI
// replaced, kept as the oracle the one-loop kernel is held to bit for
// bit: IDs for both columns, then each marginal, then the joint, seven
// passes over the sample. The bodies below are that code verbatim, on
// this struct instead of the Scratch, with one edit shared with the
// kernel: every entropy term is float64(p * math.Log(p)), so that a
// fused multiply-subtract (arm64) cannot round the two differently.
type cheapReference struct {
	xIDs, yIDs         []int32
	xCounts, yCounts   []int32
	joint, touched     []int32
	xLevels, yLevels   map[string]int32
	jLevels            map[uint64]int
	jCounts            []int
	flatCalls, mapCall int
}

func (s *cheapReference) cheapMI(x, y Column, bins int) CheapResult {
	n := x.Len()
	if n == 0 {
		return CheapResult{}
	}
	var cardX, cardY int32
	s.xIDs, cardX = cheapIDsReference(x, bins, s.xIDs, &s.xLevels)
	s.yIDs, cardY = cheapIDsReference(y, bins, s.yIDs, &s.yLevels)

	hx := cheapMarginalReference(&s.xCounts, s.xIDs, cardX, n)
	hy := cheapMarginalReference(&s.yCounts, s.yIDs, cardY, n)

	var hxy float64
	if cells := int64(cardX) * int64(cardY); cells <= cheapMaxFlatCells {
		s.flatCalls++
		hxy = s.jointFlat(int32(cells), cardY, n)
	} else {
		s.mapCall++
		hxy = s.jointMap(n)
	}

	return CheapResult{MI: hx + hy - hxy, Ceil: math.Min(hx, hy)}
}

// cheapMIReference scores one pair on fresh reference state.
func cheapMIReference(x, y Column, bins int) CheapResult {
	return new(cheapReference).cheapMI(x, y, bins)
}

func cheapIDsReference(c Column, bins int, ids []int32, levels *map[string]int32) ([]int32, int32) {
	n := c.Len()
	if cap(ids) < n {
		ids = make([]int32, n)
	} else {
		ids = ids[:n]
	}
	if !c.IsNumeric() {
		if *levels == nil {
			*levels = make(map[string]int32, 64)
		} else {
			clear(*levels)
		}
		lv := *levels
		var card int32
		for i, v := range c.Str {
			id, ok := lv[v]
			if !ok {
				id = card
				lv[v] = id
				card++
			}
			ids[i] = id
		}
		return ids, card
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.Num {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := (hi - lo) / float64(bins)
	if !(width > 0) || math.IsInf(width, 0) {
		clear(ids)
		return ids, 1
	}
	for i, v := range c.Num {
		b := 0
		// NaN fails the comparison and stays in bin 0 deterministically.
		if f := (v - lo) / width; f > 0 {
			b = int(f)
			if b >= bins {
				b = bins - 1
			}
		}
		ids[i] = int32(b)
	}
	return ids, int32(bins)
}

func cheapMarginalReference(counts *[]int32, ids []int32, card int32, n int) float64 {
	cs := *counts
	if cap(cs) < int(card) {
		cs = make([]int32, card)
	} else {
		cs = cs[:card]
		clear(cs)
	}
	for _, id := range ids {
		cs[id]++
	}
	fn := float64(n)
	h := 0.0
	for _, c := range cs {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= float64(p * math.Log(p))
	}
	*counts = cs
	return h
}

func (s *cheapReference) jointFlat(cells, stride int32, n int) float64 {
	if cap(s.joint) < int(cells) {
		s.joint = make([]int32, cells)
	} else {
		s.joint = s.joint[:cells]
	}
	touched := s.touched[:0]
	for i := 0; i < n; i++ {
		c := s.xIDs[i]*stride + s.yIDs[i]
		if s.joint[c] == 0 {
			touched = append(touched, c)
		}
		s.joint[c]++
	}
	fn := float64(n)
	h := 0.0
	for _, c := range touched {
		p := float64(s.joint[c]) / fn
		h -= float64(p * math.Log(p))
		s.joint[c] = 0
	}
	s.touched = touched
	return h
}

func (s *cheapReference) jointMap(n int) float64 {
	if s.jLevels == nil {
		s.jLevels = make(map[uint64]int, 64)
	} else {
		clear(s.jLevels)
	}
	s.jCounts = s.jCounts[:0]
	for i := 0; i < n; i++ {
		key := uint64(uint32(s.xIDs[i]))<<32 | uint64(uint32(s.yIDs[i]))
		ji, ok := s.jLevels[key]
		if !ok {
			ji = len(s.jCounts)
			s.jLevels[key] = ji
			s.jCounts = append(s.jCounts, 0)
		}
		s.jCounts[ji]++
	}
	fn := float64(n)
	h := 0.0
	for _, c := range s.jCounts {
		p := float64(c) / fn
		h -= float64(p * math.Log(p))
	}
	return h
}

// sameCheapBits fails unless two cheap results agree bit for bit.
func sameCheapBits(t *testing.T, label string, got, want CheapResult) {
	t.Helper()
	if math.Float64bits(got.MI) != math.Float64bits(want.MI) || math.Float64bits(got.Ceil) != math.Float64bits(want.Ceil) {
		t.Fatalf("%s: CheapMI %+v (%016x, %016x), reference %+v (%016x, %016x)", label,
			got, math.Float64bits(got.MI), math.Float64bits(got.Ceil),
			want, math.Float64bits(want.MI), math.Float64bits(want.Ceil))
	}
}

// cheapShapes are the five column shapes the one-loop kernel was sized
// on: y independent of x, y correlated with x, both tied on a few
// values, a constant x, and both quantised to a floor grid (values on
// bin edges). The fuzz corpus is seeded with the same five.
var cheapShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) (xs, ys []float64)
}{
	{"independent", func(rng *rand.Rand, n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return xs, ys
	}},
	{"correlated", func(rng *rand.Rand, n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = 2*xs[i] + 0.3*rng.NormFloat64()
		}
		return xs, ys
	}},
	{"tied", func(rng *rand.Rand, n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5))
			ys[i] = xs[i] + float64(rng.Intn(3))
		}
		return xs, ys
	}},
	{"constant", func(rng *rand.Rand, n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = 3, rng.NormFloat64()
		}
		return xs, ys
	}},
	{"floor-quantised", func(rng *rand.Rand, n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(8 * rng.Float64())
			ys[i] = math.Floor(xs[i]/2 + 4*rng.Float64())
		}
		return xs, ys
	}},
}

// labels buckets a numeric column into categorical labels.
func labels(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("L%d", int(math.Floor(2*v)))
	}
	return out
}

// TestCheapMIMatchesReferenceBits holds the one-loop kernel to the
// multi-pass reference, bit for bit, on one Scratch reused across every
// pair: five column shapes, every n from 1 to 300 (so the p·log p memo
// is invalidated by a change of n on nearly every call, and revalidated
// by the repeats), all four type combinations, four bin counts, and the
// two pairs that overflow the flat joint table into the map path.
func TestCheapMIMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s Scratch
	var ref cheapReference
	check := func(label string, x, y Column, bins int) {
		t.Helper()
		sameCheapBits(t, label, s.CheapMI(x, y, bins), ref.cheapMI(x, y, bins))
	}
	pairs := 0
	for n := 1; n <= 300; n++ {
		for si, shape := range cheapShapes {
			xs, ys := shape.gen(rng, n)
			bins := []int{1, 7, DefaultCheapBins, 64}[(n+si)%4]
			numX, numY := NumericColumn(xs), NumericColumn(ys)
			catX, catY := CategoricalColumn(labels(xs)), CategoricalColumn(labels(ys))
			for ci, c := range [][2]Column{{numX, numY}, {numX, catY}, {catX, numY}, {catX, catY}} {
				check(fmt.Sprintf("%s n=%d bins=%d combo=%d", shape.name, n, bins, ci), c[0], c[1], bins)
				pairs++
			}
			if n%50 == 0 {
				// The same n again: every memo entry is a hit.
				check(fmt.Sprintf("%s n=%d repeated", shape.name, n), numX, numY, bins)
			}
		}
	}
	// Past cheapMaxFlatCells: 64 bins against 5000 distinct labels, and
	// 600 labels against 600.
	n := 5000
	xs, _ := cheapShapes[0].gen(rng, n)
	wide := make([]string, n)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%d", i)
	}
	check("numeric x 5000 labels", NumericColumn(xs), CategoricalColumn(wide), 64)
	check("5000 labels x numeric", CategoricalColumn(wide), NumericColumn(xs), 64)
	a, b := make([]string, n), make([]string, n)
	for i := range a {
		a[i], b[i] = fmt.Sprintf("a%d", i%600), fmt.Sprintf("b%d", rng.Intn(600))
	}
	check("600 x 600 labels", CategoricalColumn(a), CategoricalColumn(b), DefaultCheapBins)
	check("back under the flat bound", NumericColumn(xs[:200]), NumericColumn(xs[100:300]), DefaultCheapBins)
	if ref.mapCall != 3 || ref.flatCalls < pairs {
		t.Fatalf("fixture took the map path %d times and the flat path %d times, want 3 and >= %d", ref.mapCall, ref.flatCalls, pairs)
	}
}

// TestCheapMIKeptYMatchesCheapMI: a y column's reduction, kept once and
// taken in its place, scores bit for bit what CheapMI scores on the
// column — against the x it was kept with and against other x columns of
// every kind, with x kept or not, through the flat table and the map
// path — on one Scratch whose memos every call disturbs. Nothing is kept
// of a y of more than 256 IDs or of a pair past the flat table.
func TestCheapMIKeptYMatchesCheapMI(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var s, ref Scratch
	wide := func(n, levels int) Column {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", i%levels)
		}
		return CategoricalColumn(out)
	}
	kept := 0
	for n := 1; n <= 300; n += 7 {
		for si, shape := range cheapShapes {
			xs, ys := shape.gen(rng, n)
			x2, _ := cheapShapes[(si+1)%len(cheapShapes)].gen(rng, n)
			for _, y := range []Column{NumericColumn(ys), CategoricalColumn(labels(ys))} {
				label := fmt.Sprintf("%s n=%d y numeric=%v", shape.name, n, y.IsNumeric())
				var ky CheapY
				r := s.CheapMIKeep(uint64(n), NumericColumn(xs), y, &ky, DefaultCheapBins)
				sameCheapBits(t, label+" filling", r, ref.CheapMI(NumericColumn(xs), y, DefaultCheapBins))
				if ky.Card == 0 {
					t.Fatalf("%s: nothing kept", label)
				}
				for xi, x := range []Column{NumericColumn(xs), NumericColumn(x2), CategoricalColumn(labels(x2)), wide(n, 1100)} {
					for _, key := range []uint64{0, uint64(1000 + xi), uint64(1000 + xi)} {
						got := s.CheapMIKeep(key, x, Column{}, &ky, DefaultCheapBins)
						sameCheapBits(t, fmt.Sprintf("%s against x %d key %d", label, xi, key), got, ref.CheapMI(x, y, DefaultCheapBins))
						kept++
					}
				}
			}
		}
	}
	// 256 IDs yield against a numeric x; against 2000 labels they take
	// the map path.
	xs, _ := cheapShapes[0].gen(rng, 2000)
	y := wide(2000, 256)
	var ky CheapY
	if s.CheapMIKeep(0, NumericColumn(xs), y, &ky, DefaultCheapBins); ky.Card != 256 {
		t.Fatalf("a y of 256 IDs was kept with %d", ky.Card)
	}
	sameCheapBits(t, "map path", s.CheapMIKeep(5, wide(2000, 2000), Column{}, &ky, DefaultCheapBins), ref.CheapMI(wide(2000, 2000), y, DefaultCheapBins))
	for _, c := range [][2]Column{{NumericColumn(make([]float64, 300)), wide(300, 257)}, {wide(2000, 1100), wide(2000, 256)}} {
		var none CheapY
		if s.CheapMIKeep(0, c[0], c[1], &none, DefaultCheapBins); none.Card != 0 || none.IDs != nil {
			t.Fatalf("kept %d IDs of a y past 256 IDs or a pair past the flat table", none.Card)
		}
	}
	if kept == 0 {
		t.Fatal("degenerate fixture")
	}
}

// fuzzSpecials are the values a byte below len(fuzzSpecials) decodes to.
var fuzzSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}

// fuzzColumns decodes two equal-length columns from fuzz bytes. mode
// bits 0 and 1 make x and y categorical (a byte bucketed into one of a
// few labels); a numeric value is one byte — a special from
// fuzzSpecials, else a multiple of 1/4 in [-30, 32) — or, with bit 6,
// eight bytes of raw float bits. finite reports whether every numeric
// value is finite.
func fuzzColumns(data []byte, mode uint8) (x, y Column, finite bool) {
	width := 1
	if mode&0x40 != 0 {
		width = 8
	}
	n := min(len(data)/(2*width), 300)
	finite = true
	decode := func(categorical bool, off int) Column {
		if categorical {
			strs := make([]string, n)
			for i := range strs {
				strs[i] = fmt.Sprintf("L%d", data[(2*i+off)*width]%11)
			}
			return CategoricalColumn(strs)
		}
		nums := make([]float64, n)
		for i := range nums {
			b := data[(2*i+off)*width : (2*i+off+1)*width]
			switch {
			case width == 8:
				nums[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			case int(b[0]) < len(fuzzSpecials):
				nums[i] = fuzzSpecials[b[0]]
			default:
				nums[i] = float64(int(b[0])-128) / 4
			}
			finite = finite && !math.IsNaN(nums[i]) && !math.IsInf(nums[i], 0)
		}
		return NumericColumn(nums)
	}
	return decode(mode&1 != 0, 0), decode(mode&2 != 0, 1), finite
}

// FuzzCheapMI holds CheapMI to cheapMIReference bit for bit on decoded
// column pairs — NaN, ±Inf, −0, constant columns, n = 1, all four type
// combinations, bins of 1, 7, 16 and 64 — scored on ONE Scratch at
// several lengths in a row, so that every call but the first meets a
// p·log p memo filled for another n. A cheap pass must also leave a
// following exact estimate undisturbed (TestCheapMIPreservesExactEstimate's
// contract), checked wherever the values are finite.
func FuzzCheapMI(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for si, shape := range cheapShapes {
		xs, ys := shape.gen(rng, 120)
		narrow, wide := make([]byte, 0, 2*len(xs)), make([]byte, 0, 16*len(xs))
		for i := range xs {
			narrow = append(narrow, byte(128+4*max(-30, min(31, xs[i]))), byte(128+4*max(-30, min(31, ys[i]))))
			wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(xs[i]))
			wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(ys[i]))
		}
		f.Add(narrow, uint8(si<<2))
		f.Add(narrow, uint8(si<<2|si&3))
		f.Add(wide, uint8(0x40|si<<2))
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 200, 9}, uint8(2<<2)) // every special
	f.Add([]byte{77, 77}, uint8(0))                            // n = 1
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		x, y, finite := fuzzColumns(data, mode)
		bins := []int{1, 7, 16, 64}[mode>>2&3]
		prefix := func(c Column, n int) Column {
			if c.IsNumeric() {
				return NumericColumn(c.Num[:n])
			}
			return CategoricalColumn(c.Str[:n])
		}
		var s Scratch
		n := x.Len()
		for _, m := range []int{n, n / 2, 1, n, n - 1, n} {
			if m < 1 || m > n {
				continue
			}
			px, py := prefix(x, m), prefix(y, m)
			if !finite {
				sameCheapBits(t, fmt.Sprintf("n=%d", m), s.CheapMI(px, py, bins), cheapMIReference(px, py, bins))
				continue
			}
			before := s.Estimate(px, py, DefaultK)
			sameCheapBits(t, fmt.Sprintf("n=%d", m), s.CheapMI(px, py, bins), cheapMIReference(px, py, bins))
			if after := s.Estimate(px, py, DefaultK); after.Estimator != before.Estimator || after.N != before.N ||
				math.Float64bits(after.MI) != math.Float64bits(before.MI) {
				t.Fatalf("n=%d: cheap pass disturbed the exact estimator: %+v vs %+v", m, before, after)
			}
		}
	})
}

func BenchmarkCheapMI(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := 256
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + rng.NormFloat64()
	}
	x, y := NumericColumn(xs), NumericColumn(ys)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheapMI(x, y, DefaultCheapBins)
	}
}
