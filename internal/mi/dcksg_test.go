package mi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"misketch/internal/knn"
	"misketch/internal/stats"
)

// dcksgReference is DC-KSG as Scratch.DCKSG computed it before the kernel
// read a value order: group the masked values by class, sort a copy of
// each class section and a copy of the whole, then answer every point by
// binary search — its class's k-NN distance from the insertion position,
// its neighborhood count from the two ends of the global array. It is
// the oracle of the order-driven kernel, kept on fresh state per call.
// The benchmark's verifier recomputes answers through the same kernel as
// the server, so it cannot catch a wrong DC-KSG; this differential can.
func dcksgReference(cs []string, ys []float64, k int) float64 {
	levels := map[string]int{}
	rowClass := make([]int, len(cs))
	var classCounts []int
	for i, c := range cs {
		id, ok := levels[c]
		if !ok {
			id = len(classCounts)
			levels[c] = id
			classCounts = append(classCounts, 0)
		}
		classCounts[id]++
		rowClass[i] = id
	}
	classStart := make([]int, len(classCounts))
	classCursor := make([]int, len(classCounts))
	masked := 0
	for id, c := range classCounts {
		classStart[id], classCursor[id] = masked, masked
		if c > 1 {
			masked += c
		}
	}
	if masked < 2 {
		return 0
	}
	grouped := make([]float64, masked)
	for i, id := range rowClass {
		if classCounts[id] > 1 {
			grouped[classCursor[id]] = ys[i]
			classCursor[id]++
		}
	}
	classSorted := append([]float64(nil), grouped...)
	for id, c := range classCounts {
		if c > 1 {
			sort.Float64s(classSorted[classStart[id] : classStart[id]+c])
		}
	}
	var global knn.Sorted1D
	global.Reset(grouped)
	nMasked := float64(masked)
	var sumK, sumNc, sumM float64
	for id, nc := range classCounts {
		if nc <= 1 {
			continue
		}
		ki := min(k, nc-1)
		start := classStart[id]
		classView := knn.SortedView(classSorted[start : start+nc])
		for _, v := range grouped[start : start+nc] {
			d := classView.KNNDist(v, ki, true)
			var m int
			if d == 0 {
				m = global.CountWithin(v, 0, 0)
			} else {
				m = global.CountStrictlyWithin(v, d, 0)
			}
			sumK += stats.DigammaInt(ki)
			sumNc += stats.DigammaInt(nc)
			sumM += stats.DigammaInt(m)
		}
	}
	return stats.Digamma(nMasked) + (sumK-sumNc-sumM)/nMasked
}

// dcksgShapes are the value columns the differential sweeps; g is the
// row's group, which the class labels also follow.
var dcksgShapes = []struct {
	name string
	gen  func(rng *rand.Rand, g int) float64
}{
	{"continuous", func(rng *rand.Rand, g int) float64 { return float64(g%20) + 0.25*rng.NormFloat64() }},
	{"heavy ties", func(rng *rand.Rand, g int) float64 { return float64(rng.Intn(4)) }},
	{"half-integers", func(rng *rand.Rand, g int) float64 { return float64(rng.Intn(40)-20) / 2 }},
	{"20-level banded", func(rng *rand.Rand, g int) float64 { return float64(g % 20) }},
	{"signed zeros", func(rng *rand.Rand, g int) float64 {
		return []float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)]
	}},
}

// dcksgSample draws n rows over nClasses labels: labels follow the
// group with some noise, so classes have very different sizes, and with
// n small against nClasses many are singletons.
func dcksgSample(rng *rand.Rand, shape, n, nClasses int) ([]string, []float64) {
	cs, ys := make([]string, n), make([]float64, n)
	for i := range cs {
		g := rng.Intn(300)
		cs[i] = fmt.Sprintf("c%d", (g+rng.Intn(2)*rng.Intn(nClasses))%nClasses)
		ys[i] = dcksgShapes[shape].gen(rng, g)
	}
	return cs, ys
}

// TestDCKSGOrderedMatchesReferenceBits holds the order-driven kernel to
// dcksgReference bit for bit — five value shapes × n 2…300 × k 1…5 ×
// 1…25 classes (singleton classes and k > N_c − 1 among them) — on ONE
// Scratch carried through every trial, with the order sorted by the
// kernel, handed over as the probe derives it (ties by row), and handed
// over with every run of equal values reversed: the result may not
// depend on where in a run a value ranks. A column whose infinities sit
// in singleton classes is masked down to its finite rows and must read
// the same; an infinity inside a kept class is outside the differential
// (TestDCKSGNonFinite).
func TestDCKSGOrderedMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		shape := trial % len(dcksgShapes)
		n := 2 + rng.Intn(299)
		k := 1 + rng.Intn(5)
		cs, ys := dcksgSample(rng, shape, n, 1+rng.Intn(25))
		if trial%7 == 0 {
			for j, inf := range []float64{math.Inf(1), math.Inf(-1)} {
				at := rng.Intn(n)
				cs[at], ys[at] = fmt.Sprintf("alone%d", j), inf
			}
		}
		want := dcksgReference(cs, ys, k)
		label := fmt.Sprintf("trial %d (%s, n=%d, k=%d)", trial, dcksgShapes[shape].name, n, k)
		requireBitIdentical(t, label+" unhinted", want, s.DCKSG(cs, ys, k))
		order := ascOrder(ys)
		requireBitIdentical(t, label+" hinted", want, s.dcKSG(cs, ys, k, order))
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && ys[order[hi]] == ys[order[lo]] {
				hi++
			}
			for a, b := lo, hi-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
			lo = hi
		}
		requireBitIdentical(t, label+" ties reversed", want, s.dcKSG(cs, ys, k, order))
		if n > k { // the dispatcher scores smaller samples 0 and clamps at 0
			if want < 0 {
				want = 0
			}
			x, y := CategoricalColumn(cs), NumericColumn(ys)
			requireBitIdentical(t, label+" cat×num", want, s.EstimateHinted(x, y, k, Hints{YOrder: order}).MI)
			requireBitIdentical(t, label+" num×cat", want, s.EstimateHinted(y, x, k, Hints{XOrder: order}).MI)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestDCKSGNonFinite: a NaN or an infinity inside a kept class has no
// neighborhood to count — the reference panics on some such columns
// ("not enough values") and reads Inf − Inf as a distance on others. The
// kernel's contract there is only that it returns, and returns the same
// bits whichever order drove it.
func TestDCKSGNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		cs, ys := dcksgSample(rng, trial%len(dcksgShapes), n, 1+rng.Intn(6))
		for j := 0; j <= trial%4; j++ {
			ys[rng.Intn(n)] = fuzzSpecials[rng.Intn(3)] // NaN, +Inf, −Inf
		}
		k := 1 + rng.Intn(5)
		got := s.DCKSG(cs, ys, k)
		if again := s.DCKSG(cs, ys, k); math.Float64bits(got) != math.Float64bits(again) {
			t.Fatalf("trial %d: %v then %v on the same column", trial, got, again)
		}
		hasNaN := false
		for _, v := range ys {
			hasNaN = hasNaN || v != v
		}
		if !hasNaN { // ascOrder, like the probe, orders only NaN-free columns
			requireBitIdentical(t, fmt.Sprintf("trial %d hinted", trial), got, s.dcKSG(cs, ys, k, ascOrder(ys)))
		}
	}
}

// FuzzDCKSG holds the kernel to dcksgReference on decoded columns —
// signed zeros, extreme magnitudes, raw float bits, k 1…4 — at several
// lengths in a row on ONE Scratch, so every call but the first meets
// ranks and class sections left by another sample. Columns with a NaN or
// an infinity, and those the reference panics on (a class whose k-th
// neighbor is an overflowed distance away), only have to return.
func FuzzDCKSG(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for shape := range dcksgShapes {
		cs, ys := dcksgSample(rng, shape, 120, 7)
		data := make([]byte, 0, 2*len(ys))
		for i := range ys {
			label := cs[i][1] // one digit of the label is class enough
			data = append(data, label, byte(128+4*max(-30, min(31, ys[i]))))
		}
		f.Add(data, uint8(1|shape<<2))
	}
	f.Add([]byte{0, 3, 0, 4, 0, 5, 1, 6, 1, 7, 1, 200, 1, 3}, uint8(1))  // the finite specials
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 77, 1, 1, 1, 2, 1, 200}, uint8(1)) // NaN and ±Inf in kept classes
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		x, y, finite := fuzzColumns(data, mode&^2|1) // x categorical, y numeric
		k := 1 + int(mode>>2&3)
		var s Scratch
		n := x.Len()
		for _, m := range []int{n, n / 2, 2, n, n - 1} {
			if m < 2 || m > n {
				continue
			}
			cs, ys := x.Str[:m], y.Num[:m]
			got := s.DCKSG(cs, ys, k)
			want, ok := got, false
			if finite {
				func() {
					defer func() { _ = recover() }()
					want, ok = dcksgReference(cs, ys, k), true
				}()
			}
			if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d k=%d: kernel %v (%#x), reference %v (%#x)", m, k,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
