package core

// The key plan's contract, tested from the sketch side: every sketch is
// byte-identical to what the pre-plan build produced (refBuild below is
// that build, frozen), however the plan came to exist — fresh, warmed by
// another column, or shared by concurrent builds — and an aggregated
// candidate build evaluates AGG only for the groups it keeps.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"misketch/internal/hash"
	"misketch/internal/sample"
	"misketch/internal/table"
)

// --- the frozen reference: aggregate the whole table, then sample ---

// refAggregate is table.Aggregate as it was before the key plan: group
// through a map of row lists, aggregate every group.
func refAggregate(t *table.Table, keyCol, valCol string, agg table.AggFunc) (*table.Table, error) {
	kc, vc := t.Column(keyCol), t.Column(valCol)
	outKind, ok := agg.OutputKind(vc.Kind)
	if !ok {
		return nil, fmt.Errorf("table: aggregate %q does not support %s input", agg, vc.Kind)
	}
	var order []string
	groups := map[string][]int{}
	for i := 0; i < t.NumRows(); i++ {
		if kc.IsNull(i) {
			continue
		}
		k := kc.StringAt(i)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	outVal := &table.Column{Name: valCol, Kind: outKind}
	emit := func(i int) { // row i of vc, or NULL when i < 0
		switch {
		case outKind == table.KindFloat && i < 0:
			outVal.Num = append(outVal.Num, math.NaN())
		case outKind == table.KindFloat:
			outVal.Num = append(outVal.Num, vc.Num[i])
		case i < 0:
			outVal.Str = append(outVal.Str, table.NullString)
		default:
			outVal.Str = append(outVal.Str, vc.Str[i])
		}
	}
	for _, k := range order {
		var live []int
		for _, i := range groups[k] {
			if !vc.IsNull(i) {
				live = append(live, i)
			}
		}
		if agg == table.AggCount {
			outVal.Num = append(outVal.Num, float64(len(live)))
			continue
		}
		if len(live) == 0 {
			emit(-1)
			continue
		}
		switch agg {
		case table.AggFirst:
			emit(live[0])
		case table.AggMode:
			counts, firstAt := map[string]int{}, map[string]int{}
			for _, i := range live {
				v := vc.StringAt(i)
				counts[v]++
				if _, ok := firstAt[v]; !ok {
					firstAt[v] = i
				}
			}
			bestIdx, bestCount := -1, -1
			for _, i := range live {
				if v := vc.StringAt(i); counts[v] > bestCount {
					bestCount, bestIdx = counts[v], firstAt[v]
				}
			}
			emit(bestIdx)
		case table.AggMin, table.AggMax:
			best := live[0]
			for _, i := range live[1:] {
				var better bool
				switch {
				case vc.Kind == table.KindFloat && agg == table.AggMax:
					better = vc.Num[i] > vc.Num[best]
				case vc.Kind == table.KindFloat:
					better = vc.Num[i] < vc.Num[best]
				case agg == table.AggMax:
					better = vc.Str[i] > vc.Str[best]
				default:
					better = vc.Str[i] < vc.Str[best]
				}
				if better {
					best = i
				}
			}
			emit(best)
		case table.AggAvg, table.AggSum:
			s := 0.0
			for _, i := range live {
				s += vc.Num[i]
			}
			if agg == table.AggAvg {
				s /= float64(len(live))
			}
			outVal.Num = append(outVal.Num, s)
		case table.AggMedian:
			vals := make([]float64, len(live))
			for j, i := range live {
				vals[j] = vc.Num[i]
			}
			sort.Float64s(vals)
			if n := len(vals); n%2 == 1 {
				outVal.Num = append(outVal.Num, vals[n/2])
			} else {
				outVal.Num = append(outVal.Num, (vals[n/2-1]+vals[n/2])/2)
			}
		}
	}
	return table.New(table.NewStringColumn(keyCol, order), outVal), nil
}

// refBuild is Build as it was before the key plan: recode NULLs into a
// new table, aggregate the candidate into another, hash every row's key.
func refBuild(t *table.Table, keyCol, valCol string, role Role, opt Options) (*Sketch, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	kc, vc := t.Column(keyCol), t.Column(valCol)
	if kc == nil || vc == nil {
		return nil, fmt.Errorf("core: missing column (%q: %v, %q: %v)", keyCol, kc != nil, valCol, vc != nil)
	}
	if opt.Nulls == NullAsCategory {
		if vc.Kind != table.KindString {
			return nil, fmt.Errorf("core: NullAsCategory requires a categorical value column")
		}
		replaced := make([]string, vc.Len())
		for i := range replaced {
			if replaced[i] = vc.Str[i]; vc.IsNull(i) {
				replaced[i] = NullCategory
			}
		}
		if keyCol == valCol {
			return nil, fmt.Errorf("core: key and value columns must differ")
		}
		t = table.New(kc, table.NewStringColumn(valCol, replaced))
		kc, vc = t.MustColumn(keyCol), t.MustColumn(valCol)
	}
	if vc.Kind == table.KindFloat {
		// ±Inf is NULL, as NaN is.
		nums := make([]float64, vc.Len())
		for i, v := range vc.Num {
			if nums[i] = v; math.IsInf(v, 0) {
				nums[i] = math.NaN()
			}
		}
		t = table.New(kc, table.NewFloatColumn(valCol, nums))
		kc, vc = t.MustColumn(keyCol), t.MustColumn(valCol)
	}
	if role == RoleCandidate && opt.Method != CSK {
		agg, err := refAggregate(t, keyCol, valCol, opt.Agg)
		if err != nil {
			return nil, err
		}
		t = agg
		kc, vc = t.MustColumn(keyCol), t.MustColumn(valCol)
	}
	s := &Sketch{Method: opt.Method, Role: role, Seed: opt.Seed, Size: opt.Size, Numeric: vc.Kind == table.KindFloat}
	add := func(hk uint32, row int) {
		s.KeyHashes = append(s.KeyHashes, hk)
		if s.Numeric {
			s.Nums = append(s.Nums, vc.Num[row])
		} else {
			s.Strs = append(s.Strs, vc.Str[row])
		}
	}
	occ := make(map[uint32]uint32, t.NumRows())
	var live []liveRow
	for i := 0; i < t.NumRows(); i++ {
		if kc.IsNull(i) || vc.IsNull(i) || s.Numeric && math.IsInf(vc.Num[i], 0) { // an aggregate that overflowed
			continue
		}
		hk := hash.Key(kc.StringAt(i), opt.Seed)
		occ[hk]++
		live = append(live, liveRow{rowRef{hk, i}, occ[hk]})
	}
	s.SourceRows = len(live)
	if len(live) == 0 {
		return s, nil
	}
	switch opt.Method {
	case TUPSK, CSK:
		kmv := sample.NewKMV[rowRef](opt.Size)
		for _, r := range live {
			if opt.Method == TUPSK {
				kmv.Offer(hash.UnitTuple(r.keyHash, r.j, opt.Seed), r.rowRef)
			} else if r.j == 1 {
				kmv.Offer(hash.Unit32(r.keyHash), r.rowRef)
			}
		}
		for _, r := range kmv.Items() {
			add(r.keyHash, r.row)
		}
	case LV2SK, PRISK:
		rowsByKey := make(map[uint32][]int, len(occ))
		for _, r := range live {
			rowsByKey[r.keyHash] = append(rowsByKey[r.keyHash], r.row)
		}
		n := opt.Size
		var selected []uint32
		if opt.Method == PRISK {
			pri := sample.NewPriority[uint32](n)
			for hk, rows := range rowsByKey {
				pri.Offer(float64(len(rows)), hash.Unit32(hk), hk)
			}
			selected = pri.Items()
			sort.Slice(selected, func(a, b int) bool { return hash.Unit32(selected[a]) < hash.Unit32(selected[b]) })
		} else {
			kmv := sample.NewKMV[uint32](n)
			for hk := range rowsByKey {
				kmv.Offer(hash.Unit32(hk), hk)
			}
			selected = kmv.Items()
		}
		rng := rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), uint64(role))))
		for _, hk := range selected {
			rows := rowsByKey[hk]
			nk := int(math.Floor(float64(n) * float64(len(rows)) / float64(len(live))))
			nk = min(max(nk, 1), len(rows))
			for _, pick := range sample.WithoutReplacement(len(rows), nk, rng) {
				add(hk, rows[pick])
			}
		}
	case INDSK:
		rng := rand.New(rand.NewSource(hash.SubSeed(uint64(opt.RNGSeed), 0x1d5+uint64(role))))
		for _, pick := range sample.WithoutReplacement(len(live), opt.Size, rng) {
			add(live[pick].keyHash, live[pick].row)
		}
	}
	return s, nil
}

// --- the generator ---

// collidingKeys returns two distinct keys with equal hash.Key under the
// default seed, found by birthday search.
func collidingKeys(tb testing.TB) (string, string) {
	seen := make(map[uint32]string, 1<<18)
	for i := 0; i < 1<<22; i++ {
		k := fmt.Sprintf("c%d", i)
		h := hash.Key(k, hash.DefaultSeed)
		if prev, ok := seen[h]; ok {
			return prev, k
		}
		seen[h] = k
	}
	tb.Fatal("no 32-bit key-hash collision found")
	return "", ""
}

// planValueCols are the value columns of every generated table.
var planValueCols = []string{"num", "numinf", "str", "sparse"}

// genPlanTable returns a rows-row table over about keys distinct keys
// with repeated and NULL keys, NULL values, groups whose values are all
// NULL, a numeric column holding both infinities, and — when collide is
// set — two keys that share a key hash, their rows interleaved. The key
// column is numeric when numericKey is set.
func genPlanTable(rng *rand.Rand, rows, keys int, numericKey bool, collide [2]string) *table.Table {
	keyStr := make([]string, rows)
	keyNum := make([]float64, rows)
	num := make([]float64, rows)
	numinf := make([]float64, rows)
	str := make([]string, rows)
	sparse := make([]string, rows)
	for i := 0; i < rows; i++ {
		g := rng.Intn(keys)
		keyStr[i], keyNum[i] = fmt.Sprintf("k%d", g), float64(g)/4
		switch {
		case rng.Intn(12) == 0:
			keyStr[i], keyNum[i] = table.NullString, math.NaN()
		case collide[0] != "" && rng.Intn(6) == 0:
			keyStr[i] = collide[rng.Intn(2)]
		}
		num[i] = math.Round(rng.NormFloat64()*4) / 2 // repeats, and both zeros
		numinf[i] = float64(rng.Intn(5))
		str[i] = fmt.Sprintf("v%d", rng.Intn(4))
		sparse[i] = fmt.Sprintf("s%d", rng.Intn(3))
		if rng.Intn(5) == 0 {
			num[i], str[i] = math.NaN(), table.NullString
		}
		if rng.Intn(9) == 0 {
			numinf[i] = math.Inf(1 - 2*rng.Intn(2))
		}
		if g%3 == 0 || rng.Intn(3) == 0 { // every third key: a group of NULLs only
			sparse[i] = table.NullString
		}
		if g%7 == 0 {
			num[i] = math.NaN()
		}
	}
	key := table.NewStringColumn("key", keyStr)
	if numericKey {
		key = table.NewFloatColumn("key", keyNum)
	}
	return table.New(key, table.NewFloatColumn("num", num), table.NewFloatColumn("numinf", numinf),
		table.NewStringColumn("str", str), table.NewStringColumn("sparse", sparse))
}

var allAggs = []table.AggFunc{table.AggFirst, table.AggAvg, table.AggSum, table.AggCount,
	table.AggMin, table.AggMax, table.AggMode, table.AggMedian, "bogus"}

func sketchBytes(tb testing.TB, s *Sketch) []byte {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsReference builds (key, col) of t both ways and fails unless they
// agree on the error or on every byte.
func sameAsReference(t *testing.T, tb *table.Table, col string, role Role, opt Options) {
	t.Helper()
	got, gotErr := Build(tb, "key", col, role, opt)
	want, wantErr := refBuild(tb, "key", col, role, opt)
	what := fmt.Sprintf("%s role=%d %s agg=%q size=%d nulls=%d", col, role, opt.Method, opt.Agg, opt.Size, opt.Nulls)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(sketchBytes(t, got), sketchBytes(t, want)) {
		t.Fatalf("%s: sketch differs from the reference build\n got %d entries over %d rows: %v\nwant %d entries over %d rows: %v",
			what, got.Len(), got.SourceRows, got.KeyHashes, want.Len(), want.SourceRows, want.KeyHashes)
	}
}

// TestBuildMatchesFrozenReference is the differential: every method,
// role, aggregate, NULL policy and size, over string- and numeric-keyed
// tables, small and large groups, with and without a forced key-hash
// collision.
func TestBuildMatchesFrozenReference(t *testing.T) {
	a, b := collidingKeys(t)
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name       string
		keys       int
		numericKey bool
		collide    [2]string
	}{
		{"string keys", 120, false, [2]string{}},
		{"numeric keys", 120, true, [2]string{}},
		{"colliding keys", 120, false, [2]string{a, b}},
		{"large groups", 9, false, [2]string{a, b}}, // ~100 rows a key: MODE counts through its map
	} {
		tb := genPlanTable(rng, 900, tc.keys, tc.numericKey, tc.collide)
		for _, method := range Methods {
			for _, role := range []Role{RoleTrain, RoleCandidate} {
				for _, size := range []int{1, 8, 256, 4096} {
					for _, nulls := range []NullPolicy{NullDrop, NullAsCategory} {
						for _, agg := range allAggs {
							if role == RoleTrain && agg != table.AggFirst {
								continue // the train side ignores Agg
							}
							for _, col := range planValueCols {
								opt := Options{Method: method, Size: size, Agg: agg, Nulls: nulls, RNGSeed: 3}
								sameAsReference(t, tb, col, role, opt)
							}
						}
					}
				}
			}
		}
		if t.Failed() {
			t.Fatalf("%s", tc.name)
		}
	}
}

// TestBuildOrderIndependent sketches the value columns of equal tables
// in every order: whichever build happens to construct the plan, and
// whatever the plan has served before, the bytes are the reference's.
func TestBuildOrderIndependent(t *testing.T) {
	a, b := collidingKeys(t)
	var permute func(cols []string, k int, visit func([]string))
	permute = func(cols []string, k int, visit func([]string)) {
		if k == len(cols) {
			visit(cols)
			return
		}
		for i := k; i < len(cols); i++ {
			cols[k], cols[i] = cols[i], cols[k]
			permute(cols, k+1, visit)
			cols[k], cols[i] = cols[i], cols[k]
		}
	}
	permute(append([]string(nil), planValueCols...), 0, func(order []string) {
		tb := genPlanTable(rand.New(rand.NewSource(29)), 600, 90, false, [2]string{a, b})
		for _, col := range order {
			sameAsReference(t, tb, col, RoleCandidate, Options{Method: TUPSK, Size: 32, Agg: table.AggMode})
			sameAsReference(t, tb, col, RoleCandidate, Options{Method: LV2SK, Size: 32, Agg: table.AggCount, Seed: 99})
			sameAsReference(t, tb, col, RoleTrain, Options{Method: TUPSK, Size: 32})
		}
	})
}

// TestConcurrentBuildsShareOnePlan has eight goroutines sketch different
// columns of one fresh table at once (run it under -race): they build
// one plan and one hash list per seed between them, and every sketch is
// the serial build's.
func TestConcurrentBuildsShareOnePlan(t *testing.T) {
	type job struct {
		col  string
		role Role
		opt  Options
	}
	var jobs []job
	for i, col := range planValueCols {
		jobs = append(jobs,
			job{col, RoleCandidate, Options{Method: TUPSK, Size: 64, Agg: table.AggMode, Seed: uint32(i % 2)}},
			job{col, RoleTrain, Options{Method: LV2SK, Size: 64, RNGSeed: 1, Seed: uint32(i % 2)}})
	}
	fresh := func() *table.Table { return genPlanTable(rand.New(rand.NewSource(5)), 4000, 700, false, [2]string{}) }
	serial := fresh()
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		s, err := Build(serial, "key", j.col, j.role, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sketchBytes(t, s)
	}
	for round := 0; round < 4; round++ {
		tb := fresh()
		plans := make([]*table.KeyPlan, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := Build(tb, "key", j.col, j.role, j.opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(sketchBytes(t, s), want[i]) {
					t.Errorf("%s: concurrent build differs from the serial one", j.col)
				}
				plans[i], _ = tb.KeyPlan("key")
			}()
		}
		wg.Wait()
		for _, p := range plans[1:] {
			if p != plans[0] {
				t.Fatal("concurrent builds saw different plans for one table and key")
			}
		}
		for _, seed := range []uint32{hash.DefaultSeed, 1} {
			if h1, h2 := plans[0].Hashes(seed), plans[0].Hashes(seed); &h1[0] != &h2[0] {
				t.Fatalf("seed %d: key hashes computed twice", seed)
			}
		}
	}
}

// sharedCSV is a CSV table with 300 keys repeated over 1 500 rows: n1,
// n2, c1 and c2 have a value in every group, n3 has none in the groups
// of every seventh key, so AVG leaves those groups NULL.
func sharedCSV() []byte {
	rng := rand.New(rand.NewSource(31))
	var b bytes.Buffer
	b.WriteString("key,n1,n2,n3,c1,c2\n")
	for r := 0; r < 1500; r++ {
		g := rng.Intn(300)
		n3 := ""
		if g%7 != 0 {
			n3 = fmt.Sprint(rng.Intn(100))
		}
		fmt.Fprintf(&b, "k%d,%.4f,%.3g,%s,grade-%d,site-%d\n", g, float64(g%13)+rng.NormFloat64(), rng.NormFloat64(), n3, g%20, rng.Intn(15))
	}
	return b.Bytes()
}

// TestSharedSelectionMatchesFreshBuilds builds every value column of one
// CSV table — in sequence, then from one goroutine a column at once — as
// an ingest does, under two seeds and two sizes: the plan's shared
// selection serves every column whose groups are all live, and each
// sketch must equal, byte for byte, the same build over a freshly read
// copy of the table and the frozen reference. n3's NULL groups send its
// build down the unshared path.
func TestSharedSelectionMatchesFreshBuilds(t *testing.T) {
	in := sharedCSV()
	read := func() *table.Table {
		tb, err := table.ReadCSV(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	type job struct {
		col string
		opt Options
	}
	var jobs []job
	for _, seed := range []uint32{0, 7} {
		for _, size := range []int{64, 512} {
			for _, col := range []string{"n1", "n2", "n3", "c1", "c2"} {
				agg := table.AggAvg
				if col[0] == 'c' {
					agg = table.AggMode
				}
				jobs = append(jobs, job{col, Options{Method: TUPSK, Size: size, Seed: seed, Agg: agg}})
			}
		}
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		fresh, err := Build(read(), "key", j.col, RoleCandidate, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refBuild(read(), "key", j.col, RoleCandidate, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		if want[i] = sketchBytes(t, fresh); !bytes.Equal(want[i], sketchBytes(t, ref)) {
			t.Fatalf("%s %+v: a fresh table's build differs from the frozen reference", j.col, j.opt)
		}
	}
	tb := read()
	for i, j := range jobs {
		s, err := Build(tb, "key", j.col, RoleCandidate, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sketchBytes(t, s), want[i]) {
			t.Errorf("%s %+v: built after the table's other columns, differs from a fresh table's build", j.col, j.opt)
		}
	}
	for round := 0; round < 4; round++ {
		tb := read()
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := Build(tb, "key", j.col, RoleCandidate, j.opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(sketchBytes(t, s), want[i]) {
					t.Errorf("%s %+v: built beside the table's other columns, differs from a fresh table's build", j.col, j.opt)
				}
			}()
		}
		wg.Wait()
	}
}

// TestCategoricalValuesOwnTheirMemory builds categorical sketches of a
// table read from plain CSV, whose cells are substrings of the input:
// through an aggregate, through the rows of a train and through CSK's
// first values, no kept value may point into that input, or every
// sketch would keep its table's whole input alive.
func TestCategoricalValuesOwnTheirMemory(t *testing.T) {
	tb, err := table.ReadCSV(bytes.NewReader(sharedCSV()))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ^uintptr(0), uintptr(0) // the cells' span
	for _, c := range tb.Columns() {
		for _, v := range c.Str {
			if v != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
				lo, hi = min(lo, p), max(hi, p+uintptr(len(v)))
			}
		}
	}
	for _, b := range []struct {
		role Role
		opt  Options
	}{
		{RoleCandidate, Options{Method: TUPSK, Size: 64, Agg: table.AggMode}},
		{RoleTrain, Options{Method: TUPSK, Size: 64}},
		{RoleCandidate, Options{Method: CSK, Size: 64}},
	} {
		s, err := Build(tb, "key", "c1", b.role, b.opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Strs) == 0 {
			t.Fatalf("%+v: no values", b.opt)
		}
		for _, v := range s.Strs {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); p >= lo && p < hi {
				t.Fatalf("%s %+v: value %q points into the table's input", b.opt.Method, b.opt, v)
			}
		}
	}
}

// --- scaling guards: counted, not timed ---

// wideKeyTable has rows rows over keys distinct keys, two numeric and
// two categorical value columns.
func wideKeyTable(rows, keys int) *table.Table {
	rng := rand.New(rand.NewSource(17))
	key, c1, c2 := make([]string, rows), make([]string, rows), make([]string, rows)
	n1, n2 := make([]float64, rows), make([]float64, rows)
	for i := range key {
		g := i % keys
		key[i], c1[i], c2[i] = fmt.Sprintf("k%d", g), fmt.Sprintf("g%d", g%20), fmt.Sprintf("s%d", rng.Intn(15))
		n1[i], n2[i] = float64(g%13)+rng.NormFloat64(), rng.NormFloat64()
	}
	return table.New(table.NewStringColumn("key", key), table.NewFloatColumn("n1", n1), table.NewFloatColumn("n2", n2),
		table.NewStringColumn("c1", c1), table.NewStringColumn("c2", c2))
}

// TestLaterColumnsDoNoKeyWork bounds the allocations of sketching the
// second to fourth value column of a table by a constant: with the plan
// in place there is no string-keyed map to fill and nothing is sized by
// the row count, so ten times the rows allocate the same — but for the
// aggregator's scratch, which grows to the largest group in a few steps
// (regrouping 500 keys would add a row list per key and column).
func TestLaterColumnsDoNoKeyWork(t *testing.T) {
	measure := func(rows int) float64 {
		tb := wideKeyTable(rows, 500)
		if _, err := Build(tb, "key", "n1", RoleCandidate, Options{Method: TUPSK, Size: 256, Agg: table.AggAvg}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			for _, c := range []struct {
				col string
				agg table.AggFunc
			}{{"n2", table.AggAvg}, {"c1", table.AggMode}, {"c2", table.AggMode}} {
				s, err := Build(tb, "key", c.col, RoleCandidate, Options{Method: TUPSK, Size: 256, Agg: c.agg})
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != 256 {
					t.Fatalf("%s: %d entries, want a full sketch over 500 keys", c.col, s.Len())
				}
			}
		})
	}
	small, large := measure(2000), measure(20000)
	if large > small+64 {
		t.Errorf("sketching columns 2-4 allocates %v times at 20 000 rows, %v at 2 000: something scales with rows", large, small)
	}
}

// TestAggregatesOnlySampledGroups counts the groups a size-256 candidate
// build evaluates AGG for: at most 256, at 5 000 distinct keys and at
// 50 000.
func TestAggregatesOnlySampledGroups(t *testing.T) {
	defer func() { testHookAggregated = nil }()
	for _, keys := range []int{5000, 50000} {
		tb := wideKeyTable(2*keys, keys)
		for _, method := range []Method{TUPSK, LV2SK, PRISK, INDSK} {
			for _, agg := range []table.AggFunc{table.AggAvg, table.AggMedian, table.AggCount} {
				evaluated := -1
				testHookAggregated = func(groups int) { evaluated = groups }
				s, err := Build(tb, "key", "n1", RoleCandidate, Options{Method: method, Size: 256, Agg: agg})
				if err != nil {
					t.Fatal(err)
				}
				if evaluated != s.Len() || evaluated > 256 {
					t.Errorf("%d keys, %s/%s: aggregated %d groups for a %d-entry sketch", keys, method, agg, evaluated, s.Len())
				}
			}
		}
	}
}
