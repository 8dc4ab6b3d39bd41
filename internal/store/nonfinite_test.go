package store

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/table"
)

// TestInfinitiesAreNull: an inf or -inf cell is NULL to Build and
// StreamBuilder, as an empty cell is, so a sketch never stores ±Inf and
// EstimateMI, EstimateMIScratch and RankBatch (top 0 and 5) answer a
// candidate built from such cells with the same bits. Bytes that carry
// ±Inf anyway are refused by ReadSketch and by Put.
func TestInfinitiesAreNull(t *testing.T) {
	csv := func(inf bool) *table.Table {
		var b strings.Builder
		b.WriteString("key,y,x\n")
		for i := 0; i < 600; i++ {
			y, x := fmt.Sprint(i%5), fmt.Sprint((i*7)%11)
			switch i % 40 {
			case 3:
				x = "inf"
			case 17:
				x = "-inf"
			case 29:
				y = "inf"
			}
			if !inf && strings.HasSuffix(x, "inf") {
				x = ""
			}
			if !inf && y == "inf" {
				y = ""
			}
			fmt.Fprintf(&b, "k%d,%s,%s\n", i%300, y, x)
		}
		tb, err := table.ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	withInf, withNull := csv(true), csv(false)
	opt := core.Options{Method: core.TUPSK, Size: 128}
	build := func(tb *table.Table, col string, role core.Role, stream bool) *core.Sketch {
		t.Helper()
		var sk *core.Sketch
		var err error
		if stream {
			sk, err = core.BuildStreaming(tb, "key", col, role, opt)
		} else {
			sk, err = core.Build(tb, "key", col, role, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckFinite(sk); err != nil {
			t.Fatalf("%s (stream %v): %v", col, stream, err)
		}
		return sk
	}
	var train, cand *core.Sketch
	for _, stream := range []bool{false, true} {
		tr, ca := build(withInf, "y", core.RoleTrain, stream), build(withInf, "x", core.RoleCandidate, stream)
		for _, pair := range [][2]*core.Sketch{{tr, build(withNull, "y", core.RoleTrain, stream)}, {ca, build(withNull, "x", core.RoleCandidate, stream)}} {
			var a, b bytes.Buffer
			pair[0].WriteTo(&a)
			pair[1].WriteTo(&b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("stream %v: the sketch of inf cells differs from the sketch of empty ones", stream)
			}
		}
		if !stream {
			train, cand = tr, ca
		}
	}

	want, err := core.EstimateMI(train, cand, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.EstimateMIScratch(core.CompileTrainProbe(train), cand, mi.DefaultK, &core.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.MI) != math.Float64bits(want.MI) || math.IsNaN(want.MI) {
		t.Fatalf("EstimateMIScratch %v, EstimateMI %v", got.MI, want.MI)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("c", cand); err != nil {
		t.Fatal(err)
	}
	for _, top := range []int{0, 5} {
		res, err := st.RankBatch(context.Background(), []*core.Sketch{train}, RankOptions{TopK: top, K: mi.DefaultK})
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Queries[0].Ranked; len(r) != 1 || math.Float64bits(r[0].MI) != math.Float64bits(want.MI) {
			t.Errorf("top %d: RankBatch %+v (skipped %v), EstimateMI %v", top, r, res.Skipped, want.MI)
		}
	}

	bad := &core.Sketch{
		Method: cand.Method, Role: cand.Role, Seed: cand.Seed, Size: cand.Size, Numeric: true,
		SourceRows: cand.SourceRows, KeyHashes: cand.KeyHashes,
		Nums: append([]float64{math.Inf(-1)}, cand.Nums[1:]...),
	}
	var buf bytes.Buffer
	if _, err := bad.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadSketch(&buf); err == nil {
		t.Error("ReadSketch accepted a sketch holding -Inf")
	}
	if err := st.Put("bad", bad); err == nil {
		t.Error("Put accepted a sketch holding -Inf")
	}
}

// TestNaNValueRanksLikeEstimateMI: a stored numeric candidate may hold
// NaN (only ±Inf is refused), and its pair with a numeric train is
// answered with the same bits by EstimateMI, EstimateMIScratch and
// RankBatch (top 0 and 5), with no rank worker panicking — on a joined
// sample of 3 000 points, full-join scale, and on one of 256, sketch
// scale.
func TestNaNValueRanksLikeEstimateMI(t *testing.T) {
	for _, n := range []int{3000, 256} {
		var b strings.Builder
		b.WriteString("key,y,x\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "k%d,%d,%d\n", i, i%17, (i*7)%23+i%17)
		}
		tb, err := table.ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{Method: core.TUPSK, Size: n}
		train, err := core.Build(tb, "key", "y", core.RoleTrain, opt)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := core.Build(tb, "key", "x", core.RoleCandidate, opt)
		if err != nil {
			t.Fatal(err)
		}
		cand.Nums[cand.Len()/2] = math.NaN()

		want, err := core.EstimateMI(train, cand, mi.DefaultK)
		if err != nil {
			t.Fatal(err)
		}
		if want.N != n {
			t.Fatalf("n=%d: sample size %d", n, want.N)
		}
		got, err := core.EstimateMIScratch(core.CompileTrainProbe(train), cand, mi.DefaultK, &core.Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MI) != math.Float64bits(want.MI) {
			t.Fatalf("n=%d: EstimateMIScratch %v, EstimateMI %v", n, got.MI, want.MI)
		}
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("c", cand); err != nil {
			t.Fatal(err)
		}
		for _, top := range []int{0, 5} {
			res, err := st.RankBatch(context.Background(), []*core.Sketch{train}, RankOptions{TopK: top, K: mi.DefaultK})
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Queries[0].Ranked; len(r) != 1 || math.Float64bits(r[0].MI) != math.Float64bits(want.MI) {
				t.Errorf("n=%d top %d: RankBatch %+v (skipped %v), EstimateMI %v", n, top, r, res.Skipped, want.MI)
			}
		}
		if p := st.Stats().RankPanics; p != 0 {
			t.Errorf("n=%d: %d rank workers panicked", n, p)
		}
		st.Close()
	}
}

// TestStoredInfValueRanks: a record stored before Put refused ±Inf may
// still hold one, and loading does not refuse it. Such a candidate's
// pair with a numeric train is answered with the same bits by
// EstimateMI, EstimateMIScratch and RankBatch (top 0 and 5), with no
// rank worker panicking — the joined values' orders carry ±Inf into the
// neighbour grid's ordered reset — on a joined sample of 3 000 points
// and on one of 256.
func TestStoredInfValueRanks(t *testing.T) {
	for _, n := range []int{3000, 256} {
		var b strings.Builder
		b.WriteString("key,y,x\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "k%d,%d,%d\n", i, i%17, (i*7)%23+i%17)
		}
		tb, err := table.ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{Method: core.TUPSK, Size: n}
		train, err := core.Build(tb, "key", "y", core.RoleTrain, opt)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := core.Build(tb, "key", "x", core.RoleCandidate, opt)
		if err != nil {
			t.Fatal(err)
		}
		cand.Nums[cand.Len()/2] = math.Inf(1)
		cand.Nums[cand.Len()/3] = math.Inf(-1)

		want, err := core.EstimateMI(train, cand, mi.DefaultK)
		if err != nil {
			t.Fatal(err)
		}
		if want.N != n || math.IsNaN(want.MI) {
			t.Fatalf("n=%d: sample size %d, MI %v", n, want.N, want.MI)
		}
		got, err := core.EstimateMIScratch(core.CompileTrainProbe(train), cand, mi.DefaultK, &core.Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MI) != math.Float64bits(want.MI) {
			t.Fatalf("n=%d: EstimateMIScratch %v, EstimateMI %v", n, got.MI, want.MI)
		}
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The backend writes the record as a build older than the check
		// did; the reopen replays it into the catalog.
		if _, _, _, err := st.backend.put("c", cand); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if st, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		for _, top := range []int{0, 5} {
			res, err := st.RankBatch(context.Background(), []*core.Sketch{train}, RankOptions{TopK: top, K: mi.DefaultK})
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Queries[0].Ranked; len(r) != 1 || math.Float64bits(r[0].MI) != math.Float64bits(want.MI) {
				t.Errorf("n=%d top %d: RankBatch %+v (skipped %v), EstimateMI %v", n, top, r, res.Skipped, want.MI)
			}
		}
		if p := st.Stats().RankPanics; p != 0 {
			t.Errorf("n=%d: %d rank workers panicked", n, p)
		}
		st.Close()
	}
}

// TestOverflowingAggregateIsNull: a candidate key whose SUM overflows
// to +Inf is NULL to Build and to StreamBuilder alike.
func TestOverflowingAggregateIsNull(t *testing.T) {
	tb := table.New(
		table.NewStringColumn("key", []string{"a", "a", "b", "b", "c"}),
		table.NewFloatColumn("x", []float64{1e308, 1e308, 1, 2, -1e308}),
	)
	opt := core.Options{Method: core.TUPSK, Size: 16, Agg: table.AggSum}
	for _, stream := range []bool{false, true} {
		build := core.Build
		if stream {
			build = core.BuildStreaming
		}
		sk, err := build(tb, "key", "x", core.RoleCandidate, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sk.Len() != 2 || core.CheckFinite(sk) != nil {
			t.Errorf("stream %v: sketch %v, want the two finite sums 3 and -1e308", stream, sk.Nums)
		}
	}
}
