package table

import (
	"math"
	"reflect"
	"testing"
)

func strCol(name string, vals ...string) *Column  { return NewStringColumn(name, vals) }
func numCol(name string, vals ...float64) *Column { return NewFloatColumn(name, vals) }

func TestColumnBasics(t *testing.T) {
	s := strCol("k", "a", "b", "")
	if s.Len() != 3 || s.Kind != KindString {
		t.Fatal("string column basics")
	}
	if !s.IsNull(2) || s.IsNull(0) {
		t.Error("string NULL detection")
	}
	n := numCol("v", 1.5, math.NaN())
	if n.Len() != 2 || n.Kind != KindFloat {
		t.Fatal("float column basics")
	}
	if !n.IsNull(1) || n.IsNull(0) {
		t.Error("float NULL detection")
	}
	if n.StringAt(0) != "1.5" {
		t.Errorf("StringAt = %q", n.StringAt(0))
	}
	if v, ok := n.FloatAt(0); !ok || v != 1.5 {
		t.Error("FloatAt on float column")
	}
	if _, ok := s.FloatAt(0); ok {
		t.Error("FloatAt should fail on string column")
	}
	if KindString.String() != "string" || KindFloat.String() != "float" {
		t.Error("Kind.String")
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { New(strCol("a", "x"), strCol("b", "x", "y")) },
		"duplicate name":  func() { New(strCol("a", "x"), strCol("a", "y")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTableAccessors(t *testing.T) {
	tb := New(strCol("k", "a", "b"), numCol("v", 1, 2))
	if tb.NumRows() != 2 || tb.NumCols() != 2 {
		t.Fatal("dimensions")
	}
	if tb.Column("k") == nil || tb.Column("missing") != nil {
		t.Error("Column lookup")
	}
	if !reflect.DeepEqual(tb.ColumnNames(), []string{"k", "v"}) {
		t.Error("ColumnNames")
	}
	if New().NumRows() != 0 {
		t.Error("empty table rows")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustColumn should panic on missing column")
			}
		}()
		tb.MustColumn("nope")
	}()
}

func TestLeftJoinManyToOne(t *testing.T) {
	left := New(strCol("k", "a", "a", "b", "c"), numCol("y", 1, 2, 3, 4))
	right := New(strCol("k", "a", "b"), numCol("x", 10, 20))
	// Keep unmatched: 4 rows, c gets NULL.
	j, err := LeftJoin(left, right, "k", "k", false)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d", j.NumRows())
	}
	x := j.Column("x").Num
	if x[0] != 10 || x[1] != 10 || x[2] != 20 || !math.IsNaN(x[3]) {
		t.Errorf("x = %v", x)
	}
	// Drop unmatched: 3 rows.
	j2, err := LeftJoin(left, right, "k", "k", true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", j2.NumRows())
	}
}

func TestLeftJoinRejectsDuplicateRightKeys(t *testing.T) {
	left := New(strCol("k", "a"))
	right := New(strCol("k", "a", "a"), numCol("x", 1, 2))
	if _, err := LeftJoin(left, right, "k", "k", true); err == nil {
		t.Error("expected duplicate-key error")
	}
}

func TestJoinColumnNameCollision(t *testing.T) {
	left := New(strCol("k", "a"), numCol("v", 1))
	right := New(strCol("k", "a"), numCol("v", 2))
	j, err := LeftJoin(left, right, "k", "k", true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Column("v").Num[0] != 1 || j.Column("right.v").Num[0] != 2 {
		t.Errorf("collision handling failed: %v", j.ColumnNames())
	}
}

func TestLeftJoinPreservesRowCountIdentity(t *testing.T) {
	// The augmentation invariant: with full containment, the left join has
	// exactly the left table's rows.
	left := New(strCol("k", "a", "b", "a", "c", "b"), numCol("y", 1, 2, 3, 4, 5))
	right := New(strCol("k", "a", "b", "c"), strCol("x", "u", "v", "w"))
	j, err := LeftJoin(left, right, "k", "k", true)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != left.NumRows() {
		t.Errorf("rows = %d, want %d", j.NumRows(), left.NumRows())
	}
	// Repeated keys in the left produce repeated feature values.
	want := []string{"u", "v", "u", "w", "v"}
	if !reflect.DeepEqual(j.Column("x").Str, want) {
		t.Errorf("x = %v, want %v", j.Column("x").Str, want)
	}
}

func TestKeyFrequencies(t *testing.T) {
	c := strCol("k", "a", "b", "a", "", "a")
	got := KeyFrequencies(c)
	if got["a"] != 3 || got["b"] != 1 || len(got) != 2 {
		t.Errorf("KeyFrequencies = %v", got)
	}
}
