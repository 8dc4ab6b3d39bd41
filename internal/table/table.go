// Package table is the in-memory relational substrate the sketches and
// experiments run on: typed columns (string and float64), tables, CSV I/O
// with type inference, GROUP BY aggregation (the paper's featurization
// function AGG), and equi-joins including the many-to-one LEFT JOIN that
// defines the data-augmentation setting.
//
// It deliberately implements only what the paper's workloads need — it is
// a substrate, not a general-purpose DBMS — but implements those pieces
// completely: duplicate join keys, NULL-producing left joins, and
// many-to-many inner joins all behave per standard SQL semantics.
package table

import (
	"fmt"
	"math"
	"strconv"
	"sync"
)

// Kind distinguishes the two value distributions the paper works with:
// discrete (string/categorical) and continuous (float64/numerical).
type Kind int

const (
	// KindString marks a categorical column; MI uses discrete estimators.
	KindString Kind = iota
	// KindFloat marks a numerical column; MI uses KSG-family estimators.
	KindFloat
)

// String returns "string" or "float".
func (k Kind) String() string {
	if k == KindString {
		return "string"
	}
	return "float"
}

// NullString is the representation of SQL NULL in string columns.
const NullString = ""

// Column is a named, typed column. Exactly one of Str or Num is populated,
// matching Kind. Float NULLs are NaN; string NULLs are NullString.
//
// Once a column is part of a Table its slices must not be modified: the
// table's key plans, and every table that shares the column (joins and
// WithCompositeKey share, not copy), rely on the values staying put.
type Column struct {
	Name string
	Kind Kind
	Str  []string
	Num  []float64
}

// NewStringColumn returns a categorical column over vals.
func NewStringColumn(name string, vals []string) *Column {
	return &Column{Name: name, Kind: KindString, Str: vals}
}

// NewFloatColumn returns a numerical column over vals.
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: KindFloat, Num: vals}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.Kind == KindString {
		return len(c.Str)
	}
	return len(c.Num)
}

// StringAt returns the value at row i rendered as a string (join keys are
// always compared through this representation).
func (c *Column) StringAt(i int) string {
	if c.Kind == KindString {
		return c.Str[i]
	}
	return strconv.FormatFloat(c.Num[i], 'g', -1, 64)
}

// FloatAt returns the numeric value at row i and whether the column is
// numeric.
func (c *Column) FloatAt(i int) (float64, bool) {
	if c.Kind == KindFloat {
		return c.Num[i], true
	}
	return 0, false
}

// IsNull reports whether row i holds a NULL.
func (c *Column) IsNull(i int) bool {
	if c.Kind == KindString {
		return c.Str[i] == NullString
	}
	return math.IsNaN(c.Num[i])
}

// appendFrom appends row i of src (same kind) to c.
func (c *Column) appendFrom(src *Column, i int) {
	if c.Kind == KindString {
		c.Str = append(c.Str, src.Str[i])
	} else {
		c.Num = append(c.Num, src.Num[i])
	}
}

// appendNull appends a NULL to c.
func (c *Column) appendNull() {
	if c.Kind == KindString {
		c.Str = append(c.Str, NullString)
	} else {
		c.Num = append(c.Num, math.NaN())
	}
}

// emptyLike returns a new empty column with the same name and kind as c.
func (c *Column) emptyLike() *Column {
	return &Column{Name: c.Name, Kind: c.Kind}
}

// Table is a columnar table. All columns have equal length. A table is
// immutable once constructed — no column is added, removed or edited
// after New or WithCompositeKey returns — which is what lets it keep a
// KeyPlan per key column for its whole lifetime without invalidation.
// It is safe for concurrent use.
type Table struct {
	cols   []*Column
	byName map[string]int

	planMu sync.Mutex
	plans  map[string]*KeyPlan // by key column name, built on first use
}

// New builds a table from columns; all must have the same length and
// distinct names.
func New(cols ...*Column) *Table {
	t := &Table{byName: make(map[string]int, len(cols)), plans: map[string]*KeyPlan{}}
	for _, c := range cols {
		t.mustAdd(c)
	}
	return t
}

func (t *Table) mustAdd(c *Column) {
	if len(t.cols) > 0 && c.Len() != t.cols[0].Len() {
		panic(fmt.Sprintf("table: column %q has %d rows, table has %d",
			c.Name, c.Len(), t.cols[0].Len()))
	}
	if _, dup := t.byName[c.Name]; dup {
		panic(fmt.Sprintf("table: duplicate column name %q", c.Name))
	}
	t.byName[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// MustColumn returns the named column or panics.
func (t *Table) MustColumn(name string) *Column {
	c := t.Column(name)
	if c == nil {
		panic(fmt.Sprintf("table: no column %q", name))
	}
	return c
}

// Columns returns the columns in declaration order.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// LeftJoin computes the many-to-one left-outer join of the data
// augmentation setting: every left row appears exactly once; right keys
// must be unique (aggregate first if not — see Aggregate). When
// dropUnmatched is true, left rows without a match are discarded (the
// paper's NULL-handling policy); otherwise they are kept with NULLs.
func LeftJoin(left, right *Table, leftKey, rightKey string, dropUnmatched bool) (*Table, error) {
	lk := left.Column(leftKey)
	rk := right.Column(rightKey)
	if lk == nil || rk == nil {
		return nil, fmt.Errorf("table: join key missing (%q in left: %v, %q in right: %v)",
			leftKey, lk != nil, rightKey, rk != nil)
	}
	idx := make(map[string]int, right.NumRows())
	for j := 0; j < right.NumRows(); j++ {
		if rk.IsNull(j) {
			continue
		}
		k := rk.StringAt(j)
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("table: LeftJoin requires unique right keys; %q is repeated (aggregate first)", k)
		}
		idx[k] = j
	}
	outLeft, outRight := joinOutputColumns(left, right, rightKey)
	for i := 0; i < left.NumRows(); i++ {
		j, ok := -1, false
		if !lk.IsNull(i) {
			j, ok = lookup(idx, lk.StringAt(i))
		}
		if !ok && dropUnmatched {
			continue
		}
		for ci, c := range left.cols {
			outLeft[ci].appendFrom(c, i)
		}
		ri := 0
		for _, c := range right.cols {
			if c.Name == rightKey {
				continue
			}
			if ok {
				outRight[ri].appendFrom(c, j)
			} else {
				outRight[ri].appendNull()
			}
			ri++
		}
	}
	return New(append(outLeft, outRight...)...), nil
}

func lookup(idx map[string]int, k string) (int, bool) {
	j, ok := idx[k]
	return j, ok
}

// joinOutputColumns prepares empty output columns: all of left's, then
// right's non-key columns with collision-safe names.
func joinOutputColumns(left, right *Table, rightKey string) (outLeft, outRight []*Column) {
	taken := make(map[string]bool, left.NumCols())
	for _, c := range left.cols {
		outLeft = append(outLeft, c.emptyLike())
		taken[c.Name] = true
	}
	for _, c := range right.cols {
		if c.Name == rightKey {
			continue
		}
		o := c.emptyLike()
		if taken[o.Name] {
			o.Name = "right." + o.Name
		}
		taken[o.Name] = true
		outRight = append(outRight, o)
	}
	return outLeft, outRight
}

// KeyFrequencies returns the occurrence count of each distinct non-NULL
// key in the column.
func KeyFrequencies(c *Column) map[string]int {
	freq := make(map[string]int, c.Len())
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			continue
		}
		freq[c.StringAt(i)]++
	}
	return freq
}
