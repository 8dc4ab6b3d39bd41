package table

import (
	"fmt"
	"math"
	"slices"
)

// AggFunc names a featurization function AGG that collapses the values
// sharing a join key into a single feature value (Section III-B of the
// paper). COUNT always yields a numeric output; MODE and FIRST preserve
// the input kind; the arithmetic aggregates require numeric input.
type AggFunc string

// The supported featurization functions.
const (
	AggAvg    AggFunc = "avg"
	AggSum    AggFunc = "sum"
	AggCount  AggFunc = "count"
	AggMin    AggFunc = "min"
	AggMax    AggFunc = "max"
	AggMode   AggFunc = "mode"
	AggFirst  AggFunc = "first"
	AggMedian AggFunc = "median"
)

// OutputKind returns the column kind AGG produces for the given input
// kind, and whether the combination is supported.
func (a AggFunc) OutputKind(in Kind) (Kind, bool) {
	switch a {
	case AggCount:
		return KindFloat, true
	case AggMode, AggFirst:
		return in, true
	case AggMin, AggMax:
		return in, true // lexicographic for strings, numeric otherwise
	case AggAvg, AggSum, AggMedian:
		return KindFloat, in == KindFloat
	}
	return in, false
}

// Aggregate evaluates
//
//	SELECT keyCol, AGG(valCol) AS valCol FROM t GROUP BY keyCol
//
// returning a table whose key column has unique values, in first-seen
// order. Rows with NULL keys are dropped; NULL values are excluded from
// the aggregate (but a group of only NULLs still emits a row with a NULL
// feature, matching SQL semantics for everything except COUNT, which
// yields 0). The grouping comes from the table's key plan, so repeated
// aggregations over one key regroup nothing.
func Aggregate(t *Table, keyCol, valCol string, agg AggFunc) (*Table, error) {
	kc := t.Column(keyCol)
	vc := t.Column(valCol)
	if kc == nil || vc == nil {
		return nil, fmt.Errorf("table: Aggregate columns missing (%q: %v, %q: %v)",
			keyCol, kc != nil, valCol, vc != nil)
	}
	p, err := t.KeyPlan(keyCol)
	if err != nil {
		return nil, err
	}
	ga, err := p.Aggregator(vc, agg)
	if err != nil {
		return nil, err
	}
	// The key column is a copy: the plan's own slice outlives this result.
	outKey := NewStringColumn(keyCol, slices.Clone(p.order))
	outVal := &Column{Name: valCol, Kind: ga.Kind}
	if ga.Kind == KindFloat {
		outVal.Num = make([]float64, len(p.order))
		for g := range outVal.Num {
			outVal.Num[g] = ga.Num(g)
		}
	} else {
		outVal.Str = make([]string, len(p.order))
		for g := range outVal.Str {
			outVal.Str[g] = ga.Str(g)
		}
	}
	return New(outKey, outVal), nil
}

// AugmentationJoin evaluates the paper's join-aggregation query (Section
// III-B): aggregate the candidate table by its key with AGG, then
// left-join the result onto the train table, discarding unmatched rows:
//
//	SELECT train[keyY], train[Y], aug[X]
//	FROM train LEFT JOIN (SELECT keyZ, AGG(Z) AS X FROM cand GROUP BY keyZ) aug
//	ON train[keyY] = aug[keyZ]
func AugmentationJoin(train *Table, trainKey string, cand *Table, candKey, candVal string, agg AggFunc) (*Table, error) {
	aug, err := Aggregate(cand, candKey, candVal, agg)
	if err != nil {
		return nil, err
	}
	return LeftJoin(train, aug, trainKey, candKey, true)
}

// Float64sEqualNaN compares two float slices treating NaN == NaN, a test
// helper shared by this package's consumers.
func Float64sEqualNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
