package table

import (
	"math"
	"reflect"
	"testing"
)

func TestKeyPlanLayout(t *testing.T) {
	tb := New(
		NewStringColumn("k", []string{"b", "a", "", "b", "c", "a", "b"}),
		NewFloatColumn("f", []float64{2, 1, 1, 2, math.NaN(), 1, 0.5}),
	)
	p, err := tb.KeyPlan("k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.order, []string{"b", "a", "c"}) {
		t.Errorf("order = %v, want first-seen order without the NULL key", p.order)
	}
	var groups [][]int32
	for g := range p.order {
		groups = append(groups, p.Rows(g))
	}
	if !reflect.DeepEqual(groups, [][]int32{{0, 3, 6}, {1, 5}, {4}}) {
		t.Errorf("rows = %v", groups)
	}
	// Float keys group by their rendering, NaN being the NULL key.
	pf, err := tb.KeyPlan("f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pf.order, []string{"2", "1", "0.5"}) || !reflect.DeepEqual(pf.Rows(1), []int32{1, 2, 5}) {
		t.Errorf("float key plan: order %v, rows of \"1\" %v", pf.order, pf.Rows(1))
	}
	if _, err := tb.KeyPlan("zzz"); err == nil {
		t.Error("a plan for a missing column should be an error")
	}
}

func TestKeyPlanBuiltOncePerKeyAndSeed(t *testing.T) {
	tb := New(
		NewStringColumn("k", []string{"a", "b", "a"}),
		NewStringColumn("k2", []string{"x", "x", "y"}),
		NewFloatColumn("v", []float64{1, 2, 3}),
	)
	p1, _ := tb.KeyPlan("k")
	if _, err := Aggregate(tb, "k", "v", AggSum); err != nil {
		t.Fatal(err)
	}
	if p2, _ := tb.KeyPlan("k"); p1 != p2 {
		t.Error("a second request for the same key column built a second plan")
	}
	if other, _ := tb.KeyPlan("k2"); other == p1 || len(other.order) != 2 {
		t.Error("each key column has its own plan")
	}
	h1, h2, h3 := p1.Hashes(7), p1.Hashes(7), p1.Hashes(8)
	if &h1[0] != &h2[0] {
		t.Error("key hashes for one seed were computed twice")
	}
	if h1[0] == h3[0] && h1[1] == h3[1] {
		t.Error("different seeds returned the same hashes")
	}
	// WithCompositeKey returns a new table: it shares columns, not plans.
	ck, err := WithCompositeKey(tb, "kk", []string{"k", "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if p3, _ := ck.KeyPlan("k"); p3 == p1 {
		t.Error("a derived table reused its parent's plan")
	}
}

func TestGroupAggEvaluatesOneGroupAtATime(t *testing.T) {
	tb := New(
		NewStringColumn("k", []string{"a", "b", "a", "c", "b", "a"}),
		NewFloatColumn("v", []float64{3, math.NaN(), 1, math.NaN(), math.Inf(1), 1}),
		NewFloatColumn("w", []float64{3, math.Inf(-1), 1, math.NaN(), math.Inf(1), 1}),
	)
	p, _ := tb.KeyPlan("k")
	ga, err := p.Aggregator(tb.MustColumn("v"), AggMode)
	if err != nil {
		t.Fatal(err)
	}
	if got := ga.Num(0); got != 1 || ga.Evals != 1 {
		t.Errorf("MODE of group a = %v after %d evaluations, want 1 after 1", got, ga.Evals)
	}
	if live := []bool{ga.Live(0), ga.Live(1), ga.Live(2)}; !reflect.DeepEqual(live, []bool{true, true, false}) || ga.Evals != 1 {
		t.Errorf("live = %v after %d evaluations; liveness of a selecting aggregate needs none", live, ga.Evals)
	}
	// +Inf and -Inf average to NaN: group b of w has values and still
	// aggregates to NULL, so Live has to look.
	avg, err := p.Aggregator(tb.MustColumn("w"), AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Live(1) || !avg.Live(0) || avg.Live(2) {
		t.Errorf("AVG liveness = %v %v %v, want true false false", avg.Live(0), avg.Live(1), avg.Live(2))
	}
	if _, err := p.Aggregator(tb.MustColumn("k"), AggAvg); err == nil {
		t.Error("AVG over strings should be rejected")
	}
}
