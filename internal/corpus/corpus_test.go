package corpus

import (
	"math"
	"math/rand"
	"testing"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/table"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(NYCConfig(), 42)
	b := Generate(NYCConfig(), 42)
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("table counts differ")
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.Domain != tb.Domain || ta.Numeric != tb.Numeric || ta.T.NumRows() != tb.T.NumRows() {
			t.Fatalf("table %d differs across identical seeds", i)
		}
		ka, kb := ta.T.MustColumn(KeyCol).Str, tb.T.MustColumn(KeyCol).Str
		for r := range ka {
			if ka[r] != kb[r] {
				t.Fatalf("table %d row %d keys differ", i, r)
			}
		}
	}
	c := Generate(NYCConfig(), 43)
	diff := false
	for i := range a.Tables {
		if a.Tables[i].T.NumRows() != c.Tables[i].T.NumRows() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different corpora")
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	cfg := NYCConfig()
	c := Generate(cfg, 1)
	if len(c.Tables) != cfg.NumTables {
		t.Fatalf("tables = %d", len(c.Tables))
	}
	sawNumeric, sawString := false, false
	for _, tb := range c.Tables {
		rows := tb.T.NumRows()
		if rows < cfg.RowsMin || rows > cfg.RowsMax {
			t.Errorf("table %d rows %d outside [%d,%d]", tb.ID, rows, cfg.RowsMin, cfg.RowsMax)
		}
		if tb.Domain < 0 || tb.Domain >= cfg.NumDomains {
			t.Errorf("table %d domain %d", tb.ID, tb.Domain)
		}
		freq := table.KeyFrequencies(tb.T.MustColumn(KeyCol))
		if len(freq) > cfg.DomainMax {
			t.Errorf("table %d domain size %d exceeds max", tb.ID, len(freq))
		}
		if tb.Numeric {
			sawNumeric = true
			if tb.T.MustColumn(ValCol).Kind != table.KindFloat {
				t.Errorf("numeric flag mismatch on table %d", tb.ID)
			}
		} else {
			sawString = true
			if tb.T.MustColumn(ValCol).Kind != table.KindString {
				t.Errorf("string flag mismatch on table %d", tb.ID)
			}
		}
	}
	if !sawNumeric || !sawString {
		t.Error("corpus should mix numeric and string value columns")
	}
}

func TestPairsAreJoinable(t *testing.T) {
	c := Generate(WBFConfig(), 2)
	rng := rand.New(rand.NewSource(3))
	pairs := c.Pairs(40, rng)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	joinable := 0
	for _, p := range pairs {
		if p.Train.Domain != p.Cand.Domain {
			t.Fatal("cross-domain pair")
		}
		if p.Train.ID == p.Cand.ID {
			t.Fatal("self pair")
		}
		trainFreq := table.KeyFrequencies(p.Train.T.MustColumn(KeyCol))
		candFreq := table.KeyFrequencies(p.Cand.T.MustColumn(KeyCol))
		overlap := 0
		for k := range trainFreq {
			if _, ok := candFreq[k]; ok {
				overlap++
			}
		}
		if overlap > 0 {
			joinable++
		}
	}
	if float64(joinable) < 0.6*float64(len(pairs)) {
		t.Errorf("only %d/%d pairs have key overlap", joinable, len(pairs))
	}
}

// TestPairsDeterministic holds Pairs to its seed: two corpora generated
// at one seed, drawn with equal rngs, give the same pairs in the same
// order (map iteration order must not reach the shuffle). Each draw
// walks the domains afresh, so several draws make a leak near certain
// to show.
func TestPairsDeterministic(t *testing.T) {
	ca, cb := Generate(NYCConfig(), 7), Generate(NYCConfig(), 7)
	for draw := 0; draw < 5; draw++ {
		a := ca.Pairs(50, rand.New(rand.NewSource(9)))
		b := cb.Pairs(50, rand.New(rand.NewSource(9)))
		if len(a) != len(b) {
			t.Fatalf("%d pairs vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Train.ID != b[i].Train.ID || a[i].Cand.ID != b[i].Cand.ID {
				t.Fatalf("draw %d pair %d: (%d,%d) vs (%d,%d)", draw, i,
					a[i].Train.ID, a[i].Cand.ID, b[i].Train.ID, b[i].Cand.ID)
			}
		}
	}
}

func TestMeasureStatsShapes(t *testing.T) {
	// The two collections must reproduce the paper's structural contrast:
	// WBF joins much larger than NYC joins, NYC train domains much larger
	// than NYC cand domains on average (asymmetric), WBF domains mid-sized.
	rng := rand.New(rand.NewSource(4))
	nyc := MeasureStats(Generate(NYCConfig(), 5).Pairs(120, rng))
	wbf := MeasureStats(Generate(WBFConfig(), 5).Pairs(120, rng))
	if nyc.Pairs == 0 || wbf.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	if wbf.AvgFullJoin <= nyc.AvgFullJoin {
		t.Errorf("WBF joins (%.0f) should exceed NYC joins (%.0f)",
			wbf.AvgFullJoin, nyc.AvgFullJoin)
	}
	if nyc.AvgTrainDomain < 1.5*wbf.AvgTrainDomain {
		t.Errorf("NYC train domains (%.0f) should be much larger than WBF (%.0f)",
			nyc.AvgTrainDomain, wbf.AvgTrainDomain)
	}
}

func TestDependentColumnsYieldHighMI(t *testing.T) {
	// Within a domain, a strongly dependent train column and a strongly
	// dependent cand column must show materially higher full-join MI than
	// an independent pair — otherwise the discovery experiments are
	// meaningless.
	c := Generate(WBFConfig(), 6)
	rng := rand.New(rand.NewSource(7))
	pairs := c.Pairs(len(c.Tables)*len(c.Tables), rng)
	var hiMI, loMI []float64
	for _, p := range pairs {
		if len(hiMI) >= 3 && len(loMI) >= 3 {
			break
		}
		strong := p.Train.Dependence > 0.8 && p.Cand.Dependence > 0.8
		weak := p.Train.Dependence == 0 || p.Cand.Dependence == 0
		if !strong && !weak {
			continue
		}
		r, err := core.FullJoinMI(p.Train.T, KeyCol, ValCol, p.Cand.T, KeyCol, ValCol,
			table.AggFirst, mi.DefaultK)
		if err != nil {
			t.Fatal(err)
		}
		if r.N < 500 {
			continue
		}
		if strong {
			hiMI = append(hiMI, r.MI)
		} else {
			loMI = append(loMI, r.MI)
		}
	}
	if len(hiMI) == 0 || len(loMI) == 0 {
		t.Skip("corpus draw produced no qualifying pairs; adjust seed")
	}
	hi, lo := mean(hiMI), mean(loMI)
	if hi <= lo+0.05 {
		t.Errorf("dependent pairs MI %.3f not above independent pairs MI %.3f", hi, lo)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestZipfSkewProducesRepeatedKeys(t *testing.T) {
	c := Generate(WBFConfig(), 8)
	repeated := 0
	for _, tb := range c.Tables {
		freq := table.KeyFrequencies(tb.T.MustColumn(KeyCol))
		maxN := 0
		for _, n := range freq {
			if n > maxN {
				maxN = n
			}
		}
		if maxN > 3 {
			repeated++
		}
	}
	if repeated < len(c.Tables)/2 {
		t.Errorf("only %d/%d tables have meaningfully repeated keys", repeated, len(c.Tables))
	}
}

func TestPickWeightedUniformAndSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Uniform weights: all indices roughly equally likely.
	cum := cumulative(zipfWeights(10, 0))
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[pickWeighted(cum, rng)]++
	}
	for i, n := range counts {
		if math.Abs(float64(n)-2000) > 300 {
			t.Errorf("uniform pick: index %d drawn %d times", i, n)
		}
	}
	// Strong skew: rank 0 dominates.
	cum = cumulative(zipfWeights(10, 2))
	counts = make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[pickWeighted(cum, rng)]++
	}
	if counts[0] < counts[9]*10 {
		t.Errorf("skewed pick: head %d vs tail %d", counts[0], counts[9])
	}
}

func TestDomainKeyStability(t *testing.T) {
	if domainKey(1, 42) != domainKey(1, 42) {
		t.Error("domainKey must be deterministic")
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := domainKey(3, i)
		if seen[k] {
			t.Fatalf("duplicate key %q at i=%d", k, i)
		}
		seen[k] = true
	}
}

func TestHighCardinalityColumnsPresent(t *testing.T) {
	// HighCardShare must produce some categorical columns with label
	// spaces far beyond Config.Categories — the regime where the MLE's
	// estimates reach the [4,6] nats range of the paper's Figure 5.
	cfg := WBFConfig()
	c := Generate(cfg, 123)
	maxCard := 0
	lowCard := 0
	for _, tb := range c.Tables {
		if tb.Numeric {
			continue
		}
		vals := tb.T.MustColumn(ValCol).Str
		seen := map[string]struct{}{}
		for _, v := range vals {
			seen[v] = struct{}{}
		}
		if len(seen) > maxCard {
			maxCard = len(seen)
		}
		if len(seen) <= cfg.Categories {
			lowCard++
		}
	}
	if maxCard < 3*cfg.Categories {
		t.Errorf("max categorical cardinality %d; expected high-cardinality columns well above %d",
			maxCard, cfg.Categories)
	}
	if lowCard == 0 {
		t.Error("expected some ordinary low-cardinality columns too")
	}
	// Zero share disables the feature.
	cfg2 := cfg
	cfg2.HighCardShare = 0
	c2 := Generate(cfg2, 123)
	for _, tb := range c2.Tables {
		if tb.Numeric {
			continue
		}
		seen := map[string]struct{}{}
		for _, v := range tb.T.MustColumn(ValCol).Str {
			seen[v] = struct{}{}
		}
		if len(seen) > cfg2.Categories {
			t.Errorf("HighCardShare=0 still produced cardinality %d", len(seen))
		}
	}
}
