package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"misketch/internal/core"
	"misketch/internal/corpus"
	"misketch/internal/mi"
	"misketch/internal/stats"
	"misketch/internal/synth"
)

// testCfg is a scaled-down configuration that keeps the suite fast while
// leaving the paper's qualitative shapes intact.
func testCfg() Config {
	return Config{Seed: 7, Trials: 12, Rows: 4000, SketchSize: 256, K: 3}
}

func TestRunFullJoinMatchesPaperClaims(t *testing.T) {
	cfg := testCfg()
	cfg.Rows = 8000
	cfg.Trials = 10
	rs, err := RunFullJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("expected 5 cells, got %d", len(rs))
	}
	for _, r := range rs {
		// Paper: RMSE < 0.07, Pearson > 0.99 at N=10k. Allow slack for
		// the smaller N used in tests.
		if r.RMSE > 0.15 {
			t.Errorf("%s/%s: RMSE %.3f too high", r.Dataset, r.Estimator, r.RMSE)
		}
		if r.Pearson < 0.97 {
			t.Errorf("%s/%s: Pearson %.3f too low", r.Dataset, r.Estimator, r.Pearson)
		}
	}
	var buf bytes.Buffer
	WriteFullJoin(&buf, rs)
	if !strings.Contains(buf.String(), "Section V-B1") {
		t.Error("rendering broken")
	}
}

// seriesByLabel finds a series by label.
func seriesByLabel(t *testing.T, series []*Series, label string) *Series {
	t.Helper()
	for _, s := range series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("no series labelled %q", label)
	return nil
}

func TestRunFig2Shapes(t *testing.T) {
	cfg := testCfg()
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv, tu := res.SeriesByMethod[core.LV2SK], res.SeriesByMethod[core.TUPSK]
	if len(lv) != 6 || len(tu) != 6 {
		t.Fatalf("series counts: %d/%d", len(lv), len(tu))
	}

	// Shape 1 (paper §V-B3): for LV2SK+MLE, KeyDep bias exceeds KeyInd bias.
	lvMLEDep := seriesByLabel(t, lv, "MLE KeyDep")
	lvMLEInd := seriesByLabel(t, lv, "MLE KeyInd")
	depBias := stats.MeanBias(lvMLEDep.Estimates(), lvMLEDep.TrueMIs())
	indBias := stats.MeanBias(lvMLEInd.Estimates(), lvMLEInd.TrueMIs())
	if depBias <= indBias {
		t.Errorf("LV2SK MLE: KeyDep bias (%.3f) should exceed KeyInd bias (%.3f)", depBias, indBias)
	}

	// Shape 2: TUPSK is robust to the key generator — the KeyDep/KeyInd
	// gap is much smaller than LV2SK's for the same estimator.
	tuMLEDep := seriesByLabel(t, tu, "MLE KeyDep")
	tuMLEInd := seriesByLabel(t, tu, "MLE KeyInd")
	tuGap := math.Abs(stats.MeanBias(tuMLEDep.Estimates(), tuMLEDep.TrueMIs()) -
		stats.MeanBias(tuMLEInd.Estimates(), tuMLEInd.TrueMIs()))
	lvGap := depBias - indBias
	if tuGap >= lvGap {
		t.Errorf("TUPSK key-gen gap (%.3f) should be below LV2SK's (%.3f)", tuGap, lvGap)
	}

	// Shape 3: with a limited sample (n=256 ≪ N), the MLE overestimates.
	if depBias <= 0 || stats.MeanBias(tuMLEInd.Estimates(), tuMLEInd.TrueMIs()) <= 0 {
		t.Error("MLE on small sketch joins should overestimate MI")
	}

	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("rendering broken")
	}
}

func TestRunFig3Breakdown(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 16
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shape (paper §V-B4): estimates collapse for high true MI. Compare
	// relative estimates at low vs high MI for TUPSK Mixed-KSG KeyInd.
	s := seriesByLabel(t, res.SeriesByMethod[core.TUPSK], "Mixed-KSG KeyInd")
	var lowRatio, highRatio []float64
	for _, p := range s.Points {
		if p.TrueMI < 3 {
			lowRatio = append(lowRatio, p.Estimate/p.TrueMI)
		}
		if p.TrueMI > 5.2 {
			highRatio = append(highRatio, p.Estimate/p.TrueMI)
		}
	}
	if len(lowRatio) == 0 || len(highRatio) == 0 {
		t.Skip("trial draw did not cover both MI regimes; increase Trials")
	}
	if stats.Mean(highRatio) >= 0.8*stats.Mean(lowRatio) {
		t.Errorf("high-MI estimates should collapse: low ratio %.2f, high ratio %.2f",
			stats.Mean(lowRatio), stats.Mean(highRatio))
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("rendering broken")
	}
}

func TestRunFig4BiasGrowsWithM(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 8
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeriesByM) != len(Fig4M) {
		t.Fatalf("m sweep incomplete: %d", len(res.SeriesByM))
	}
	// Shape (paper §V-B4): MLE bias at m=1024 far exceeds bias at m=16.
	mleSmall := seriesByLabel(t, res.SeriesByM[16], "MLE")
	mleLarge := seriesByLabel(t, res.SeriesByM[1024], "MLE")
	bSmall := stats.MeanBias(mleSmall.Estimates(), mleSmall.TrueMIs())
	bLarge := stats.MeanBias(mleLarge.Estimates(), mleLarge.TrueMIs())
	if bLarge < bSmall+0.5 {
		t.Errorf("MLE bias should grow with m: m=16 -> %.3f, m=1024 -> %.3f", bSmall, bLarge)
	}
	// At m=1024 the MLE estimates live in a compressed high band.
	for _, p := range mleLarge.Points {
		if p.Estimate < 1.5 {
			t.Errorf("m=1024 MLE estimate %.3f unexpectedly low (paper reports all in [2.5,3.5])", p.Estimate)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("rendering broken")
	}
}

func TestRunTable1Shapes(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 10
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 datasets × 5 methods
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(ds string, m core.Method) Table1Row {
		for _, r := range rows {
			if r.Dataset == ds && r.Method == m {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", ds, m)
		return Table1Row{}
	}
	for _, ds := range []string{"CDUnif", "Trinomial"} {
		ind := get(ds, core.INDSK)
		tup := get(ds, core.TUPSK)
		lv := get(ds, core.LV2SK)
		// Shape: independent sampling recovers far fewer join samples
		// than coordinated sampling.
		if ind.AvgJoinSize >= 0.8*tup.AvgJoinSize {
			t.Errorf("%s: INDSK join %.1f should be well below TUPSK %.1f",
				ds, ind.AvgJoinSize, tup.AvgJoinSize)
		}
		// Shape: TUPSK has the lowest MSE among all methods.
		for _, m := range core.Methods {
			if m == core.TUPSK {
				continue
			}
			if tup.MSE > get(ds, m).MSE {
				t.Errorf("%s: TUPSK MSE %.3f exceeds %s MSE %.3f",
					ds, tup.MSE, m, get(ds, m).MSE)
			}
		}
		// Shape: LV2SK and PRISK behave alike (the paper omits PRISK for
		// this reason).
		pri := get(ds, core.PRISK)
		if math.Abs(lv.AvgJoinSize-pri.AvgJoinSize) > 0.25*lv.AvgJoinSize {
			t.Errorf("%s: LV2SK (%.1f) and PRISK (%.1f) join sizes should be close",
				ds, lv.AvgJoinSize, pri.AvgJoinSize)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("rendering broken")
	}
}

// tinyCorpus returns a scaled-down collection for corpus-experiment tests.
func tinyCorpus(name string, seed int64) *corpus.Corpus {
	cfg := corpus.Config{
		Name:         name,
		NumTables:    14,
		NumDomains:   2,
		UniverseSize: 700,
		DomainMin:    250,
		DomainMax:    650,
		RowsMin:      1500,
		RowsMax:      4000,
		ZipfMax:      0.8,
		NumericShare: 0.5,
		Categories:   12,
	}
	return corpus.Generate(cfg, seed)
}

func TestRunTable2AndFig5(t *testing.T) {
	cfg := testCfg()
	cfg.SketchSize = 512
	res, err := RunTable2WithCorpora(cfg, 40, tinyCorpus("NYC", 11), tinyCorpus("WBF", 22))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 2 collections × 3 methods
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Pairs < 5 {
			t.Fatalf("%s/%s: only %d pairs passed the filter", row.Dataset, row.Method, row.Pairs)
		}
		// Sketch estimates must rank pairs consistently with the full
		// join. At this scaled-down corpus size the key-level baselines
		// are noisy, so hold only TUPSK (the method under test) to a
		// non-trivial correlation and the baselines to a positive one.
		min := 0.05
		if row.Method == core.TUPSK {
			min = 0.3
		}
		if row.SpearmanR < min {
			t.Errorf("%s/%s: Spearman %.2f too low", row.Dataset, row.Method, row.SpearmanR)
		}
	}
	// Shape (paper Table II): TUPSK at least matches LV2SK on rank
	// agreement per collection (allow small noise at this test scale).
	byKey := map[string]Table2Row{}
	for _, row := range res.Rows {
		byKey[row.Dataset+"/"+string(row.Method)] = row
	}
	for _, ds := range []string{"NYC", "WBF"} {
		tu, lv := byKey[ds+"/TUPSK"], byKey[ds+"/LV2SK"]
		if tu.SpearmanR < lv.SpearmanR-0.12 {
			t.Errorf("%s: TUPSK Spearman %.2f clearly below LV2SK %.2f", ds, tu.SpearmanR, lv.SpearmanR)
		}
	}

	buckets := RunFig5(res.Records["WBF"])
	if len(buckets) != len(Fig5Thresholds)*3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	var buf bytes.Buffer
	res.Write(&buf)
	WriteFig5(&buf, buckets)
	out := buf.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Figure 5") {
		t.Error("rendering broken")
	}
}

func TestRunPerfShape(t *testing.T) {
	cfg := testCfg()
	rows, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PerfN) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape (paper §V-D): at the largest N, estimating on the sketch join
	// is much cheaper than estimating on the full join, and the sketch
	// join itself is cheaper than the full join.
	last := rows[len(rows)-1]
	if last.SketchEstimate >= last.FullEstimate {
		t.Errorf("sketch MI estimate (%v) should beat full (%v) at N=%d",
			last.SketchEstimate, last.FullEstimate, last.N)
	}
	if last.SketchJoin >= last.FullJoin {
		t.Errorf("sketch join (%v) should beat full join (%v) at N=%d",
			last.SketchJoin, last.FullJoin, last.N)
	}
	// Full-join estimation cost grows with N.
	if rows[0].FullEstimate >= last.FullEstimate {
		t.Errorf("full estimation should grow with N: %v at N=%d vs %v at N=%d",
			rows[0].FullEstimate, rows[0].N, last.FullEstimate, last.N)
	}
	var buf bytes.Buffer
	WritePerf(&buf, rows)
	if !strings.Contains(buf.String(), "Section V-D") {
		t.Error("rendering broken")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := &Series{Label: "x", Points: []Point{
		{TrueMI: 1, Estimate: 1.5, JoinSize: 10},
		{TrueMI: 2, Estimate: 2, JoinSize: 30},
	}}
	if got := s.MSE(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("MSE = %v", got)
	}
	if empty := (&Series{}); empty.MSE() != 0 {
		t.Error("empty series helpers should be 0")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	d := Defaults()
	if d.Rows != 10000 || d.SketchSize != 256 || d.K != mi.DefaultK {
		t.Errorf("Defaults = %+v", d)
	}
	var zero Config
	n := zero.normalized()
	if n.Rows == 0 || n.SketchSize == 0 || n.K == 0 || n.Trials == 0 {
		t.Error("normalized should fill zero values")
	}
	_ = synth.KeyInd // keep import for symmetry in future edits
}

func TestRunCandSizeAblation(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 10
	rows, err := RunCandSizeAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Join recovery must grow monotonically with candidate sketch size,
	// reaching ~100% when the candidate retains all keys, and the MSE
	// must improve (or at least not degrade) along the way.
	for i := 1; i < len(rows); i++ {
		if rows[i].AvgJoinSize < rows[i-1].AvgJoinSize-1 {
			t.Errorf("join size not monotone: %v", rows)
		}
	}
	last := rows[len(rows)-1]
	if last.Pct < 99.5 {
		t.Errorf("unbounded candidate should recover ~100%% of the sketch join, got %.2f%%", last.Pct)
	}
	if last.MSE > rows[0].MSE {
		t.Errorf("unbounded candidate MSE %.3f should not exceed bounded %.3f", last.MSE, rows[0].MSE)
	}
	var buf bytes.Buffer
	WriteAblation(&buf, rows)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("rendering broken")
	}
}

func TestRunConvergenceRate(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 18
	cfg.Rows = 6000
	res, err := RunConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ConvergenceN) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Error must shrink from the smallest to the largest sketch...
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.MeanAbsErr >= first.MeanAbsErr {
		t.Errorf("error did not shrink: n=%d err=%.4f vs n=%d err=%.4f",
			first.SketchSize, first.MeanAbsErr, last.SketchSize, last.MeanAbsErr)
	}
	// ...at something resembling the square-root rate (generous band:
	// estimator bias flattens the tail, so anything clearly decaying with
	// slope in [-1.1, -0.2] counts).
	if res.Rate < -1.1 || res.Rate > -0.2 {
		t.Errorf("decay rate %.3f outside the near-sqrt band", res.Rate)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "convergence") {
		t.Error("rendering broken")
	}
}

func TestLinearFitViaConvergenceHelper(t *testing.T) {
	slope, intercept := stats.LinearFit([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9})
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Errorf("fit = (%v, %v), want (2, 1)", slope, intercept)
	}
	s2, i2 := stats.LinearFit([]float64{5, 5}, []float64{1, 2})
	if !math.IsNaN(s2) || i2 != 1.5 {
		t.Errorf("degenerate fit = (%v, %v)", s2, i2)
	}
}

func TestRunSmoothingControlsFalseDiscoveries(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 24 // -> 6 dependent / 24 candidates
	cfg.Rows = 8000
	res, err := RunSmoothing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Smoothing must not rank worse than the raw MLE, and must push null
	// scores down much harder than signal scores.
	if res.PrecisionSmoothed < res.PrecisionRaw {
		t.Errorf("smoothed precision %.2f below raw %.2f", res.PrecisionSmoothed, res.PrecisionRaw)
	}
	if res.NullMeanSmoothed >= 0.6*res.NullMeanRaw {
		t.Errorf("smoothing should slash null scores: %.3f vs %.3f",
			res.NullMeanSmoothed, res.NullMeanRaw)
	}
	// Smoothing dilutes absolute scores (α adds mass to every joint
	// cell), so only require that a meaningful fraction of the signal
	// survives — the ranking metric above is what matters.
	if res.SignalMeanSmoothed < 0.2*res.SignalMeanRaw {
		t.Errorf("smoothing destroyed the signal: %.3f vs %.3f",
			res.SignalMeanSmoothed, res.SignalMeanRaw)
	}
	// The separation (signal minus null) must improve under smoothing.
	sepRaw := res.SignalMeanRaw - res.NullMeanRaw
	sepSm := res.SignalMeanSmoothed - res.NullMeanSmoothed
	if sepSm <= sepRaw {
		t.Errorf("smoothing should widen the signal/null gap: %.3f vs %.3f", sepSm, sepRaw)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "false-discovery") {
		t.Error("rendering broken")
	}
}
