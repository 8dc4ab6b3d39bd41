// Package exp contains one runner per table and figure in the paper's
// evaluation (Section V), each regenerating the corresponding rows or
// series: the full-join estimator baseline (V-B1), Figures 2–5, Tables I
// and II, and the performance numbers from V-D.
//
// Runners return structured results and can render them as fixed-width
// text matching the layout of the paper's artifacts. Absolute numbers
// depend on the machine and on the synthetic stand-ins for the real data
// collections (see DESIGN.md); the shapes the paper reports are asserted
// in this package's tests.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/stats"
	"misketch/internal/synth"
	"misketch/internal/table"
)

// Config carries the common experiment knobs. The defaults reproduce the
// paper's settings; tests shrink Trials/Rows for speed.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce runs bit-for-bit.
	Seed int64
	// Trials is the number of generated datasets per configuration cell.
	Trials int
	// Rows is the full-join size N of each synthetic dataset.
	Rows int
	// SketchSize is the sketch parameter n.
	SketchSize int
	// K is the neighbor parameter for KSG-family estimators.
	K int
}

// Defaults returns the paper's experimental configuration: N = 10k rows,
// n = 256, k = 3.
func Defaults() Config {
	return Config{Seed: 1, Trials: 40, Rows: 10000, SketchSize: 256, K: mi.DefaultK}
}

func (c Config) normalized() Config {
	if c.Trials <= 0 {
		c.Trials = 40
	}
	if c.Rows <= 0 {
		c.Rows = 10000
	}
	if c.SketchSize <= 0 {
		c.SketchSize = 256
	}
	if c.K <= 0 {
		c.K = mi.DefaultK
	}
	return c
}

// Point is one (true MI, estimate) observation with its sketch join size.
type Point struct {
	TrueMI   float64
	Estimate float64
	JoinSize int
}

// Series is a labelled set of points — one plotted line in a figure.
type Series struct {
	Label  string
	Points []Point
}

// TrueMIs extracts the x-coordinates of the series.
func (s *Series) TrueMIs() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.TrueMI
	}
	return out
}

// Estimates extracts the y-coordinates of the series.
func (s *Series) Estimates() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Estimate
	}
	return out
}

// MSE returns the mean squared error of the series against the truth.
func (s *Series) MSE() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return stats.MSE(s.Estimates(), s.TrueMIs())
}

// generator abstracts the two synthetic distributions so runners can sweep
// them uniformly.
type generator struct {
	name string
	gen  func(rng *rand.Rand) *synth.Dataset
}

// sketchTrial decomposes ds into tables under kg, types them under tr,
// sketches both sides with the given method, joins the sketches and
// estimates MI. It returns the estimate and the sketch join size.
func sketchTrial(ds *synth.Dataset, kg synth.KeyGen, tr synth.Treatment,
	method core.Method, cfg Config, rng *rand.Rand) (Point, error) {
	train, cand, err := ds.Tables(kg, tr, rng)
	if err != nil {
		return Point{}, err
	}
	opt := core.Options{
		Method:  method,
		Size:    cfg.SketchSize,
		RNGSeed: rng.Int63(),
		Agg:     table.AggFirst,
	}
	st, err := core.Build(train, "k", "y", core.RoleTrain, opt)
	if err != nil {
		return Point{}, err
	}
	sc, err := core.Build(cand, "k", "x", core.RoleCandidate, opt)
	if err != nil {
		return Point{}, err
	}
	js, err := core.Join(st, sc)
	if err != nil {
		return Point{}, err
	}
	r := mi.Estimate(js.Y, js.X, cfg.K)
	return Point{TrueMI: ds.TrueMI, Estimate: r.MI, JoinSize: js.Size}, nil
}

// fullJoinTrial estimates MI on the fully materialized join of the
// decomposed tables.
func fullJoinTrial(ds *synth.Dataset, kg synth.KeyGen, tr synth.Treatment,
	cfg Config, rng *rand.Rand) (Point, error) {
	train, cand, err := ds.Tables(kg, tr, rng)
	if err != nil {
		return Point{}, err
	}
	r, err := core.FullJoinMI(train, "k", "y", cand, "k", "x", table.AggFirst, cfg.K)
	if err != nil {
		return Point{}, err
	}
	return Point{TrueMI: ds.TrueMI, Estimate: r.MI, JoinSize: r.N}, nil
}

// writeSeriesTable renders series as a binned true-MI vs mean-estimate
// table followed by per-series summary metrics — the textual equivalent
// of the paper's scatter plots.
func writeSeriesTable(w io.Writer, title string, series []*Series, lo, hi float64, bins int) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "true MI")
	for _, s := range series {
		fmt.Fprintf(w, " | %-22s", s.Label)
	}
	fmt.Fprintln(w)
	type binned struct{ t, e []float64 }
	bt := make([]binned, len(series))
	for i, s := range series {
		t, e := stats.Bin(s.TrueMIs(), s.Estimates(), lo, hi, bins)
		bt[i] = binned{t, e}
	}
	for b := 0; b < bins; b++ {
		width := (hi - lo) / float64(bins)
		lo_b := lo + float64(b)*width
		row := fmt.Sprintf("%5.2f-%-5.2f ", lo_b, lo_b+width)
		any := false
		for i := range series {
			cell := ""
			for j := range bt[i].t {
				if bt[i].t[j] >= lo_b && bt[i].t[j] < lo_b+width {
					cell = fmt.Sprintf("%.3f", bt[i].e[j])
					any = true
					break
				}
			}
			row += fmt.Sprintf(" | %-22s", cell)
		}
		if any {
			fmt.Fprintln(w, row)
		}
	}
	fmt.Fprintf(w, "%-12s", "RMSE")
	for _, s := range series {
		if len(s.Points) == 0 {
			fmt.Fprintf(w, " | %-22s", "-")
			continue
		}
		fmt.Fprintf(w, " | %-22.3f", stats.RMSE(s.Estimates(), s.TrueMIs()))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "bias")
	for _, s := range series {
		if len(s.Points) == 0 {
			fmt.Fprintf(w, " | %-22s", "-")
			continue
		}
		fmt.Fprintf(w, " | %-22.3f", stats.MeanBias(s.Estimates(), s.TrueMIs()))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// sortSeries orders series by label for stable output.
func sortSeries(series []*Series) {
	sort.Slice(series, func(i, j int) bool { return series[i].Label < series[j].Label })
}
