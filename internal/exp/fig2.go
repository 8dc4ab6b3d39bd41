package exp

import (
	"fmt"
	"io"
	"math/rand"

	"misketch/internal/core"
	"misketch/internal/synth"
)

// Fig2Result holds the series of Figure 2: sketch MI estimates versus the
// analytic MI for Trinomial(m=512), sketch size n, comparing LV2SK and
// TUPSK across estimators and key-generation processes.
type Fig2Result struct {
	// SeriesByMethod maps LV2SK and TUPSK to their six series
	// (3 estimators × 2 key generators).
	SeriesByMethod map[core.Method][]*Series
	M              int
}

// RunFig2 executes EXP-FIG2.
func RunFig2(cfg Config) (*Fig2Result, error) {
	const m = 512
	series, err := methodSeries(cfg, func(rng *rand.Rand, rows int) *synth.Dataset {
		return synth.GenTrinomial(m, rows, rng)
	}, synth.TreatDiscrete, synth.TreatMixture, synth.TreatDC)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{SeriesByMethod: series, M: m}, nil
}

// methodSeries is the loop behind Figures 2 and 3: cfg.Trials datasets
// drawn by gen, then one series per sketch method × treatment × key
// process, each over every dataset.
func methodSeries(cfg Config, gen func(rng *rand.Rand, rows int) *synth.Dataset, treatments ...synth.Treatment) (map[core.Method][]*Series, error) {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	datasets := make([]*synth.Dataset, cfg.Trials)
	for i := range datasets {
		datasets[i] = gen(rng, cfg.Rows)
	}
	res := map[core.Method][]*Series{}
	for _, method := range []core.Method{core.LV2SK, core.TUPSK} {
		for _, tr := range treatments {
			for _, kg := range []synth.KeyGen{synth.KeyInd, synth.KeyDep} {
				s := &Series{Label: fmt.Sprintf("%s %s", tr, kg)}
				for _, ds := range datasets {
					p, err := sketchTrial(ds, kg, tr, method, cfg, rng)
					if err != nil {
						return nil, err
					}
					s.Points = append(s.Points, p)
				}
				res[method] = append(res[method], s)
			}
		}
	}
	return res, nil
}

// writeMethodSeries renders methodSeries' output as binned tables, one per
// method; title is a format with one %s, the method.
func writeMethodSeries(w io.Writer, byMethod map[core.Method][]*Series, title string, hi float64, bins int) {
	for _, method := range []core.Method{core.LV2SK, core.TUPSK} {
		series := byMethod[method]
		sortSeries(series)
		writeSeriesTable(w, fmt.Sprintf(title, method), series, 0, hi, bins)
	}
}

// Write renders the Figure 2 series as binned tables, one per method.
func (r *Fig2Result) Write(w io.Writer) {
	writeMethodSeries(w, r.SeriesByMethod,
		fmt.Sprintf("Figure 2 — %%s, Trinomial(m=%d): true MI vs sketch estimate", r.M), 3.5, 7)
}
