package exp

import (
	"io"
	"math/rand"

	"misketch/internal/core"
	"misketch/internal/synth"
)

// Fig3Result holds the series of Figure 3: sketch MI estimates versus the
// analytic MI for CDUnif with m ~ Unif[2, 1000] (true MI up to ≈6.2),
// comparing LV2SK and TUPSK. The paper's observation: estimators break
// down as the true MI approaches ln(n) ≈ 4.85 for n = 256 (m ≈ n means
// about one sample per distinct value), with LV2SK's DC-KSG collapsing
// earlier (≈4.25) and TUPSK degrading more gracefully.
type Fig3Result struct {
	SeriesByMethod map[core.Method][]*Series
}

// RunFig3 executes EXP-FIG3. CDUnif has a continuous Y, so only the
// Mixed-KSG and DC-KSG treatments apply (Section V-A).
func RunFig3(cfg Config) (*Fig3Result, error) {
	series, err := methodSeries(cfg, func(rng *rand.Rand, rows int) *synth.Dataset {
		return synth.GenCDUnif(2+rng.Intn(999), rows, rng)
	}, synth.TreatMixture, synth.TreatDC)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{SeriesByMethod: series}, nil
}

// Write renders the Figure 3 series.
func (r *Fig3Result) Write(w io.Writer) {
	writeMethodSeries(w, r.SeriesByMethod,
		"Figure 3 — %s, CDUnif(m∈[2,1000]): true MI vs sketch estimate", 6.5, 13)
}
