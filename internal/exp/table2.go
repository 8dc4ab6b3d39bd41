package exp

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"

	"misketch/internal/core"
	"misketch/internal/corpus"
	"misketch/internal/mi"
	"misketch/internal/stats"
	"misketch/internal/table"
)

// Table2Methods are the sketching strategies compared on the open-data
// collections (Table II of the paper).
var Table2Methods = []core.Method{core.LV2SK, core.PRISK, core.TUPSK}

// MinJoinSize is the paper's filter: estimates computed on sketch joins
// of at most this many samples are discarded as meaningless.
const MinJoinSize = 100

// PairRecord is the outcome of one (train, cand) table pair: the
// full-join reference estimate and each sketch method's estimate.
type PairRecord struct {
	FullMI    float64
	FullN     int
	Estimator mi.Estimator
	SketchMI  map[core.Method]float64
	JoinSize  map[core.Method]int
}

// RunCorpusPairs evaluates every sampled pair of the corpus with the
// given sketch methods and sketch size n, returning per-pair records.
// The full-join estimate is the reference, as with the paper's real data.
func RunCorpusPairs(c *corpus.Corpus, methods []core.Method, cfg Config, maxPairs int) ([]PairRecord, error) {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(c.Tables))))
	pairs := c.Pairs(maxPairs, rng)
	var out []PairRecord
	for _, p := range pairs {
		full, err := core.FullJoinMI(p.Train.T, corpus.KeyCol, corpus.ValCol,
			p.Cand.T, corpus.KeyCol, corpus.ValCol, table.AggFirst, cfg.K)
		if err != nil {
			return nil, err
		}
		rec := PairRecord{
			FullMI:    full.MI,
			FullN:     full.N,
			Estimator: full.Estimator,
			SketchMI:  map[core.Method]float64{},
			JoinSize:  map[core.Method]int{},
		}
		for _, method := range methods {
			opt := core.Options{
				Method:  method,
				Size:    cfg.SketchSize,
				RNGSeed: rng.Int63(),
				Agg:     table.AggFirst,
			}
			st, err := core.Build(p.Train.T, corpus.KeyCol, corpus.ValCol, core.RoleTrain, opt)
			if err != nil {
				return nil, err
			}
			sc, err := core.Build(p.Cand.T, corpus.KeyCol, corpus.ValCol, core.RoleCandidate, opt)
			if err != nil {
				return nil, err
			}
			js, err := core.Join(st, sc)
			if err != nil {
				return nil, err
			}
			r := mi.Estimate(js.Y, js.X, cfg.K)
			rec.SketchMI[method] = r.MI
			rec.JoinSize[method] = js.Size
		}
		out = append(out, rec)
	}
	return out, nil
}

// Table2Row is one row of Table II: per collection and sketch method, the
// average sketch join size and the agreement with the full-join estimate
// (Spearman's rank correlation and MSE) over pairs passing the join-size
// filter.
type Table2Row struct {
	Dataset     string
	Method      core.Method
	AvgJoinSize float64
	SpearmanR   float64
	MSE         float64
	Pairs       int
}

// Table2Result carries the summary rows plus the per-pair records (reused
// by Figure 5).
type Table2Result struct {
	Rows    []Table2Row
	Records map[string][]PairRecord // keyed by collection name
	Stats   map[string]corpus.Stats
}

// RunTable2 executes EXP-TAB2 on freshly generated NYC and WBF stand-in
// corpora. Pairs per collection and sketch size come from cfg (the paper
// uses n = 1024).
func RunTable2(cfg Config, pairsPerCollection int) (*Table2Result, error) {
	nyc := corpus.Generate(corpus.NYCConfig(), cfg.Seed+101)
	wbf := corpus.Generate(corpus.WBFConfig(), cfg.Seed+202)
	return RunTable2WithCorpora(cfg, pairsPerCollection, nyc, wbf)
}

// RunTable2WithCorpora is RunTable2 against caller-provided corpora
// (used by tests with scaled-down collections).
func RunTable2WithCorpora(cfg Config, pairsPerCollection int, corpora ...*corpus.Corpus) (*Table2Result, error) {
	cfg = cfg.normalized()
	res := &Table2Result{
		Records: map[string][]PairRecord{},
		Stats:   map[string]corpus.Stats{},
	}
	for _, c := range corpora {
		recs, err := RunCorpusPairs(c, Table2Methods, cfg, pairsPerCollection)
		if err != nil {
			return nil, err
		}
		res.Records[c.Config.Name] = recs
		rng := rand.New(rand.NewSource(cfg.Seed))
		res.Stats[c.Config.Name] = corpus.MeasureStats(c.Pairs(pairsPerCollection, rng))
		for _, method := range Table2Methods {
			var full, sketch []float64
			var joinSum float64
			for _, r := range recs {
				if r.JoinSize[method] <= MinJoinSize {
					continue
				}
				full = append(full, r.FullMI)
				sketch = append(sketch, r.SketchMI[method])
				joinSum += float64(r.JoinSize[method])
			}
			row := Table2Row{Dataset: c.Config.Name, Method: method, Pairs: len(full)}
			if len(full) > 1 {
				row.AvgJoinSize = joinSum / float64(len(full))
				row.SpearmanR = stats.Spearman(sketch, full)
				row.MSE = stats.MSE(sketch, full)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Write renders Table II plus the structural statistics of the generated
// collections (the analogue of the paper's collection description).
func (r *Table2Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Table II — sketch estimates vs full-join estimates on open-data stand-ins")
	for _, name := range slices.Sorted(maps.Keys(r.Stats)) {
		s := r.Stats[name]
		fmt.Fprintf(w, "collection %-4s: avg key domains %.0f/%.0f, avg full join %.0f rows, %d pairs\n",
			name, s.AvgTrainDomain, s.AvgCandDomain, s.AvgFullJoin, s.Pairs)
	}
	fmt.Fprintf(w, "%-8s %-7s %14s %12s %8s %7s\n",
		"dataset", "sketch", "avg join size", "Spearman R", "MSE", "pairs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-7s %14.1f %12.2f %8.2f %7d\n",
			row.Dataset, row.Method, row.AvgJoinSize, row.SpearmanR, row.MSE, row.Pairs)
	}
	fmt.Fprintln(w)
}
