// Package misketch estimates the mutual information (MI) between a target
// column in a base table and feature columns in external candidate tables
// — as it would be observed after joining them — without materializing
// the joins. It implements the sketching methods from "Efficiently
// Estimating Mutual Information Between Attributes Across Tables"
// (Santos, Korn, Freire; ICDE 2024), with TUPSK, the paper's tuple-based
// coordinated sampling sketch, as the recommended default.
//
// # Workflow
//
// Build a sketch of your base table once (keyed by the join column,
// carrying the prediction target), build candidate sketches for every
// external table worth joining (typically offline, at dataset-ingestion
// time), and then rank candidates by estimated MI:
//
//	train, _ := misketch.ReadCSVFile("taxi.csv")
//	st, _ := misketch.SketchTrain(train, "zip", "num_trips", misketch.Options{Size: 1024})
//	cand, _ := misketch.ReadCSVFile("demographics.csv")
//	sc, _ := misketch.SketchCandidate(cand, "zip", "population", misketch.Options{Size: 1024})
//	res, _ := misketch.EstimateMI(st, sc)
//	fmt.Println(res.MI, res.Estimator, res.N)
//
// Estimates are in nats. The estimator is chosen from the column types
// (MLE for string–string, Mixed-KSG for numeric–numeric, DC-KSG
// otherwise); per the paper, estimates from different estimators have
// different bias profiles and should be ranked separately.
package misketch

import (
	"fmt"
	"io"
	"os"
	"sort"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/table"
)

// Table is an in-memory columnar table (string and float64 columns).
type Table = table.Table

// Column is one typed table column.
type Column = table.Column

// NewTable builds a table from columns of equal length and distinct names.
func NewTable(cols ...*Column) *Table { return table.New(cols...) }

// NewStringColumn returns a categorical column.
func NewStringColumn(name string, vals []string) *Column {
	return table.NewStringColumn(name, vals)
}

// NewFloatColumn returns a numerical column.
func NewFloatColumn(name string, vals []float64) *Column {
	return table.NewFloatColumn(name, vals)
}

// AggFunc names a featurization function used to collapse repeated
// candidate join keys into a single feature value.
type AggFunc = table.AggFunc

// The supported featurization functions.
const (
	AggAvg    = table.AggAvg
	AggSum    = table.AggSum
	AggCount  = table.AggCount
	AggMin    = table.AggMin
	AggMax    = table.AggMax
	AggMode   = table.AggMode
	AggFirst  = table.AggFirst
	AggMedian = table.AggMedian
)

// Method selects a sketching strategy.
type Method = core.Method

// The available sketching methods. TUPSK is the paper's proposal and the
// default; the others are the baselines it is evaluated against.
const (
	TUPSK = core.TUPSK
	LV2SK = core.LV2SK
	PRISK = core.PRISK
	INDSK = core.INDSK
	CSK   = core.CSK
)

// Options configures sketch construction; see core.Options for the full
// field documentation. A zero Method means TUPSK and a zero Size means
// DefaultSketchSize.
type Options = core.Options

// NullPolicy selects the treatment of NULL values in the value column;
// NULL join keys are always dropped.
type NullPolicy = core.NullPolicy

// The NULL policies: drop NULL-valued rows (the default) or keep them as
// a dedicated category in categorical columns.
const (
	NullDrop       = core.NullDrop
	NullAsCategory = core.NullAsCategory
)

// Sketch is a fixed-size table summary joinable against other sketches
// built with the same hash seed.
type Sketch = core.Sketch

// Result is an MI estimate: the value in nats, the estimator that
// produced it, and the sample size it was computed on.
type Result = mi.Result

// DefaultSketchSize is used when Options.Size is zero. The paper's
// real-data experiments use 1024.
const DefaultSketchSize = 1024

// DefaultK is the neighbor parameter of the KSG-family estimators.
const DefaultK = mi.DefaultK

// ReadCSV parses CSV (with a header row) into a Table, inferring column
// types: columns whose non-empty cells all parse as numbers become float
// columns, everything else becomes string columns.
func ReadCSV(r io.Reader) (*Table, error) { return table.ReadCSV(r) }

// ReadCSVFile reads a CSV file from disk via ReadCSV.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := table.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("misketch: reading %s: %w", path, err)
	}
	return t, nil
}

func normalizeOptions(opt Options) Options {
	if opt.Method == "" {
		opt.Method = TUPSK
	}
	if opt.Size == 0 {
		opt.Size = DefaultSketchSize
	}
	return opt
}

// SketchTrain sketches the base table: keyCol is the join key and
// targetCol the prediction target Y. Repeated keys are sampled so that
// their sketch frequency reflects their table frequency.
func SketchTrain(t *Table, keyCol, targetCol string, opt Options) (*Sketch, error) {
	return core.Build(t, keyCol, targetCol, core.RoleTrain, normalizeOptions(opt))
}

// SketchCandidate sketches an external table: keyCol is the join key and
// featureCol the feature X. Repeated keys are first collapsed with
// Options.Agg (default: first value seen).
func SketchCandidate(t *Table, keyCol, featureCol string, opt Options) (*Sketch, error) {
	return core.Build(t, keyCol, featureCol, core.RoleCandidate, normalizeOptions(opt))
}

// EstimateMI joins the two sketches and estimates the MI between the
// train target and the candidate feature over the (virtual) join, using
// DefaultK neighbors for the KSG-family estimators.
func EstimateMI(train, cand *Sketch) (Result, error) {
	return EstimateMIK(train, cand, DefaultK)
}

// EstimateMIK is EstimateMI with an explicit neighbor parameter k.
func EstimateMIK(train, cand *Sketch, k int) (Result, error) {
	return core.EstimateMI(train, cand, k)
}

// TrainProbe is a discovery query compiled once against its train
// sketch: the hash→entry index and value orderings every candidate
// probes. Compile it with CompileTrain when estimating against many
// candidates; it is immutable and safe to share across goroutines.
type TrainProbe = core.TrainProbe

// EstimatorScratch is the reusable per-worker state of the ranking hot
// path: join buffers, neighbor structures, interning maps. The zero
// value is ready to use; do not share one between goroutines.
type EstimatorScratch = core.Scratch

// CompileTrain builds the per-query index over a train sketch.
func CompileTrain(train *Sketch) *TrainProbe {
	return core.CompileTrainProbe(train)
}

// EstimateMIScratch estimates MI between the compiled train probe and a
// candidate on reusable scratch state — EstimateMI without the
// per-call allocations, returning bit-identical results. This is the
// loop Store ranking runs internally; use it directly when ranking
// in-memory candidates:
//
//	probe := misketch.CompileTrain(trainSketch)
//	var scratch misketch.EstimatorScratch
//	for _, c := range candidates {
//		res, err := misketch.EstimateMIScratch(probe, c, &scratch)
//		...
//	}
func EstimateMIScratch(probe *TrainProbe, cand *Sketch, s *EstimatorScratch) (Result, error) {
	return core.EstimateMIScratch(probe, cand, DefaultK, s)
}

// EstimateMIScratchK is EstimateMIScratch with an explicit neighbor
// parameter k.
func EstimateMIScratchK(probe *TrainProbe, cand *Sketch, k int, s *EstimatorScratch) (Result, error) {
	return core.EstimateMIScratch(probe, cand, k, s)
}

// FullJoinMI materializes the aggregate-then-left-join query and
// estimates MI on the complete result — the expensive reference the
// sketches approximate. Useful for validating sketch quality on small
// tables.
func FullJoinMI(train *Table, trainKey, targetCol string,
	cand *Table, candKey, featureCol string, agg AggFunc) (Result, error) {
	return core.FullJoinMI(train, trainKey, targetCol, cand, candKey, featureCol, agg, DefaultK)
}

// Candidate pairs a candidate sketch with an identifier for ranking.
type Candidate struct {
	// Name identifies the candidate (e.g., "table.column").
	Name string
	// Sketch is the candidate's sketch, built with the same seed as the
	// train sketch.
	Sketch *Sketch
}

// Ranked is one row of a discovery ranking.
type Ranked struct {
	Name string
	// MI is the estimated mutual information with the train target (nats).
	MI float64
	// Estimator produced the estimate; rankings should be compared within
	// one estimator family (see the paper, Section V-C3).
	Estimator mi.Estimator
	// JoinSize is the sketch join size the estimate used; small values
	// mean low confidence (the paper filters JoinSize ≤ 100).
	JoinSize int
}

// Rank estimates MI between the train sketch and every candidate and
// returns the candidates sorted by decreasing MI — the paper's
// data-discovery query ("which external tables are worth joining?").
// Candidates whose sketch join has at most minJoinSize samples are
// dropped: minJoinSize is the largest join size still excluded, matching
// the paper's "JoinSize ≤ 100" filter and the boundary Store.RankQuery
// applies. Zero keeps every candidate with a non-empty join.
func Rank(train *Sketch, cands []Candidate, minJoinSize int) ([]Ranked, error) {
	probe := core.CompileTrainProbe(train)
	var scratch core.Scratch
	var out []Ranked
	for _, c := range cands {
		r, err := core.EstimateMIScratch(probe, c.Sketch, DefaultK, &scratch)
		if err != nil {
			return nil, fmt.Errorf("misketch: ranking %s: %w", c.Name, err)
		}
		if r.N <= minJoinSize {
			continue
		}
		out = append(out, Ranked{Name: c.Name, MI: r.MI, Estimator: r.Estimator, JoinSize: r.N})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MI != out[j].MI {
			return out[i].MI > out[j].MI
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// RankSmoothed ranks like Rank but scores discrete–discrete candidates
// with the Laplace-smoothed MLE (pseudocount alpha) instead of the raw
// plug-in estimator. Smoothing pulls high-cardinality null candidates
// toward zero much harder than genuine signals, trading the raw MLE's
// recall for fewer false discoveries — the deployment trade-off the
// paper's conclusion highlights. Non-discrete pairs are scored as in
// Rank, and the min-join boundary is Rank's: joins with at most
// minJoinSize samples are dropped.
func RankSmoothed(train *Sketch, cands []Candidate, minJoinSize int, alpha float64) ([]Ranked, error) {
	probe := core.CompileTrainProbe(train)
	var scratch core.Scratch
	var out []Ranked
	for _, c := range cands {
		js, err := probe.JoinScratch(c.Sketch, &scratch)
		if err != nil {
			return nil, fmt.Errorf("misketch: ranking %s: %w", c.Name, err)
		}
		if js.Size <= minJoinSize {
			continue
		}
		var r Ranked
		r.Name = c.Name
		r.JoinSize = js.Size
		if !js.Y.IsNumeric() && !js.X.IsNumeric() {
			r.Estimator = mi.EstMLE
			r.MI = mi.MLESmoothed(js.Y.Str, js.X.Str, alpha)
		} else {
			res := scratch.MI.Estimate(js.Y, js.X, DefaultK)
			r.Estimator = res.Estimator
			r.MI = res.MI
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MI != out[j].MI {
			return out[i].MI > out[j].MI
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
