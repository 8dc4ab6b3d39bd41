// Command experiments regenerates the paper's evaluation artifacts
// (Section V): the full-join estimator baseline, Figures 2–5, Tables I
// and II, and the performance numbers from Section V-D.
//
// Usage:
//
//	experiments [-run all|fulljoin|fig2|fig3|fig4|fig5|table1|table2|perf|ablation|convergence|smoothing|cascade]
//	            [-trials N] [-rows N] [-sketch N] [-pairs N] [-seed N]
//
// Output is written to stdout as fixed-width tables; the series the
// paper plots appear as binned true-MI vs mean-estimate columns. Expect
// the full run to take a few minutes at the default scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"misketch/internal/exp"
)

func main() {
	var (
		which  = flag.String("run", "all", "which experiment to run: all, "+strings.Join(experiments, ", "))
		trials = flag.Int("trials", 40, "datasets per configuration cell (synthetic experiments)")
		rows   = flag.Int("rows", 10000, "rows per synthetic dataset (the paper uses 10k)")
		sketch = flag.Int("sketch", 256, "sketch size n for synthetic experiments (the paper uses 256)")
		pairs  = flag.Int("pairs", 60, "table pairs per collection (corpus experiments)")
		seed   = flag.Int64("seed", 1, "random seed; equal seeds reproduce runs exactly")
	)
	flag.Parse()
	cfg := exp.Config{Seed: *seed, Trials: *trials, Rows: *rows, SketchSize: *sketch}
	if *which != "all" && !slices.ContainsFunc(experiments, func(n string) bool { return strings.EqualFold(n, *which) }) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *which, cfg, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiments names what -run selects, in the order "all" prints them.
var experiments = []string{"fulljoin", "fig2", "fig3", "fig4", "table1", "table2", "fig5", "perf", "ablation", "convergence", "smoothing", "cascade"}

// run writes the experiment called name, or every one for "all", to w.
func run(w io.Writer, name string, cfg exp.Config, pairs int) error {
	want := func(n string) bool { return name == "all" || strings.EqualFold(name, n) }

	if want("fulljoin") {
		rs, err := exp.RunFullJoin(cfg)
		if err != nil {
			return err
		}
		exp.WriteFullJoin(w, rs)
	}
	if want("fig2") {
		r, err := exp.RunFig2(cfg)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	if want("fig3") {
		r, err := exp.RunFig3(cfg)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	if want("fig4") {
		r, err := exp.RunFig4(cfg)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	if want("table1") {
		rs, err := exp.RunTable1(cfg)
		if err != nil {
			return err
		}
		exp.WriteTable1(w, rs)
	}
	if want("table2") || want("fig5") {
		// The paper's real-data experiments use n = 1024.
		corpusCfg := cfg
		corpusCfg.SketchSize = 1024
		res, err := exp.RunTable2(corpusCfg, pairs)
		if err != nil {
			return err
		}
		if want("table2") {
			res.Write(w)
		}
		if want("fig5") {
			exp.WriteFig5(w, exp.RunFig5(res.Records["WBF"]))
		}
	}
	if want("perf") {
		rs, err := exp.RunPerf(cfg)
		if err != nil {
			return err
		}
		exp.WritePerf(w, rs)
	}
	if want("ablation") {
		rs, err := exp.RunCandSizeAblation(cfg)
		if err != nil {
			return err
		}
		exp.WriteAblation(w, rs)
	}
	if want("convergence") {
		r, err := exp.RunConvergence(cfg)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	if want("smoothing") {
		r, err := exp.RunSmoothing(cfg, 1)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	if want("cascade") {
		r, err := exp.RunCascadeCalib(cfg, pairs)
		if err != nil {
			return err
		}
		r.Write(w)
	}
	return nil
}
