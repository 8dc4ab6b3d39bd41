// Command benchmark is the repository's benchmark: six discovery
// workloads over seeded catalogs, served in-process over loopback HTTP
// and driven in a closed loop, with the answers verified.
//
//	bash benchmark/run.sh --workload fresh_c1 --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh --workload all --trace both --out .bench_build/result.jsonl
//	bash benchmark/run.sh compare A.jsonl B.jsonl
//
// The last line of a single run's standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit code
// is non-zero when any answer failed or was wrong. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to, and the most client
// connections any workload opens: the box the numbers were defined on
// has two cores.
const procs = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "corpus and traffic seed")
	seconds := fs.Float64("seconds", 8, "length of the measured window")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced pass, per-layer metrics; both: one run of each")
	out := fs.String("out", "", "append one JSON record per run to this file")
	spanOut := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
	short := fs.Bool("short", false, "smoke-test scale: ~100 candidates per catalog")
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name|all] [--seed n] [--seconds s] [--trace 0|1|both] [--out file] [--spans file] [--short]")
		os.Exit(2)
	}
	if *workload == "all" || *trace == "both" {
		os.Exit(runEach(*workload, *trace, os.Args[1:]))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	work, err := workDir(".bench_build", w.name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	e := env{seed: *seed, scale: fullScale, window: time.Duration(*seconds * float64(time.Second)),
		warmup: 1500 * time.Millisecond, trace: *trace == "1", work: work, spanOut: *spanOut}
	if *short {
		e.scale, e.warmup = shortScale, 200*time.Millisecond
	}
	if e.spanOut == "" {
		e.spanOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	res, err := runWorkload(w, e)
	err = errors.Join(err, os.RemoveAll(work))
	if err == nil {
		err = report(res, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(exitCode(res, err))
}

// exitCode is 0 only for a run that finished and whose every answer
// was right. A failure of the benchmark itself (err) prints no result
// line; a wrong or failed answer prints one with "correct": false.
func exitCode(res result, err error) int {
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit, then the result
// line, and appends the full record to the -out file.
func report(res result, out string) error {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Printf("%s seed=%d %s metrics:\n%s", res.Workload, res.Seed, mode, res.Metrics)
	if res.Noisy {
		fmt.Println("noisy: the calibration kernel drifted more than 10% across this run; do not compare it")
	}
	if res.Detail != "" {
		fmt.Println("first failure:", res.Detail)
	}
	if out != "" {
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(append(line, '\n'))
		if err := errors.Join(werr, f.Close()); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// runEach re-executes this binary once per (workload, trace mode), so
// memory, caches and set-up time never leak from one run into the
// next. Each child is waited for; the exit code is non-zero if any
// child's was.
func runEach(workload, trace string, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var names []string
	if workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{workload}
	}
	traces := []string{trace}
	if trace == "both" {
		traces = []string{"0", "1"}
	}
	failed := 0
	for _, name := range names {
		for _, tr := range traces {
			// Later flags win, so the overrides go last.
			cmd := exec.Command(self, append(append([]string{}, args...), "--workload", name, "--trace", tr)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s --trace %s: %v\n", name, tr, err)
				failed++
			}
		}
	}
	fmt.Printf("%d runs, %d failed\n", len(names)*len(traces), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
