package main

// `benchmark compare A.jsonl B.jsonl`: the regression rule of
// BENCHMARK.json applied to two sets of recorded runs (-out files).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads the untraced records of a -out file, grouped by
// workload then metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of
// vs by the "exclusive" method (Python's statistics.quantiles default).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// verdictOf classifies one (workload, metric) pair: unresolved when
// either side's own spread is wider than the bound, otherwise by how
// far B's median sits from A's in the metric's bad direction.
func verdictOf(a, b []float64, better string, bound float64) (medA, medB, change float64, verdict string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	change = ratio(medB-medA, medA)
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case ratio(q3a-q1a, medA) > bound || ratio(q3b-q1b, medB) > bound:
		verdict = "unresolved"
	case worse > bound:
		verdict = "worse"
	case worse < -bound:
		verdict = "better"
	default:
		verdict = "within"
	}
	return medA, medB, change, verdict
}

// runCompare prints one row per (workload, end-to-end metric) and
// returns the exit code: 1 on any `worse`, 2 on bad input.
func runCompare(args []string, w io.Writer) int {
	specPath := "BENCHMARK.json"
	if len(args) == 4 && args[0] == "--spec" {
		specPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %-6s %22s %6s  %s\n", "workload", "metric", "A (median)", "B (median)", "unit", "B vs A", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-22s missing on one side (A: %d runs, B: %d runs)\n", wl.Name, m.Name, len(va), len(vb))
				code = 2
				continue
			}
			medA, medB, change, verdict := verdictOf(va, vb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %-6s %+8.2f%% of %-9.4g %5.0f%%  %s\n",
				wl.Name, m.Name, medA, medB, m.Unit, 100*change, medA, 100*m.Bound, verdict)
			if verdict == "worse" && code == 0 {
				code = 1
			}
		}
	}
	return code
}
