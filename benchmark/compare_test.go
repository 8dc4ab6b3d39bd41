package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRuns(t *testing.T, path string, runs map[string][]float64) {
	t.Helper()
	var buf bytes.Buffer
	n := 0
	for _, vs := range runs {
		n = len(vs)
	}
	for i := 0; i < n; i++ {
		r := result{Workload: "w", Correct: true, Attempted: 1, Metrics: metrics{}}
		for name, vs := range runs {
			r.Metrics.set(name, vs[i], "ms")
		}
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	// A traced record in the same file must be ignored.
	buf.WriteString(`{"workload":"w","trace":true,"metrics":{"flat":{"value":1e9,"unit":"ms"}}}` + "\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	metricsDecl := ""
	for _, m := range []string{"flat", "slower", "faster", "scattered"} {
		metricsDecl += fmt.Sprintf(`{"name":%q,"unit":"ms","better":"lower","bound":0.1},`, m)
	}
	metricsDecl += `{"name":"rate","unit":"1/s","better":"higher","bound":0.1}`
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[`+metricsDecl+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRuns(t, a, map[string][]float64{
		"flat": {100, 101, 102, 103}, "slower": {100, 101, 102, 103}, "faster": {100, 101, 102, 103},
		"scattered": {100, 150, 60, 120}, "rate": {100, 101, 102, 103},
	})
	writeRuns(t, b, map[string][]float64{
		"flat": {104, 103, 105, 106}, "slower": {120, 121, 122, 123}, "faster": {80, 81, 82, 83},
		"scattered": {100, 101, 102, 103}, "rate": {80, 81, 82, 83},
	})
	var out bytes.Buffer
	code := runCompare([]string{"--spec", spec, a, b}, &out)
	if code != 1 {
		t.Errorf("exit code %d, want 1 (a metric got worse)\n%s", code, out.String())
	}
	for metric, verdict := range map[string]string{
		"flat": "within", "slower": "worse", "faster": "better", "scattered": "unresolved", "rate": "worse",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: %q, want verdict %s", metric, line, verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}
	out.Reset()
	if code := runCompare([]string{"--spec", spec, a, a}, &out); code != 0 {
		t.Errorf("a set compared with itself exits %d\n%s", code, out.String())
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4),
// which the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of {1,2,4} = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
