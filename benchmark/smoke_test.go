package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// fullSpec is BENCHMARK.json as the driver reads it.
type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp fullSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program must declare the same workloads, and
// every declared name, unit, direction and bound must be one the
// driver accepts.
func TestSpecIsWellFormed(t *testing.T) {
	sp := loadSpec(t)
	var declared, have []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalStrings(declared, have) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
	}
	seen := map[string]bool{}
	hasSetup := false
	check := func(m specMetric, wantBound bool) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if wantBound != (m.Bound != nil) || (wantBound && (*m.Bound <= 0 || *m.Bound > 0.25)) {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range sp.EndToEnd {
		check(m, true)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range sp.PerLayer {
		check(m, false)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", sp.Paths, sp.RunSeconds)
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every workload, at smoke-test scale, must answer correctly and emit
// exactly the declared metric names with the declared units: the
// end-to-end set untraced, the per-layer set traced — none extra, none
// missing.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, declared := w.name+"/end-to-end", sp.EndToEnd
			if trace {
				name, declared = w.name+"/per-layer", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				e := shortEnv(t, trace)
				res, err := runWorkload(w, e)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Detail)
				}
				want := map[string]string{}
				for _, m := range declared {
					want[m.Name] = m.Unit
				}
				for name, m := range res.Metrics {
					if unit, ok := want[name]; !ok {
						t.Errorf("emits undeclared metric %s", name)
					} else if unit != m.Unit {
						t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("declared metric %s was not emitted", name)
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", name, m.Value)
						}
					}
					return
				}
				checkSpanFile(t, e.spanOut)
			})
		}
	}
}

// checkSpanFile requires a span for every rung, each under a parent
// that exists, with the ladder's rungs listed beside them.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	spanned := map[string]bool{}
	for _, s := range sf.Spans {
		spanned[s.Name] = true
		if s.End < s.Start || s.Parent < 0 || s.Parent > len(sf.Spans) || s.ID < 1 {
			t.Fatalf("malformed span %+v", s)
		}
	}
	rungs := map[string]bool{}
	for _, r := range sf.Rungs {
		rungs[r.Name] = true
		if !spanned[r.Name] {
			t.Errorf("rung %s has no span", r.Name)
		}
		if r.Count < 1 || r.MedianNS <= 0 {
			t.Errorf("rung %+v", r)
		}
	}
	for _, r := range sf.Rungs {
		if r.ChildOf != "" && !rungs[r.ChildOf] {
			t.Errorf("rung %s is child_of %s, which is not a rung", r.Name, r.ChildOf)
		}
	}
	for _, must := range []string{"knn.grid_allknn", "core.join", "mi.cheap", "mi.mixed_ksg", "store.rank_warm",
		"store.rank_exact", "store.rank_fullwalk", "store.rank_select_only", "store.rank_cold", "store.rank_batch8",
		"server.rank_miss", "server.rank_hit", "server.rank_304", "cluster.rank_miss", "cluster.rank_hit",
		"table.read_csv", "core.build", "core.append_record", "store.put", "store.flush", "store.compact",
		"fsst.train", "fsst.encode", "fsst.decode", "store.open"} {
		if !rungs[must] {
			t.Errorf("ladder has no rung %s", must)
		}
	}
}
