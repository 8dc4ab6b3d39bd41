package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misketch/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

// TestExperimentsGolden pins every digit the paper's experiments print
// at a reduced scale, so a change that moves an estimator's bits shows
// up as a diff of this file. Equal seeds reproduce a run exactly and the
// output does not depend on GOMAXPROCS. perf is left out: its rows are
// wall-clock timings. The file was written on amd64, the one
// architecture CI tests on, so multiply-add fusion on arm64 (which may
// move a last digit) is not a concern here.
//
// After a deliberate change, rewrite it with
//
//	go test ./cmd/experiments -run TestExperimentsGolden -update
//
// and explain each moved line.
func TestExperimentsGolden(t *testing.T) {
	cfg := exp.Config{Seed: 1, Trials: 2, Rows: 3000, SketchSize: 256}
	var got bytes.Buffer
	for _, name := range experiments {
		if name == "perf" {
			continue
		}
		if err := run(&got, name, cfg, 10); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
