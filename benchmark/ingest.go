package main

// ingest_compact: the write path. Raw CSV tables go through ReadCSV and
// SketchCandidate into Put; a quarter are re-ingested (overwrites), a
// twentieth deleted; then Flush, Compact with compression, Close and
// reopen — after which every live sketch must read back exactly as it
// was acknowledged and every deleted one must be gone. One round does
// that for a fresh store; rounds repeat until the window is over.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"misketch"
)

// csvIngest is one pass of the csv tables through the write path, as a
// catalog stream (see emit), remembering what the store acknowledged.
type csvIngest struct {
	tables  [][]byte
	acked   map[string]*misketch.Sketch
	deleted []string
	lat     []time.Duration // per ingested sketch: its share of the parse, its build, its Put
}

func newCSVIngest(tables [][]byte) *csvIngest {
	return &csvIngest{tables: tables, acked: map[string]*misketch.Sketch{}}
}

func csvTables(seed int64, sc scale) [][]byte {
	tables := make([][]byte, sc.csvTables)
	for t := range tables {
		tables[t] = genCSV(seed, t, sc.csvRows)
	}
	return tables
}

func (ci *csvIngest) ingest(t int, each emit) error {
	start := time.Now()
	tb, err := misketch.ReadCSV(bytes.NewReader(ci.tables[t]))
	if err != nil {
		return fmt.Errorf("table %d: %w", t, err)
	}
	share := time.Since(start) / time.Duration(len(csvColumns))
	for _, col := range csvColumns {
		start := time.Now()
		sk, err := misketch.SketchCandidate(tb, "key", col.name, misketch.Options{Size: sketchSize, Agg: col.agg})
		if err != nil {
			return fmt.Errorf("table %d column %s: %w", t, col.name, err)
		}
		name := csvSketchName(t, col.name)
		if err := each(name, sk); err != nil {
			return err
		}
		ci.lat = append(ci.lat, share+time.Since(start))
		ci.acked[name] = sk
	}
	return nil
}

// stream ingests every table, re-ingests every fourth, then deletes
// every twentieth acknowledged sketch.
func (ci *csvIngest) stream(each emit) error {
	for t := range ci.tables {
		if err := ci.ingest(t, each); err != nil {
			return err
		}
	}
	for t := 0; t < len(ci.tables); t += 4 {
		if err := ci.ingest(t, each); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(ci.acked))
	for name := range ci.acked {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 0; i < len(names); i += 20 {
		if err := each(names[i], nil); err != nil {
			return err
		}
		delete(ci.acked, names[i])
		ci.deleted = append(ci.deleted, names[i])
	}
	return nil
}

// check is the durability test on the reopened store: every
// acknowledged sketch reads back equal, every deleted one is gone.
func (ci *csvIngest) check(st *misketch.Store) (v verdict, gets []time.Duration) {
	for name, want := range ci.acked {
		v.verified++
		start := time.Now()
		got, err := st.Get(name)
		gets = append(gets, time.Since(start))
		if err != nil {
			v.fail("reopened store lost %s: %v", name, err)
		} else if !equalSketch(got, want) {
			v.fail("reopened store changed %s", name)
		}
	}
	for _, name := range ci.deleted {
		v.verified++
		if _, err := st.Get(name); !errors.Is(err, misketch.ErrNotFound) {
			v.fail("deleted sketch %s still readable (err=%v)", name, err)
		}
	}
	return v, gets
}

func equalSketch(a, b *misketch.Sketch) bool {
	return a.Method == b.Method && a.Role == b.Role && a.Seed == b.Seed && a.Size == b.Size &&
		a.Numeric == b.Numeric && a.SourceRows == b.SourceRows &&
		slices.Equal(a.KeyHashes, b.KeyHashes) && slices.Equal(a.Nums, b.Nums) && slices.Equal(a.Strs, b.Strs)
}

func csvCatalog(seed int64, sc scale) func(emit) error {
	return func(each emit) error { return newCSVIngest(csvTables(seed, sc)).stream(each) }
}

// ingestRounds is the measured interval of ingest_compact: whole
// rounds, at least two, until e.window has passed. The clock runs only
// while a round is in the write path — not while the verifier reads the
// store back or the previous round's directory is removed.
func ingestRounds(w workload, e env, tr *tracer) (window, error) {
	var win window
	tables := csvTables(e.seed, e.scale)
	win.procBefore = snapProc()
	win.before, win.after = counters{}, counters{}
	parent, end := tr.open("window/"+w.name, 0)
	defer end()
	for round := 0; round < 2 || win.elapsed < e.window; round++ {
		dir := filepath.Join(e.work, fmt.Sprintf("round-%d", round))
		ci := newCSVIngest(tables)
		start := time.Now()
		st, _, bs, err := buildCatalog(catalogSpec{dir: dir, opt: w.storeOpt, gen: ci.stream})
		if err != nil {
			return win, fmt.Errorf("round %d: %w", round, err)
		}
		tr.record("ingest/round", parent, round+1, start, time.Now())
		win.elapsed += time.Since(start)
		win.latencies = append(win.latencies, ci.lat...)
		win.calib = append(win.calib, bs.calib...)
		win.attempted += len(ci.lat) + len(ci.deleted)
		v, _ := ci.check(st)
		win.verdict.add(v)
		if err := st.Close(); err != nil {
			return win, err
		}
		for _, old := range win.dirs {
			if err := os.RemoveAll(old); err != nil {
				return win, err
			}
		}
		win.dirs = []string{dir}
		win.build.add(bs)
	}
	win.procA = snapProc()
	sort.Slice(win.latencies, func(i, j int) bool { return win.latencies[i] < win.latencies[j] })
	return win, nil
}
