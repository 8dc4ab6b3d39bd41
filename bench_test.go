package misketch

// bench_test.go regenerates every table and figure of the paper's
// evaluation under the Go benchmark harness, one Benchmark per artifact
// (run them with `go test -bench=. -benchmem`). Each artifact benchmark
// executes the corresponding internal/exp runner at a reduced scale —
// `cmd/experiments` runs the full-scale versions and prints the actual
// rows/series. Micro-benchmarks for the individual pipeline stages
// (hashing, sketch build, sketch join, the four MI estimators, the full
// join) follow, backing the Section V-D performance discussion.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"misketch/internal/core"
	"misketch/internal/corpus"
	"misketch/internal/exp"
	"misketch/internal/mi"
	"misketch/internal/synth"
	"misketch/internal/table"
)

// benchCfg scales the experiments down so a full -bench=. pass stays in
// benchmark-friendly territory.
func benchCfg() exp.Config {
	return exp.Config{Seed: 3, Trials: 6, Rows: 4000, SketchSize: 256, K: 3}
}

// BenchmarkFullJoinBaseline regenerates the Section V-B1 estimator
// baseline (EXP-FULLJOIN).
func BenchmarkFullJoinBaseline(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFullJoin(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (EXP-FIG2): LV2SK vs TUPSK on
// Trinomial(m=512) across estimators and key processes.
func BenchmarkFigure2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (EXP-FIG3): the CDUnif breakdown
// sweep.
func BenchmarkFigure3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (EXP-FIG4): the Trinomial m sweep
// on TUPSK sketches.
func BenchmarkFigure4(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 4
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (EXP-TAB1): all five sketches on
// both synthetic distributions.
func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCorpus returns a small open-data stand-in for the corpus benches.
func benchCorpus(name string, seed int64) *corpus.Corpus {
	cfg := corpus.Config{
		Name: name, NumTables: 10, NumDomains: 2, UniverseSize: 600,
		DomainMin: 200, DomainMax: 550, RowsMin: 1000, RowsMax: 2500,
		ZipfMax: 0.8, NumericShare: 0.5, Categories: 12,
	}
	return corpus.Generate(cfg, seed)
}

// BenchmarkTable2 regenerates Table II (EXP-TAB2): sketch-vs-full-join
// agreement on the NYC and WBF stand-ins.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	cfg.SketchSize = 512
	nyc, wbf := benchCorpus("NYC", 1), benchCorpus("WBF", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable2WithCorpora(cfg, 15, nyc, wbf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (EXP-FIG5): the join-size
// breakdown over the WBF stand-in's pair records.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg()
	cfg.SketchSize = 512
	wbf := benchCorpus("WBF", 2)
	recs, err := exp.RunCorpusPairs(wbf, exp.Table2Methods, cfg, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.RunFig5(recs)
	}
}

// BenchmarkPerfHarness regenerates the Section V-D timing table
// (EXP-PERF) end to end.
func BenchmarkPerfHarness(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunPerf(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section V-D micro-benchmarks -----------------------------------------

// perfTables builds an N-row train table and its candidate, keyed by ~200
// distinct keys (repeated keys, the paper's setting).
func perfTables(n int) (*Table, *Table) {
	rng := rand.New(rand.NewSource(11))
	ds := synth.GenCDUnif(200, n, rng)
	train, cand, err := ds.Tables(synth.KeyDep, synth.TreatMixture, rng)
	if err != nil {
		panic(err)
	}
	return train, cand
}

func benchmarkSketchBuild(b *testing.B, method core.Method, n int) {
	train, _ := perfTables(n)
	opt := Options{Method: method, Size: 256, RNGSeed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SketchTrain(train, "k", "y", opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchBuild(b *testing.B) {
	for _, method := range core.Methods {
		for _, n := range []int{5000, 20000} {
			b.Run(fmt.Sprintf("%s/N=%d", method, n), func(b *testing.B) {
				benchmarkSketchBuild(b, method, n)
			})
		}
	}
}

// BenchmarkSketchTable is the write path before the store: parse one
// 2 000-row CSV (500 repeated keys, two numeric and two categorical
// value columns) and sketch all four columns as candidates — the shape
// the repository benchmark's ingest_compact workload ingests. The four
// builds share the table's key plan.
func BenchmarkSketchTable(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var csv bytes.Buffer
	csv.WriteString("key,n1,n2,c1,c2\n")
	for r := 0; r < 2000; r++ {
		g := rng.Intn(500)
		fmt.Fprintf(&csv, "k%d,%.7g,%.7g,grade-%02d,site-%02d\n",
			g, float64(g%17)+0.5*rng.NormFloat64(), rng.NormFloat64(), g%20, rng.Intn(15))
	}
	cols := []struct {
		name string
		agg  AggFunc
	}{{"n1", AggAvg}, {"n2", AggAvg}, {"c1", AggMode}, {"c2", AggMode}}
	b.ReportAllocs()
	b.SetBytes(int64(csv.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := ReadCSV(bytes.NewReader(csv.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cols {
			sk, err := SketchCandidate(tb, "key", c.name, Options{Size: 256, Agg: c.agg})
			if err != nil {
				b.Fatal(err)
			}
			if sk.Len() != 256 {
				b.Fatalf("%s: %d entries, want a full sketch", c.name, sk.Len())
			}
		}
	}
}

// BenchmarkSketchJoin measures joining two prebuilt 256-entry sketches —
// the operation the paper reports at 0.03–0.18ms. "scratch" runs the
// query-compiled probe join Store ranking uses; "legacy" the
// allocation-per-call entry point.
func BenchmarkSketchJoin(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		train, cand := perfTables(n)
		opt := Options{Size: 256, RNGSeed: 5}
		st, err := SketchTrain(train, "k", "y", opt)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := SketchCandidate(cand, "k", "x", opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("legacy/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Join(st, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scratch/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			probe := CompileTrain(st)
			var scratch EstimatorScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := probe.JoinScratch(sc, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullJoin measures materializing the aggregate-then-left-join —
// the cost the sketches avoid (paper: 0.35ms at N=5k to 2.1ms at N=20k).
func BenchmarkFullJoin(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			train, cand := perfTables(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := table.AugmentationJoin(train, "k", cand, "k", "x", table.AggFirst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// estimatorSample draws paired samples for the estimator benches.
func estimatorSample(n int) (xs, ys []float64, cs, ds []string) {
	rng := rand.New(rand.NewSource(13))
	xs = make([]float64, n)
	ys = make([]float64, n)
	cs = make([]string, n)
	ds = make([]string, n)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		xs[i] = x
		ys[i] = x + rng.NormFloat64()
		cs[i] = fmt.Sprintf("c%d", rng.Intn(16))
		ds[i] = fmt.Sprintf("d%d", rng.Intn(16))
	}
	return xs, ys, cs, ds
}

// BenchmarkEstimators measures each MI estimator at sketch-join scale
// (256) and full-join scale (10k) — the paper reports MI estimation on
// the full join at 2.2–10.7ms vs ~0.1ms on the sketch. The estimators
// run on a reused mi.Scratch, as the ranking hot path runs them; see
// BenchmarkEstimatorsLegacy for the allocation-per-call wrappers.
func BenchmarkEstimators(b *testing.B) {
	var s mi.Scratch
	for _, n := range []int{256, 10000} {
		xs, ys, cs, ds := estimatorSample(n)
		b.Run(fmt.Sprintf("MLE/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.MLE(cs, ds)
			}
		})
		b.Run(fmt.Sprintf("KSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.KSG(xs, ys, 3)
			}
		})
		b.Run(fmt.Sprintf("MixedKSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.MixedKSG(xs, ys, 3)
			}
		})
		b.Run(fmt.Sprintf("DCKSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.DCKSG(cs, ys, 3)
			}
		})
	}
}

// BenchmarkEstimatorsLegacy measures the package-level estimator entry
// points, which allocate fresh scratch state per call.
func BenchmarkEstimatorsLegacy(b *testing.B) {
	for _, n := range []int{256} {
		xs, ys, cs, ds := estimatorSample(n)
		b.Run(fmt.Sprintf("MLE/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi.MLE(cs, ds)
			}
		})
		b.Run(fmt.Sprintf("KSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi.KSG(xs, ys, 3)
			}
		})
		b.Run(fmt.Sprintf("MixedKSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi.MixedKSG(xs, ys, 3)
			}
		})
		b.Run(fmt.Sprintf("DCKSG/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi.DCKSG(cs, ys, 3)
			}
		})
	}
}

// --- Ablation benches (DESIGN.md "design choices") -------------------------

// BenchmarkAblationTupleVsKeyHashing isolates design choice 1: the cost
// and join-recovery difference between hashing ⟨k, j⟩ (TUPSK) and hashing
// k alone (LV2SK's first level) on a skewed-key table.
func BenchmarkAblationTupleVsKeyHashing(b *testing.B) {
	train, cand := perfTables(20000)
	for _, method := range []core.Method{core.TUPSK, core.LV2SK} {
		b.Run(string(method), func(b *testing.B) {
			opt := Options{Method: method, Size: 256, RNGSeed: 5}
			joinTotal := 0
			for i := 0; i < b.N; i++ {
				st, err := SketchTrain(train, "k", "y", opt)
				if err != nil {
					b.Fatal(err)
				}
				sc, err := SketchCandidate(cand, "k", "x", opt)
				if err != nil {
					b.Fatal(err)
				}
				js, err := core.Join(st, sc)
				if err != nil {
					b.Fatal(err)
				}
				joinTotal += js.Size
			}
			b.ReportMetric(float64(joinTotal)/float64(b.N), "join-size")
		})
	}
}

// --- Store-scale discovery benches ----------------------------------------

// benchStore fills a store with the first nCand candidates of the
// planted-cohort discovery corpus (synth.PlantedCohort, which describes
// the workload) under "bench/", plus a decoy population the prefix
// filter must exclude, and returns it with the matching train sketch.
func benchStore(b *testing.B, dir string, nCand int, opt OpenStoreOptions) (*Store, *Sketch) {
	b.Helper()
	st, err := OpenStoreWithOptions(dir, opt)
	if err != nil {
		b.Fatal(err)
	}
	train, cands := synth.PlantedCohort(nCand)
	for c, sk := range cands {
		if err := st.Put(fmt.Sprintf("bench/t%04d#x", c), sk); err != nil {
			b.Fatal(err)
		}
		// A decoy the prefix filter must exclude without reading it.
		if c%4 == 0 {
			if err := st.Put(fmt.Sprintf("decoy/t%04d#x", c), sk); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Persist the manifest but hand back an OPEN handle: the store must
	// stay usable for the sub-benchmarks, so closing is deferred to
	// cleanup rather than done (and then ignored) here.
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := st.Close(); err != nil {
			b.Error(err)
		}
	})
	return st, train
}

// BenchmarkStoreRank measures a discovery query over a store of 1000+
// prebuilt candidate sketches — the deployment path (catalog of
// pre-built sketches, MI ranking on demand). "top10" exercises the
// manifest-filtered, bounded-heap top-K path; "all" ranks and sorts
// everything; "top10-cold" reopens the store each iteration, so the
// manifest open plus uncached reads are inside the measurement.
func BenchmarkStoreRank(b *testing.B) {
	const nCand = 1000
	dir := b.TempDir()
	st, train := benchStore(b, dir, nCand, OpenStoreOptions{})
	ctx := context.Background()

	b.Run("top10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ranked, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10})
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) != 10 {
				b.Fatalf("ranked = %d", len(ranked))
			}
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("top10-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cold.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Worker-fanout variants of the warm top-10 path: run with
	// GOMAXPROCS unpinned so the workers actually parallelize the
	// estimation; "top10" above is the 1-worker reference.
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("top10-workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranked, _, err := st.RankQuery(ctx, train, RankOptions{
					Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != 10 {
					b.Fatalf("ranked = %d", len(ranked))
				}
			}
		})
	}
}

// BenchmarkStoreRankCascade isolates the two-tier estimator cascade on
// the warm top-10 path: "cascade" is the default two-phase ranking
// (cheap binned tier over every pair, exact KSG tier only for pairs
// whose cheap score plus the calibrated margin can still reach the
// running 10th-best exact MI), "exact" is the same query with
// RankOptions.NoCascade — the historic estimate-everything reference the
// cascade must match bit for bit. Cascade counter deltas are reported as
// per-op metrics: cheap-only/op pairs settled without the exact tier,
// exact/op pairs that paid it, rescues/op pairs the margin or saturation
// guard pulled back into the exact tier and that entered a heap.
func BenchmarkStoreRankCascade(b *testing.B) {
	const nCand = 1000
	st, train := benchStore(b, b.TempDir(), nCand, OpenStoreOptions{})
	ctx := context.Background()

	for _, bench := range []struct {
		name      string
		noCascade bool
		workers   int
	}{
		{"cascade", false, 0},
		{"exact", true, 0},
		{"cascade-workers2", false, 2},
		{"exact-workers2", true, 2},
		{"cascade-workers4", false, 4},
		{"exact-workers4", true, 4},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			before := st.Stats()
			for i := 0; i < b.N; i++ {
				ranked, _, err := st.RankQuery(ctx, train, RankOptions{
					Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10,
					NoCascade: bench.noCascade, Workers: bench.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != 10 {
					b.Fatalf("ranked = %d", len(ranked))
				}
			}
			after := st.Stats()
			b.ReportMetric(float64(after.CascadeCheapOnly-before.CascadeCheapOnly)/float64(b.N), "cheap-only/op")
			b.ReportMetric(float64(after.CascadeExact-before.CascadeExact)/float64(b.N), "exact/op")
			b.ReportMetric(float64(after.CascadeMarginRescues-before.CascadeMarginRescues)/float64(b.N), "rescues/op")
		})
	}
}

// BenchmarkStoreRankCold isolates the cold discovery path — the
// segment engine's acceptance benchmark: the store is built and closed
// once (segments sealed), and every iteration opens a fresh handle and
// runs a top-10 query, so the manifest load, segment mmap, and
// per-candidate record decodes are all inside the measurement. Under
// the file-per-sketch engine this paid one open+read+decode per
// candidate; the segment engine decodes candidates in place out of the
// mapping, which pushes the cold path down to the estimation floor.
func BenchmarkStoreRankCold(b *testing.B) {
	const nCand = 1000
	dir := b.TempDir()
	st, train := benchStore(b, dir, nCand, OpenStoreOptions{})
	// Seal the active segment the way any restart would; Close keeps the
	// handle usable for the deferred cleanup.
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		ranked, _, err := cold.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(ranked) != 10 {
			b.Fatalf("ranked = %d", len(ranked))
		}
	}
}

// benchCompressedStores builds the same categorical-weighted discovery
// corpus — the workload segment compression targets: three quarters of
// the candidates carry repetitive structured labels, one quarter numeric
// features, all over a shared key universe — into two sealed catalogs:
// one compacted raw, one compacted with Compression. Rankings over the
// two must be bit-identical; the size ratio comes from the store's
// compression counters.
func benchCompressedStores(b *testing.B, nCand int) (raw, comp *Store, train *Sketch, compDir string) {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	sopt := Options{Size: 256}
	signal := func(g int) float64 { return float64(g % 20) }
	tb, err := NewStreamBuilder(RoleTrain, true, sopt)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		g := rng.Intn(300)
		tb.AddNum(fmt.Sprintf("g%d", g), signal(g)+0.25*rng.NormFloat64())
	}
	train = tb.Sketch()

	raw, err = OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	compDir = b.TempDir()
	comp, err = OpenStoreWithOptions(compDir, OpenStoreOptions{Compression: true})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < nCand; c++ {
		numeric := c%4 == 3
		cb, err := NewStreamBuilder(RoleCandidate, numeric, sopt)
		if err != nil {
			b.Fatal(err)
		}
		for g := 0; g < 300; g++ {
			key := fmt.Sprintf("g%d", g)
			switch {
			case numeric:
				cb.AddNum(key, signal(g)+(0.3+0.1*float64(c%7))*rng.NormFloat64())
			case c%16 == 0:
				// Planted categorical cohort: labels aligned with the
				// target signal, detected by the discrete-continuous
				// estimator.
				cb.AddStr(key, fmt.Sprintf("category/v%02d", (g%20)/3))
			default:
				// Bulk: independent structured labels.
				cb.AddStr(key, fmt.Sprintf("category/v%02d", rng.Intn(9)))
			}
		}
		name := fmt.Sprintf("bench/t%04d#x", c)
		sk := cb.Sketch()
		if err := raw.Put(name, sk); err != nil {
			b.Fatal(err)
		}
		if err := comp.Put(name, sk); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	// The compression pass runs with zero garbage (the backfill rule);
	// the raw store needs a dead record for its pass to do anything.
	if cs, err := comp.Compact(ctx); err != nil || !cs.Compacted {
		b.Fatalf("compressed compact = %+v, %v", cs, err)
	}
	if m := raw.Metas(); len(m) > 0 {
		sk, err := raw.Get(m[0].Name)
		if err != nil {
			b.Fatal(err)
		}
		if err := raw.Put(m[0].Name, sk); err != nil {
			b.Fatal(err)
		}
	}
	if cs, err := raw.Compact(ctx); err != nil || !cs.Compacted {
		b.Fatalf("raw compact = %+v, %v", cs, err)
	}
	b.Cleanup(func() {
		if err := raw.Close(); err != nil {
			b.Error(err)
		}
		if err := comp.Close(); err != nil {
			b.Error(err)
		}
	})
	return raw, comp, train, compDir
}

// BenchmarkStoreRankCompressed measures ranking over an FSST-compressed
// catalog against the identical raw catalog — the PR 8 acceptance
// matrix. "top10" is the warm compressed path (decode through the
// per-segment decoder), "top10-raw" the warm raw reference it must stay
// within noise of, "top10-cold" the cold compressed path (open, mmap,
// dict parse, and decodes inside the measurement). The achieved
// compression ratio is reported as the ratio metric and asserted >= 2x;
// compressed and raw rankings are asserted bit-identical before timing.
func BenchmarkStoreRankCompressed(b *testing.B) {
	const nCand = 1000
	raw, comp, train, compDir := benchCompressedStores(b, nCand)
	ctx := context.Background()

	ss := comp.Stats()
	if ss.CompressedSegments == 0 || ss.RawBytes < 2*ss.CompressedBytes {
		b.Fatalf("compression ratio below 2x: %+v", ss)
	}
	ratio := float64(ss.RawBytes) / float64(ss.CompressedBytes)
	rawRanked, _, err := raw.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	compRanked, _, err := comp.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	if len(rawRanked) != len(compRanked) {
		b.Fatalf("rankings diverge: %d vs %d results", len(rawRanked), len(compRanked))
	}
	for i := range rawRanked {
		if rawRanked[i].Name != compRanked[i].Name || rawRanked[i].MI != compRanked[i].MI {
			b.Fatalf("rank %d diverges: raw %+v compressed %+v", i, rawRanked[i], compRanked[i])
		}
	}

	run := func(st *Store) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranked, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10})
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != 10 {
					b.Fatalf("ranked = %d", len(ranked))
				}
			}
			b.ReportMetric(ratio, "ratio")
		}
	}
	b.Run("top10", run(comp))
	b.Run("top10-raw", run(raw))
	b.Run("top10-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold, err := OpenStoreWithOptions(compDir, OpenStoreOptions{Compression: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cold.RankQuery(ctx, train, RankOptions{Prefix: "bench/", MinJoinSize: 50, K: DefaultK, TopK: 10}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ratio, "ratio")
	})
}

// benchIndexedStore builds a 10k-candidate sealed catalog for the
// index-selection benches: ~1% of candidates share a dense key window
// with the train (join size far above the min-join bar), ~9% overlap it
// marginally (pruned by exact key overlap), and the rest live in a
// disjoint key range. The store is closed (sealing the segments and
// emitting their inverted key indexes) and reopened with the decode
// cache disabled, so DiskReads counts exactly one decode per visited
// candidate per query.
func benchIndexedStore(b *testing.B, nCand int) (*Store, *Sketch, int) {
	b.Helper()
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	sopt := Options{Size: 256}
	tb, err := NewStreamBuilder(RoleTrain, true, sopt)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(200)), rng.NormFloat64())
	}
	train := tb.Sketch()
	for c := 0; c < nCand; c++ {
		cb, err := NewStreamBuilder(RoleCandidate, true, sopt)
		if err != nil {
			b.Fatal(err)
		}
		switch {
		case c%100 == 0:
			// Matching: dense window inside the train's key range.
			lo := (c / 100) % 50
			for g := lo; g < lo+150; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7)+rng.NormFloat64())
			}
		case c%100 < 10:
			// Marginal: a thin slice of train keys, overlap below the
			// min-join bar — the index proves them prunable.
			lo := (c * 7) % 180
			for g := lo; g < lo+20; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7)+rng.NormFloat64())
			}
			for g := 0; g < 100; g++ {
				cb.AddNum(fmt.Sprintf("z%d", rng.Intn(2000)), rng.NormFloat64())
			}
		default:
			// Disjoint: no train key at all.
			for g := 0; g < 120; g++ {
				cb.AddNum(fmt.Sprintf("z%d", rng.Intn(2000)), rng.NormFloat64())
			}
		}
		if err := st.Put(fmt.Sprintf("idx/t%05d#x", c), cb.Sketch()); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	st, err = OpenStoreWithOptions(dir, OpenStoreOptions{CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	if ss := st.Stats(); ss.IndexedSegments == 0 {
		b.Fatalf("sealed catalog carries no key index: %+v", ss)
	}
	b.Cleanup(func() {
		if err := st.Close(); err != nil {
			b.Error(err)
		}
	})
	return st, train, nCand / 100
}

// BenchmarkStoreRankIndexed measures index-driven candidate selection
// on a sealed 10k-candidate catalog where ~1% of candidates beat the
// min-join bar: "indexed" intersects the train's distinct key hashes
// against the per-segment inverted indexes and decodes only the
// matching candidates; "fullwalk" (NoIndex) is the historic reference
// that decodes and probes all 10k; "selection-only" raises the bar
// beyond every join size, isolating the pure selection phase. Each
// sub-bench reports decodes/op and skipped/op from the store counters.
func BenchmarkStoreRankIndexed(b *testing.B) {
	const (
		nCand   = 10000
		minJoin = 100
	)
	st, train, matching := benchIndexedStore(b, nCand)
	ctx := context.Background()

	run := func(b *testing.B, opt RankOptions, wantRanked int) {
		b.ReportAllocs()
		before := st.Stats()
		for i := 0; i < b.N; i++ {
			ranked, _, err := st.RankQuery(ctx, train, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) != wantRanked {
				b.Fatalf("ranked = %d, want %d", len(ranked), wantRanked)
			}
		}
		after := st.Stats()
		b.ReportMetric(float64(after.DiskReads-before.DiskReads)/float64(b.N), "decodes/op")
		b.ReportMetric(float64(after.CandidatesSkippedNoDecode-before.CandidatesSkippedNoDecode)/float64(b.N), "skipped/op")
	}

	b.Run("indexed", func(b *testing.B) {
		run(b, RankOptions{Prefix: "idx/", MinJoinSize: minJoin, K: DefaultK, TopK: 10}, 10)
		// The acceptance counter-check: only matching candidates decode.
		before := st.Stats()
		if _, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "idx/", MinJoinSize: minJoin, K: DefaultK, TopK: 10}); err != nil {
			b.Fatal(err)
		}
		after := st.Stats()
		if got := after.DiskReads - before.DiskReads; got != int64(matching) {
			b.Fatalf("indexed query decoded %d candidates, want the %d matching ones", got, matching)
		}
	})
	b.Run("fullwalk", func(b *testing.B) {
		run(b, RankOptions{Prefix: "idx/", MinJoinSize: minJoin, K: DefaultK, TopK: 10, NoIndex: true}, 10)
	})
	b.Run("selection-only", func(b *testing.B) {
		// A bar no join size reaches: selection proves every candidate
		// prunable, so the measurement is the selection phase itself.
		run(b, RankOptions{Prefix: "idx/", MinJoinSize: 1 << 30, K: DefaultK, TopK: 10}, 0)
	})
}

// benchBatchStore fills a store with nCand candidate sketches over
// sliding key windows and returns it with nTrains train sketches over
// staggered windows — the multi-target sweep workload: every train
// joins a different subset of the corpus, so a large fraction of
// (train, candidate) pairs fall under the min-join bar and are
// prunable from key hashes alone.
func benchBatchStore(b *testing.B, nCand, nTrains int) (*Store, []*Sketch) {
	b.Helper()
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	sopt := Options{Size: 256}
	trains := make([]*Sketch, nTrains)
	for q := range trains {
		tb, err := NewStreamBuilder(RoleTrain, true, sopt)
		if err != nil {
			b.Fatal(err)
		}
		lo := q * 45
		for i := 0; i < 4000; i++ {
			tb.AddNum(fmt.Sprintf("g%d", lo+rng.Intn(150)), rng.NormFloat64())
		}
		trains[q] = tb.Sketch()
	}
	for c := 0; c < nCand; c++ {
		cb, err := NewStreamBuilder(RoleCandidate, true, sopt)
		if err != nil {
			b.Fatal(err)
		}
		if c%4 == 0 {
			// Local candidate: a contiguous key window. Joins heavily with
			// the trains it overlaps — these survive the min-join filter
			// and feed the rankings.
			lo := (c * 29) % 350
			for g := lo; g < lo+150; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7)+rng.NormFloat64())
			}
		} else {
			// Diffuse candidate: keys spread over the whole universe. Every
			// train joins it a little — a moderate join (~60–90 samples)
			// that the min-join confidence filter rejects, but that costs a
			// real estimator run to reject without the prefilter.
			for j := 0; j < 120; j++ {
				cb.AddNum(fmt.Sprintf("g%d", rng.Intn(500)), float64(j%7)+rng.NormFloat64())
			}
		}
		if err := st.Put(fmt.Sprintf("batch/t%04d#x", c), cb.Sketch()); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := st.Close(); err != nil {
			b.Error(err)
		}
	})
	return st, trains
}

// BenchmarkStoreRankBatch measures the batch pipeline against its
// baseline: "batch8" ranks 8 train sketches over 1000 stored candidates
// in ONE RankBatch pass (shared candidate loads, key-overlap prefilter),
// "sequential8" issues the same 8 queries as independent RankQuery
// calls, the way a client loops today. Both are warm and return
// identical rankings; the acceptance bar is batch >= 1.5x sequential.
// The prune rate is reported as the pruned-pairs/op metric.
func BenchmarkStoreRankBatch(b *testing.B) {
	const (
		nCand   = 1000
		nTrains = 8
		minJoin = 100 // the paper's confidence filter, and the prefilter bar
		topK    = 10
	)
	st, trains := benchBatchStore(b, nCand, nTrains)
	ctx := context.Background()

	b.Run("batch8", func(b *testing.B) {
		b.ReportAllocs()
		var pruned int64
		for i := 0; i < b.N; i++ {
			res, err := RankBatch(ctx, st, trains, BatchRankOptions{
				Prefix: "batch/", MinJoinSize: minJoin, K: DefaultK, TopK: topK,
			})
			if err != nil {
				b.Fatal(err)
			}
			pruned = 0
			for _, q := range res.Queries {
				if len(q.Ranked) == 0 {
					b.Fatal("empty ranking")
				}
				pruned += int64(q.Pruned)
			}
		}
		b.ReportMetric(float64(pruned), "pruned-pairs/op")
	})
	b.Run("sequential8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tr := range trains {
				ranked, _, err := st.RankQuery(ctx, tr, RankOptions{
					Prefix: "batch/", MinJoinSize: minJoin, K: DefaultK, TopK: topK,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) == 0 {
					b.Fatal("empty ranking")
				}
			}
		}
	})
}

// BenchmarkAblationAggregation isolates design choice 3: the cost of the
// candidate-side aggregation step for each featurization function.
func BenchmarkAblationAggregation(b *testing.B) {
	_, cand := perfTables(20000)
	for _, agg := range []AggFunc{AggFirst, AggAvg, AggMode, AggCount, AggMedian} {
		b.Run(string(agg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := table.Aggregate(cand, "k", "x", agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
