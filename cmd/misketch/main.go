// Command misketch estimates mutual information between columns of CSV
// tables across a (virtual) join, using the TUPSK sketches from the
// paper. It supports one-shot estimation between two tables and ranking
// a directory of candidate tables against a base table.
//
// Estimate MI between taxi.csv#num_trips and weather.csv#temp joined on
// their date columns, without materializing the join:
//
//	misketch estimate -train taxi.csv -train-key date -target num_trips \
//	                  -cand weather.csv -cand-key date -feature temp -agg avg
//
// Rank every column of every CSV file in ./candidates/ by estimated MI
// with the target:
//
//	misketch rank -train taxi.csv -train-key date -target num_trips ./candidates
//
// Compare the sketch estimate against the exact full-join computation:
//
//	misketch estimate -full ...
//
// Maintain an on-disk sketch store (segment-packed, manifest-indexed): bulk
// ingest every column of every CSV in a directory through a parallel
// StreamBuilder pool, then answer discovery queries against it:
//
//	misketch store ingest -store ./sketches -key date ./candidates
//	misketch store rank   -store ./sketches -train taxi.csv -train-key date -target num_trips
//
// Sweep several target columns in one batch — the store is walked once
// and the key-overlap prefilter prunes (target, candidate) pairs whose
// join is provably too small:
//
//	misketch store rank -store ./sketches -train taxi.csv -train-key date \
//	                    -trains num_trips,avg_fare,tip_ratio
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"misketch"
	"misketch/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "estimate":
		runEstimate(os.Args[2:])
	case "rank":
		runRank(os.Args[2:])
	case "store":
		runStore(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  misketch estimate      -train FILE -train-key COL -target COL -cand FILE -cand-key COL -feature COL [flags]
  misketch rank          -train FILE -train-key COL -target COL [flags] CANDIDATE_DIR
  misketch store ingest  -store DIR -key COL [-workers N] [flags] CSV_OR_DIR...
  misketch store rank    -store DIR -train FILE -train-key COL -target COL [-trains COL,COL,...] [-workers N]
                         [-no-cascade] [-cascade-margin NATS] [-stats] [flags]
  misketch store ls      -store DIR [-segments]
  misketch store rebuild -store DIR
  misketch store compact -store DIR [-compress]
  misketch serve         -store DIR [-addr :8080] [-max-workers N] [-cache BYTES]
                         [-result-cache-bytes BYTES] [-compact-every DUR]
                         [-segment-bytes N] [-pprof]
  misketch serve         -coordinator -shards URL,URL,... [-addr :8080]
                         [-shard-timeout DUR] [-shard-connect-timeout DUR] [-shard-retries N]`)
}

// runStore dispatches the store subcommand family.
func runStore(args []string) {
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "ingest":
		runStoreIngest(args[1:])
	case "rank":
		runStoreRank(args[1:])
	case "ls":
		runStoreLs(args[1:])
	case "rebuild":
		runStoreRebuild(args[1:])
	case "compact":
		runStoreCompact(args[1:])
	default:
		usage()
		os.Exit(2)
	}
}

// commonFlags registers the flags shared by both subcommands.
func commonFlags(fs *flag.FlagSet) (train, trainKey, target *string, size *int, agg *string, seed *uint) {
	train = fs.String("train", "", "base table CSV file")
	trainKey = fs.String("train-key", "", "join-key column of the base table")
	target = fs.String("target", "", "target column of the base table")
	size = fs.Int("sketch", misketch.DefaultSketchSize, "sketch size n")
	agg = fs.String("agg", "first", "aggregation for repeated candidate keys: avg|sum|count|min|max|mode|first|median")
	seed = fs.Uint("seed", 0, "hash seed (0 = default); both sketches must share it")
	return
}

func buildTrainSketch(train, trainKey, target string, size int, seed uint) *misketch.Sketch {
	tb, err := misketch.ReadCSVFile(train)
	die(err)
	s, err := misketch.SketchTrain(tb, trainKey, target, misketch.Options{
		Size: size, Seed: uint32(seed),
	})
	die(err)
	return s
}

func runEstimate(args []string) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	train, trainKey, target, size, agg, seed := commonFlags(fs)
	cand := fs.String("cand", "", "candidate table CSV file")
	candKey := fs.String("cand-key", "", "join-key column of the candidate table")
	feature := fs.String("feature", "", "feature column of the candidate table")
	full := fs.Bool("full", false, "also compute the exact full-join MI for comparison")
	ci := fs.Bool("ci", false, "attach a 95% subsampling confidence interval to the sketch estimate")
	die(fs.Parse(args))
	requireFlags(map[string]string{
		"train": *train, "train-key": *trainKey, "target": *target,
		"cand": *cand, "cand-key": *candKey, "feature": *feature,
	})

	st := buildTrainSketch(*train, *trainKey, *target, *size, *seed)
	candTable, err := misketch.ReadCSVFile(*cand)
	die(err)
	sc, err := misketch.SketchCandidate(candTable, *candKey, *feature, misketch.Options{
		Size: *size, Seed: uint32(*seed), Agg: misketch.AggFunc(*agg),
	})
	die(err)
	res, err := misketch.EstimateMI(st, sc)
	die(err)
	fmt.Printf("sketch MI estimate: %.4f nats (estimator %s, sketch join size %d)\n",
		res.MI, res.Estimator, res.N)
	if *ci {
		_, interval, err := misketch.EstimateMIWithCI(st, sc, 100, 0.95, 1)
		die(err)
		fmt.Printf("95%% confidence:     [%.4f, %.4f]\n", interval.Lo, interval.Hi)
	}
	if *full {
		trainTable, err := misketch.ReadCSVFile(*train)
		die(err)
		fr, err := misketch.FullJoinMI(trainTable, *trainKey, *target,
			candTable, *candKey, *feature, misketch.AggFunc(*agg))
		die(err)
		fmt.Printf("full-join MI:       %.4f nats (estimator %s, join size %d)\n",
			fr.MI, fr.Estimator, fr.N)
	}
}

func runRank(args []string) {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	train, trainKey, target, size, agg, seed := commonFlags(fs)
	candKey := fs.String("cand-key", "", "join-key column of candidates (default: same name as -train-key)")
	minJoin := fs.Int("min-join", 100, "drop candidates whose sketch join has at most this many samples")
	top := fs.Int("top", 20, "show the top-K candidates")
	die(fs.Parse(args))
	requireFlags(map[string]string{"train": *train, "train-key": *trainKey, "target": *target})
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "rank: exactly one candidate directory required")
		os.Exit(2)
	}
	dir := fs.Arg(0)
	key := *candKey
	if key == "" {
		key = *trainKey
	}

	st := buildTrainSketch(*train, *trainKey, *target, *size, *seed)

	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	die(err)
	sort.Strings(paths)
	var cands []misketch.Candidate
	for _, p := range paths {
		tb, err := misketch.ReadCSVFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", p, err)
			continue
		}
		if tb.Column(key) == nil {
			continue // not joinable on this key
		}
		for _, col := range tb.Columns() {
			if col.Name == key {
				continue
			}
			s, err := misketch.SketchCandidate(tb, key, col.Name, misketch.Options{
				Size: *size, Seed: uint32(*seed), Agg: pickAgg(misketch.AggFunc(*agg), col),
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "skipping %s#%s: %v\n", p, col.Name, err)
				continue
			}
			cands = append(cands, misketch.Candidate{
				Name:   fmt.Sprintf("%s#%s", filepath.Base(p), col.Name),
				Sketch: s,
			})
		}
	}
	if len(cands) == 0 {
		fmt.Fprintf(os.Stderr, "no joinable candidate columns found in %s (key %q)\n", dir, key)
		os.Exit(1)
	}
	ranked, err := misketch.Rank(st, cands, *minJoin)
	die(err)
	fmt.Printf("%-40s %10s %10s %10s\n", "candidate", "MI (nats)", "estimator", "join size")
	for i, r := range ranked {
		if i >= *top {
			break
		}
		fmt.Printf("%-40s %10.4f %10s %10d\n", r.Name, r.MI, r.Estimator, r.JoinSize)
	}
	fmt.Printf("(%d candidates evaluated, %d passed the min-join filter; rank within one estimator family)\n",
		len(cands), len(ranked))
}

// pickAgg falls back to MODE for string columns when the requested
// aggregate needs numeric input.
func pickAgg(requested misketch.AggFunc, col *misketch.Column) misketch.AggFunc {
	if _, ok := requested.OutputKind(col.Kind); ok {
		return requested
	}
	if col.Kind == table.KindString {
		return misketch.AggMode
	}
	return misketch.AggFirst
}

func requireFlags(vals map[string]string) {
	for name, v := range vals {
		if v == "" {
			fmt.Fprintf(os.Stderr, "missing required flag -%s\n", name)
			os.Exit(2)
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "misketch:", err)
		os.Exit(1)
	}
}

// runStoreIngest bulk-ingests CSV files into a sketch store: every
// non-key column of every file gets a candidate sketch persisted under
// "file#column@key". Files fan out across a worker pool; each CSV is
// loaded as a table once, its keys are grouped and hashed once (the
// table's key plan), and every column's sketch aggregates only the keys
// it samples. Up to -workers tables are resident at a time. Exits
// non-zero if any store write failed; unreadable or malformed files and
// files without the key column are skipped with a warning.
func runStoreIngest(args []string) {
	fs := flag.NewFlagSet("store ingest", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	key := fs.String("key", "", "join-key column name (must exist in each file)")
	size := fs.Int("sketch", misketch.DefaultSketchSize, "sketch size n")
	agg := fs.String("agg", "first", "aggregation for repeated keys")
	seed := fs.Uint("seed", 0, "hash seed (0 = default)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel ingestion workers")
	die(fs.Parse(args))
	requireFlags(map[string]string{"store": *storeDir, "key": *key})
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "store ingest: at least one CSV file or directory required")
		os.Exit(2)
	}
	paths := expandCSVArgs(fs.Args())
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "store ingest: no CSV files found")
		os.Exit(1)
	}
	// Sketch names are derived from the file basename, so two files with
	// the same basename would silently overwrite each other's sketches —
	// refuse up front rather than lose data nondeterministically.
	byBase := make(map[string]string, len(paths))
	for _, p := range paths {
		base := filepath.Base(p)
		if prev, dup := byBase[base]; dup {
			fmt.Fprintf(os.Stderr, "store ingest: %s and %s would both store sketches under %q; rename one or ingest them into separate stores\n", prev, p, base)
			os.Exit(2)
		}
		byBase[base] = p
	}
	st, err := misketch.OpenStore(*storeDir)
	die(err)
	opt := misketch.Options{Size: *size, Seed: uint32(*seed)}

	if *workers < 1 {
		*workers = 1
	}
	jobs := make(chan string)
	var total, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range jobs {
				n, skip, err := ingestFile(st, path, *key, opt, misketch.AggFunc(*agg))
				total.Add(int64(n)) // count partial progress before a failure too
				switch {
				case err != nil:
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "%s: %v (%d sketches already ingested)\n", path, err, n)
				case skip != nil:
					fmt.Fprintf(os.Stderr, "skipping %s: %v\n", path, skip)
				}
			}
		}()
	}
	for _, p := range paths {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	die(st.Close()) // persist the manifest for what did succeed
	fmt.Printf("ingested %d sketches from %d files into %s\n", total.Load(), len(paths), *storeDir)
	if n := failed.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "store ingest: %d file(s) failed\n", n)
		os.Exit(1)
	}
}

// expandCSVArgs turns a mix of CSV paths and directories into a sorted,
// deduplicated list of CSV files (directories contribute their *.csv
// entries; naming a file both directly and via its directory is fine).
func expandCSVArgs(args []string) []string {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		p = filepath.Clean(p)
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, a := range args {
		if fi, err := os.Stat(a); err == nil && fi.IsDir() {
			matches, err := filepath.Glob(filepath.Join(a, "*.csv"))
			die(err)
			for _, m := range matches {
				add(m)
			}
			continue
		}
		add(a)
	}
	sort.Strings(paths)
	return paths
}

// ingestFile sketches every non-key column of one CSV as a candidate
// and stores the results. It returns the number of sketches ingested, a
// benign skip reason (unreadable or malformed file, missing key column),
// and a store-write error — only the latter should fail the run.
func ingestFile(st *misketch.Store, path, key string, opt misketch.Options, agg misketch.AggFunc) (n int, skip, err error) {
	tb, err := misketch.ReadCSVFile(path)
	if err != nil {
		return 0, err, nil
	}
	if tb.Column(key) == nil {
		return 0, fmt.Errorf("no column %q", key), nil
	}
	for _, col := range tb.Columns() {
		if col.Name == key {
			continue
		}
		o := opt
		o.Agg = pickAgg(agg, col)
		sk, err := misketch.SketchCandidate(tb, key, col.Name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %s#%s: %v\n", path, col.Name, err)
			continue
		}
		name := fmt.Sprintf("%s#%s@%s", filepath.Base(path), col.Name, key)
		if err := st.Put(name, sk); err != nil {
			return n, nil, err
		}
		n++
	}
	return n, nil, nil
}

// runStoreRank answers a discovery query against a sketch store. The
// ranking is top-K bounded and cancellable with Ctrl-C. With -trains, a
// comma-separated list of target columns is swept as one batch: every
// target becomes a train sketch over the same join key and the store is
// walked once (Store.RankBatch), with the key-overlap prefilter pruning
// (target, candidate) pairs whose join provably fails the min-join bar.
func runStoreRank(args []string) {
	fs := flag.NewFlagSet("store rank", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	train, trainKey, target, size, _, seed := commonFlags(fs)
	trains := fs.String("trains", "", "comma-separated target columns to sweep as one batch (overrides -target)")
	minJoin := fs.Int("min-join", 100, "drop candidates whose sketch join has at most this many samples")
	top := fs.Int("top", 20, "return only the top-K candidates")
	prefix := fs.String("prefix", "", "only rank stored sketches whose name has this prefix")
	workers := fs.Int("workers", 0, "estimation worker fan-out (0 = automatic)")
	noCascade := fs.Bool("no-cascade", false, "disable the two-tier estimator cascade (exact tier on every pair)")
	cascadeMargin := fs.Float64("cascade-margin", 0, "override the cascade safety margin in nats (0 = calibrated default)")
	stats := fs.Bool("stats", false, "print cache, disk-read, and cascade counters after the query")
	die(fs.Parse(args))
	requireFlags(map[string]string{"store": *storeDir, "train": *train, "train-key": *trainKey})
	targets := []string{*target}
	if *trains != "" {
		targets = nil
		for _, col := range strings.Split(*trains, ",") {
			if col = strings.TrimSpace(col); col != "" {
				targets = append(targets, col)
			}
		}
	}
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "") {
		fmt.Fprintln(os.Stderr, "missing required flag -target (or -trains)")
		os.Exit(2)
	}

	tb, err := misketch.ReadCSVFile(*train)
	die(err)
	trainSks := make([]*misketch.Sketch, len(targets))
	for i, col := range targets {
		sk, err := misketch.SketchTrain(tb, *trainKey, col, misketch.Options{
			Size: *size, Seed: uint32(*seed),
		})
		die(err)
		trainSks[i] = sk
	}
	sketches, err := misketch.OpenStore(*storeDir)
	die(err)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	started := time.Now()
	res, err := misketch.RankBatch(ctx, sketches, trainSks, misketch.RankOptions{
		Prefix:        *prefix,
		MinJoinSize:   *minJoin,
		K:             misketch.DefaultK,
		TopK:          *top,
		Workers:       *workers,
		NoCascade:     *noCascade,
		CascadeMargin: *cascadeMargin,
	})
	die(err)
	elapsed := time.Since(started)
	for q, col := range targets {
		if len(targets) > 1 {
			fmt.Printf("== target %s (%d candidates pruned by key-overlap prefilter)\n",
				col, res.Queries[q].Pruned)
		}
		fmt.Printf("%-44s %10s %10s %10s\n", "candidate", "MI (nats)", "estimator", "join size")
		for _, r := range res.Queries[q].Ranked {
			fmt.Printf("%-44s %10.4f %10s %10d\n", r.Name, r.MI, r.Estimator, r.JoinSize)
		}
	}
	if len(res.Skipped) > 0 {
		fmt.Printf("(%d sketches skipped: incompatible seed or role)\n", len(res.Skipped))
	}
	ss := sketches.Stats()
	fmt.Printf("(%d sketches indexed, %d read from disk)\n", ss.Sketches, ss.DiskReads)
	if *stats {
		fmt.Printf("query time:   %s (%d targets in one pass)\n", elapsed, len(targets))
		fmt.Printf("prefilter:    %d (target, candidate) pairs pruned\n", ss.PrunedPairs)
		fmt.Printf("cascade:      %d pairs settled by the cheap tier, %d paid the exact tier, %d margin/guard rescues\n",
			ss.CascadeCheapOnly, ss.CascadeExact, ss.CascadeMarginRescues)
		fmt.Printf("cache:        %d hits, %d misses, %d evictions, %d bytes resident\n",
			ss.CacheHits, ss.CacheMisses, ss.Evictions, ss.CacheBytes)
		fmt.Printf("disk reads:   %d full sketch decodes\n", ss.DiskReads)
		fmt.Printf("workers:      %d (0 = GOMAXPROCS %d)\n", *workers, runtime.GOMAXPROCS(0))
	}
}

// runStoreLs lists the manifest of a sketch store without reading any
// sketch bodies; -segments adds the segment files backing them.
func runStoreLs(args []string) {
	fs := flag.NewFlagSet("store ls", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	segments := fs.Bool("segments", false, "also list the segment files and their live/dead byte split")
	die(fs.Parse(args))
	requireFlags(map[string]string{"store": *storeDir})
	st, err := misketch.OpenStore(*storeDir)
	die(err)
	metas := st.Metas()
	fmt.Printf("%-44s %-6s %-9s %8s %10s %10s %8s\n", "name", "method", "role", "entries", "rows", "bytes", "segment")
	for _, m := range metas {
		role := "cand"
		if m.Role == misketch.RoleTrain {
			role = "train"
		}
		kind := "str"
		if m.Numeric {
			kind = "num"
		}
		fmt.Printf("%-44s %-6s %-9s %8d %10d %10d %8d\n",
			m.Name, fmt.Sprintf("%s/%s", m.Method, kind), role, m.Entries, m.SourceRows, m.Bytes, m.Segment)
	}
	fmt.Printf("(%d sketches)\n", len(metas))
	if *segments {
		fmt.Printf("\n%-12s %-10s %-7s %10s %10s %8s %8s %10s %8s %11s %10s %10s %6s\n",
			"segment", "kind", "state", "bytes", "live-bytes", "records", "live", "dead-bytes", "indexed", "index-bytes", "comp-bytes", "raw-bytes", "ratio")
		for _, info := range st.Segments() {
			kind, state, indexed := "append", "active", "no"
			if info.Compacted {
				kind = "compacted"
			}
			if info.Sealed {
				state = "sealed"
			}
			if info.Indexed {
				indexed = "yes"
			}
			ratio := "-"
			if info.Compressed && info.CompressedBytes > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(info.RawBytes)/float64(info.CompressedBytes))
			}
			fmt.Printf("%-12d %-10s %-7s %10d %10d %8d %8d %10d %8s %11d %10d %10d %6s\n",
				info.Seq, kind, state, info.Bytes, info.LiveBytes, info.Records, info.LiveRecords, info.Bytes-info.LiveBytes, indexed, info.IndexBytes,
				info.CompressedBytes, info.RawBytes, ratio)
		}
	}
}

// runStoreCompact folds the store's segments down to their live
// records: overwritten sketch versions and delete tombstones are
// reclaimed, and the survivors land in one fresh compacted segment.
// -compress makes the pass write an FSST-compressed segment — on an
// existing raw store it is the one-shot compression backfill (the pass
// runs even with nothing to reclaim).
func runStoreCompact(args []string) {
	fs := flag.NewFlagSet("store compact", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	compress := fs.Bool("compress", false, "write FSST-compressed output segments (backfills raw segments)")
	die(fs.Parse(args))
	requireFlags(map[string]string{"store": *storeDir})
	st, err := misketch.OpenStoreWithOptions(*storeDir, misketch.OpenStoreOptions{Compression: *compress})
	die(err)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cs, err := st.Compact(ctx)
	if err != nil {
		st.Close()
		die(err)
	}
	ss := st.Stats()
	die(st.Close())
	if !cs.Compacted {
		fmt.Printf("nothing to compact: %d segment(s), %d live records, no dead bytes\n",
			cs.SegmentsBefore, cs.Records)
		return
	}
	fmt.Printf("compacted %d segment(s) (%d bytes) into 1 (%d bytes): %d live records kept, %d bytes reclaimed\n",
		cs.SegmentsBefore, cs.BytesBefore, cs.BytesAfter, cs.Records, cs.Reclaimed)
	if *compress && ss.CompressedBytes > 0 {
		fmt.Printf("compressed: %d record bytes (raw equivalent %d, %.2fx)\n",
			ss.CompressedBytes, ss.RawBytes, float64(ss.RawBytes)/float64(ss.CompressedBytes))
	}
}

// runServe runs the long-running discovery service over a sketch store:
// one open store, its plan memo, and pooled estimator scratch shared
// across requests, with the total rank-worker fan-out bounded by
// -max-workers. With -coordinator it instead fronts a set of shard
// replicas, scattering each rank query to all of them and merging the
// per-shard top-K heaps. Ctrl-C (or SIGTERM) drains in-flight requests
// (and, store mode, persists the manifest) before exiting.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	addr := fs.String("addr", ":8080", "listen address")
	maxWorkers := fs.Int("max-workers", 0, "total rank-worker bound across requests (0 = GOMAXPROCS)")
	cacheBytes := fs.Int64("cache", 0, "decoded-sketch cache bytes (0 = default, negative disables)")
	resultCache := fs.Int64("result-cache-bytes", 64<<20, "generation-fenced rank result cache bytes (0 disables; store mode only: a coordinator keeps no results)")
	compactEvery := fs.Duration("compact-every", 0, "background compaction check interval (0 disables)")
	segmentBytes := fs.Int64("segment-bytes", 0, "segment roll threshold in bytes (0 = default 128 MiB)")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof profiling handlers (trusted networks only)")
	coordinator := fs.Bool("coordinator", false, "coordinate rank queries across -shards instead of serving a store")
	shards := fs.String("shards", "", "comma-separated shard base URLs (coordinator mode)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-attempt shard request bound (0 = default 2m, negative disables)")
	shardConnect := fs.Duration("shard-connect-timeout", 0, "shard dial bound (0 = default 5s, negative disables)")
	shardRetries := fs.Int("shard-retries", 0, "transient-failure retries per shard request (0 = default 2, negative disables)")
	die(fs.Parse(args))

	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		co, err := misketch.OpenCluster(urls, misketch.ClusterOptions{
			ConnectTimeout: *shardConnect,
			RequestTimeout: *shardTimeout,
			Retries:        *shardRetries,
		})
		die(err)
		ln, err := net.Listen("tcp", *addr)
		die(err)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Printf("misketch serve: coordinating %d shards, listening on %s\n", len(urls), ln.Addr())
		die(co.ServeListener(ctx, ln))
		fmt.Println("misketch serve: coordinator drained, bye")
		return
	}
	requireFlags(map[string]string{"store": *storeDir})

	st, err := misketch.OpenStoreWithOptions(*storeDir, misketch.OpenStoreOptions{
		CacheBytes:   *cacheBytes,
		SegmentBytes: *segmentBytes,
		CompactEvery: *compactEvery,
	})
	die(err)
	n, err := st.Len()
	die(err)
	srv := misketch.NewServer(st, misketch.ServerOptions{
		MaxWorkers:       *maxWorkers,
		EnablePprof:      *pprofFlag,
		ResultCacheBytes: *resultCache,
	})
	ln, err := net.Listen("tcp", *addr)
	die(err)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("misketch serve: %d sketches in %s, listening on %s\n", n, *storeDir, ln.Addr())
	die(srv.ServeListener(ctx, ln))
	fmt.Println("misketch serve: drained and persisted, bye")
}

// runStoreRebuild opens a store — which replays the segment records into
// a fresh manifest when it is lost, corrupt or stale, and persists it —
// then verifies every segment's CRCs and closes it. Bit rot is not
// repairable: it exits nonzero, naming each corrupt segment.
func runStoreRebuild(args []string) {
	fs := flag.NewFlagSet("store rebuild", flag.ExitOnError)
	storeDir := fs.String("store", "", "sketch store directory")
	die(fs.Parse(args))
	requireFlags(map[string]string{"store": *storeDir})
	st, err := misketch.OpenStore(*storeDir)
	die(err)
	verr := st.Verify()
	n, err := st.Len()
	die(err)
	die(st.Close())
	die(verr)
	fmt.Printf("rebuilt manifest: %d sketches indexed in %s\n", n, *storeDir)
}
