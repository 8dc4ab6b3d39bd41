package main

// misketch loadtest: sustained concurrent rank traffic against a
// running discovery service — a single node or a cluster coordinator
// (the two speak the same protocol, so -url is all that differs).
// Workers post /v1/rank queries in a closed loop until the deadline;
// the report is QPS, latency percentiles, and the error/partial counts
// that matter when shards are being killed under the test.
//
// The workload is configurable rather than a single repeated query:
// -queries builds N distinct prefix/top-K variants, -zipf skews which
// variant each request draws (hot-key traffic, the shape result caches
// live or die on), and -mutate-every issues background Puts so cache
// invalidation is exercised under load. The record reports the
// server's result-cache hit and coalesce rates over the measured
// window, sampled from /v1/stats before and after.
//
// The JSON record goes to stdout and, with -out, is appended to a file,
// so single-node and cluster runs can sit side by side.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"misketch"
	"misketch/internal/synth"
)

func runLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	target := fs.String("url", "", "base URL of the service under test (node or coordinator)")
	duration := fs.Duration("duration", 10*time.Second, "how long to sustain traffic")
	concurrency := fs.Int("concurrency", 8, "concurrent closed-loop workers")
	top := fs.Int("top", 10, "top-K bound of each query")
	minJoin := fs.Int("min-join", 50, "min join size of each query")
	prefix := fs.String("prefix", "bench/", "candidate name prefix of each query")
	sketchFile := fs.String("sketch", "", "saved train sketch to query with (default: the planted-cohort corpus's train)")
	queries := fs.Int("queries", 1, "number of distinct query variants (prefix/top-K combinations)")
	zipf := fs.Float64("zipf", 0, "zipf skew exponent for variant selection (> 1; 0 = uniform)")
	mutateEvery := fs.Duration("mutate-every", 0, "interval between background Puts during the run (0 = none)")
	mutateURL := fs.String("mutate-url", "", "base URL for background Puts (default: -url; a coordinator does not proxy /v1/put, so point this at a shard)")
	label := fs.String("label", "", "label recorded in the JSON record's bench name")
	out := fs.String("out", "", "append the JSON record to this file (default: stdout only)")
	die(fs.Parse(args))
	requireFlags(map[string]string{"url": *target})
	if *concurrency < 1 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -concurrency and -duration must be positive")
		os.Exit(2)
	}
	if *queries < 1 {
		fmt.Fprintln(os.Stderr, "loadtest: -queries must be at least 1")
		os.Exit(2)
	}
	if *zipf != 0 && *zipf <= 1 {
		fmt.Fprintln(os.Stderr, "loadtest: -zipf must be greater than 1 (or 0 for uniform)")
		os.Exit(2)
	}

	train, err := loadtestTrain(*sketchFile)
	die(err)
	var buf bytes.Buffer
	die(misketch.WriteSketch(&buf, train))
	bodies, err := loadtestBodies(buf.Bytes(), *prefix, *minJoin, *top, *queries)
	die(err)

	// One probe request before the clock starts: fail fast on a dead
	// target or a bad query, and warm the server's probe cache so the
	// measured window is steady-state.
	if _, _, err := loadtestQuery(*target, bodies[0]); err != nil {
		die(fmt.Errorf("loadtest: probe query failed: %w", err))
	}
	// Snapshot result-cache counters after the probe, before the clock,
	// so the reported hit/coalesce rates cover exactly the measured
	// window. A target without the counters just drops those fields.
	before, statsOK := loadtestStats(*target)

	var mutations atomic.Int64
	stopMutator := startMutator(*mutateEvery, *mutateURL, *target, *prefix, &mutations)

	type workerResult struct {
		latencies []time.Duration
		errors    int
		partial   int
		lastErr   error
	}
	results := make([]workerResult, *concurrency)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	started := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			pick := variantPicker(int64(w), *zipf, len(bodies))
			for time.Now().Before(deadline) {
				qStart := time.Now()
				partial, _, err := loadtestQuery(*target, bodies[pick()])
				if err != nil {
					r.errors++
					r.lastErr = err
					continue
				}
				r.latencies = append(r.latencies, time.Since(qStart))
				if partial {
					r.partial++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(started)
	stopMutator()

	var latencies []time.Duration
	nErr, nPartial := 0, 0
	var lastErr error
	for _, r := range results {
		latencies = append(latencies, r.latencies...)
		nErr += r.errors
		nPartial += r.partial
		if r.lastErr != nil {
			lastErr = r.lastErr
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	qps := float64(len(latencies)) / elapsed.Seconds()

	name := "LoadtestRank"
	if *label != "" {
		name += "/" + *label
	}
	rec := map[string]any{
		"stage":       "loadtest",
		"bench":       name,
		"url":         *target,
		"concurrency": *concurrency,
		"duration_ns": elapsed.Nanoseconds(),
		"requests":    len(latencies),
		"errors":      nErr,
		"partial":     nPartial,
		"qps":         math2(qps),
		"p50_ns":      pct(0.50).Nanoseconds(),
		"p90_ns":      pct(0.90).Nanoseconds(),
		"p99_ns":      pct(0.99).Nanoseconds(),
		"top":         *top,
		"queries":     *queries,
		"zipf":        *zipf,
		"mutations":   mutations.Load(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"date":        time.Now().UTC().Format("2006-01-02"),
	}
	if statsOK {
		if after, ok := loadtestStats(*target); ok && len(latencies) > 0 {
			hits := after["result_hits"] - before["result_hits"] +
				after["result_merged_hits"] - before["result_merged_hits"]
			coalesced := after["result_coalesced"] - before["result_coalesced"]
			shardHits := after["result_shard_hits"] - before["result_shard_hits"]
			n := float64(len(latencies))
			rec["result_hits"] = hits
			rec["result_coalesced"] = coalesced
			rec["result_shard_hits"] = shardHits
			for _, k := range []string{"floor_queries", "round2_requests", "round2_skipped", "floor_fallbacks"} {
				rec[k] = after[k] - before[k]
			}
			rec["hit_rate"] = math2(float64(hits) / n)
			rec["coalesce_rate"] = math2(float64(coalesced) / n)
		}
	}
	line, err := json.Marshal(rec)
	die(err)
	fmt.Println(string(line))
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		die(err)
		_, werr := f.Write(append(line, '\n'))
		die(errors.Join(werr, f.Close()))
	}
	if nErr > 0 {
		die(fmt.Errorf("loadtest: %d of %d requests failed (last: %v)", nErr, nErr+len(latencies), lastErr))
	}
}

// math2 rounds to two decimals so QPS records stay readable.
func math2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// loadtestBodies builds the distinct query variants. Variant i keeps
// the shared prefix and train but walks top through 1..top and bumps
// min-join once per full top cycle, so every variant canonicalizes to
// a distinct cache key while staying answerable by the same corpus.
func loadtestBodies(sketch []byte, prefix string, minJoin, top, queries int) ([][]byte, error) {
	b64 := base64.StdEncoding.EncodeToString(sketch)
	maxTop := top
	if maxTop < 1 {
		maxTop = 1
	}
	bodies := make([][]byte, 0, queries)
	for i := 0; i < queries; i++ {
		vTop := top
		vMin := minJoin
		if i > 0 {
			vTop = (i % maxTop) + 1
			vMin = minJoin + i/maxTop
		}
		mj := vMin
		body, err := json.Marshal(misketch.RankRequest{
			Sketch:  b64,
			Prefix:  prefix,
			MinJoin: &mj,
			Top:     vTop,
		})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// variantPicker returns this worker's draw function over the variant
// set: zipf-skewed when an exponent is set (rank 0 hottest — the
// traffic shape that separates a result cache from a benchmark toy),
// uniform otherwise.
func variantPicker(seed int64, s float64, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	rng := rand.New(rand.NewSource(seed*2654435761 + 1))
	if s > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// startMutator begins background Puts every interval so cache
// invalidation runs under live traffic, and returns a stop function.
// The sketch lands under the queried prefix, so each Put both bumps
// the store generation and genuinely changes the candidate set.
func startMutator(every time.Duration, mutateURL, target, prefix string, count *atomic.Int64) func() {
	if every <= 0 {
		return func() {}
	}
	if mutateURL == "" {
		mutateURL = target
	}
	cb, err := misketch.NewStreamBuilder(misketch.RoleCandidate, true, misketch.Options{Size: 64})
	die(err)
	for g := 0; g < 90; g++ {
		cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7))
	}
	var buf bytes.Buffer
	die(misketch.WriteSketch(&buf, cb.Sketch()))
	payload := buf.Bytes()
	name := prefix + "zz-loadtest-mutant"

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				resp, err := http.Post(mutateURL+"/v1/put?name="+name,
					"application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					count.Add(1)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// loadtestStats fetches /v1/stats and flattens every integer-valued
// field into one map, so the caller can read result-cache counters
// without caring whether the target is a node (server block) or a
// coordinator (coordinator block).
func loadtestStats(target string) (map[string]int64, bool) {
	resp, err := http.Get(target + "/v1/stats")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, false
	}
	flat := make(map[string]int64)
	flattenInts(doc, flat)
	return flat, true
}

// flattenInts walks decoded JSON and accumulates every numeric leaf
// under its own key name (summing duplicates, e.g. per-shard blocks).
func flattenInts(v any, into map[string]int64) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			if f, ok := child.(float64); ok {
				into[k] += int64(f)
				continue
			}
			flattenInts(child, into)
		}
	case []any:
		for _, child := range t {
			flattenInts(child, into)
		}
	}
}

// loadtestTrain resolves the query's train side: a saved sketch file,
// or the planted-cohort corpus's own train, so a loadtest asks a store
// built by `datagen -kind cohort` the question its cohort was planted to
// answer, without extra setup.
func loadtestTrain(path string) (*misketch.Sketch, error) {
	if path != "" {
		return misketch.LoadSketch(path)
	}
	train, _ := synth.PlantedCohort(0)
	return train, nil
}

// loadtestQuery posts one rank query and reports whether the answer
// was degraded (cluster partial mode). A non-200 status is an error:
// the contract under test is that killing a shard degrades answers,
// never fails them.
func loadtestQuery(target string, body []byte) (partial bool, elapsed time.Duration, err error) {
	start := time.Now()
	resp, err := http.Post(target+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	var rr misketch.ClusterRankResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return false, 0, fmt.Errorf("undecodable response: %w", err)
	}
	return rr.Partial, time.Since(start), nil
}
