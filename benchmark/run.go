package main

// One run of one workload: set-up (timed), warm-up (discarded), the
// measured window, verification, cold starts — and, with -trace 1, the
// traced pass in place of the end-to-end numbers.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"time"

	"misketch"
)

// env is what a run is given.
type env struct {
	seed    int64
	scale   scale
	window  time.Duration // the measured window (-seconds)
	warmup  time.Duration
	trace   bool
	work    string // scratch directory, inside the checkout
	spanOut string // where the traced pass writes its spans
	// tamper, set only by tests, edits the recorded answers before the
	// verifier sees them.
	tamper func(samples []sample)
}

// result is one run's outcome: the line the driver reads plus what
// `compare` and the operator want to know.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Noisy     bool    `json:"noisy"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	Detail    string  `json:"detail,omitempty"` // first failure, if any
	// Raw holds the end-to-end timings as the clock read them, before
	// division by the machine speed they were measured at, and that
	// speed.
	Raw metrics `json:"raw,omitempty"`
}

// counters are the program's own counts, summed over every node of a
// target; deltas over the window are normalised per operation.
type counters map[string]float64

func snapshot(t *target) counters {
	c := counters{}
	for _, n := range t.nodes {
		s := n.srv.Stats()
		c["disk_reads"] += float64(s.Store.DiskReads)
		c["cache_hits"] += float64(s.Store.CacheHits)
		c["cache_misses"] += float64(s.Store.CacheMisses)
		c["evictions"] += float64(s.Store.Evictions)
		c["skipped_no_decode"] += float64(s.Store.CandidatesSkippedNoDecode)
		c["pruned_pairs"] += float64(s.Store.PrunedPairs)
		c["cascade_cheap"] += float64(s.Store.CascadeCheapOnly)
		c["cascade_exact"] += float64(s.Store.CascadeExact)
		c["cascade_rescues"] += float64(s.Store.CascadeMarginRescues)
		c["compactions"] += float64(s.Store.Compactions)
		c["result_hits"] += float64(s.Server.ResultHits)
		c["result_misses"] += float64(s.Server.ResultMisses)
		c["coalesced"] += float64(s.Server.ResultCoalesced)
		c["not_modified"] += float64(s.Server.ResultNotModified)
		c["probe_hits"] += float64(s.Server.ProbeHits)
		c["probe_misses"] += float64(s.Server.ProbeMisses)
		c["rank_rejected"] += float64(s.Server.RankRejected)
	}
	if t.coord != nil {
		s := t.coord.Stats()
		for _, sh := range s.Shards {
			c["shard_requests"] += float64(sh.Requests)
			c["shard_retries"] += float64(sh.Retries)
			c["shard_latency_ns"] += float64(sh.TotalLatencyNS)
		}
		c["partial"] += float64(s.Coordinator.RankPartial + s.Coordinator.BatchPartial)
	}
	return c
}

func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// procCounters are the process-level counts read around the window.
type procCounters struct {
	cpu    time.Duration
	alloc  float64 // bytes allocated
	gcCPU  float64 // seconds
	allCPU float64 // seconds, as the runtime accounts it
}

func snapProc() procCounters {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return procCounters{cpu: cpuTime(), alloc: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// builtTarget is a set-up system and what setting it up measured.
type builtTarget struct {
	*target
	dirs  []string
	setup time.Duration // as the clock read it
	speed float64       // machine speed while setting up
	build buildStats
}

// firstParams are the knobs of the query that ends a set-up or a cold
// start (zipf_mutate's own requests vary top; this one takes 10).
func (w workload) firstParams() rankParams {
	p := w.params
	if p.top == 0 {
		p.top = 10
	}
	return p
}

// setUp builds the workload's catalog(s) in fresh directories, serves
// them, and waits for the first answer. bt.setup is setup_s for this
// repeat: store and server time only, never the generator's.
func setUp(w workload, e env, repeat int, trains []*misketch.Sketch) (*builtTarget, error) {
	bt := &builtTarget{}
	gen := w.catalog(e.seed, e.scale)
	var stores []*misketch.Store
	for shard := 0; shard < w.shards; shard++ {
		dir := shardDir(e.work, repeat, shard)
		st, d, bs, err := buildCatalog(catalogSpec{dir: dir, opt: w.storeOpt, gen: shardOf(gen, shard, w.shards)})
		if err != nil {
			err = fmt.Errorf("building %s: %w", dir, err)
			for _, st := range stores {
				err = errors.Join(err, st.Close())
			}
			return nil, err
		}
		stores = append(stores, st)
		bt.dirs = append(bt.dirs, dir)
		bt.setup += d
		bt.build.add(bs)
	}
	start := time.Now()
	t, err := serve(stores, w.clients)
	if err != nil {
		return nil, err
	}
	if err := t.firstAnswer(trains[0], w.firstParams()); err != nil {
		return nil, errors.Join(err, t.close())
	}
	bt.setup += time.Since(start)
	var probe speedProbe
	probe.sample()
	bt.speed = speed(append(probe.samples, bt.build.calib...))
	bt.target = t
	return bt, nil
}

// coldStarts is how many cold starts cold_first_answer_ms is the median
// of.
const coldStarts = 15

// window is what the measured interval yielded, whichever way the
// workload fills it.
type window struct {
	loopResult
	before, after     counters
	procBefore, procA procCounters
	overhead          float64 // trace.overhead_frac, traced serving runs only
	// The write-path workload builds catalogs inside its window: their
	// accounting, their reopen checks, and the last one's directory
	// (which cold starts and disk_bytes_per_sketch then use).
	build   buildStats
	verdict verdict
	dirs    []string
}

// runWorkload runs one workload end to end and returns its result. The
// error is for failures of the benchmark itself (a directory it cannot
// create, a catalog it cannot build); wrong or failed answers are in
// the result.
func runWorkload(w workload, e env) (res result, err error) {
	res = result{Workload: w.name, Seed: e.seed, Trace: e.trace}
	calibBefore := calibrate()
	trains := w.trains(e.seed, e.scale)

	repeats := w.setupRepeats
	if e.trace {
		repeats = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var bt *builtTarget
	// closeTarget stops the set-up system; its directories go with the
	// scratch directory.
	closeTarget := func() error {
		if bt == nil {
			return nil
		}
		t := bt
		bt = nil
		return t.close()
	}
	defer func() { err = errors.Join(err, closeTarget()) }()
	var setups, rawSetups []time.Duration
	for r := 0; r < repeats; r++ {
		if err := closeTarget(); err != nil {
			return res, err
		}
		if bt, err = setUp(w, e, r, trains); err != nil {
			return res, err
		}
		rawSetups = append(rawSetups, bt.setup)
		setups = append(setups, time.Duration(float64(bt.setup)/bt.speed))
	}
	build, dirs := bt.build, bt.dirs
	// Counted now, before zipf_mutate adds planted candidates mid-run:
	// an answer from before a mutation cannot contain it.
	plantedTotal := 0
	if w.planted != nil {
		if plantedTotal, err = countPlanted(bt.stores(), w.planted); err != nil {
			return res, err
		}
	}

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var win window
	var v verdict
	var rss float64 // read when the window ends, before verifier and cold starts add their own
	if w.rounds != nil {
		if err := closeTarget(); err != nil {
			return res, err
		}
		if win, err = w.rounds(w, e, tr); err != nil {
			return res, err
		}
		rss = peakRSSMB()
		v, build, dirs = win.verdict, win.build, win.dirs
	} else {
		win = serveWindow(w, e, bt, trains, tr)
		rss = peakRSSMB()
		if e.tamper != nil {
			e.tamper(win.samples)
		}
		if v, err = verifyWindow(w, e, bt, win.samples, plantedTotal); err != nil {
			return res, err
		}
	}
	if err := closeTarget(); err != nil {
		return res, err
	}

	res.Attempted = win.attempted + v.verified
	res.Failed = win.failed + v.mismatched
	switch {
	case win.firstErr != nil:
		res.Detail = win.firstErr.Error()
	case v.mismatched > 0:
		res.Detail = "mismatch: " + v.first
	}

	// Timings are reported at reference speed: divided by how much
	// slower than reference the machine ran while they were taken.
	ops := float64(win.ops())
	at := speed(win.calib)
	e2e, layer, raw := metrics{}, metrics{}, metrics{}
	timing := func(name string, v, atSpeed float64, unit string) {
		raw.set(name, v, unit)
		e2e.set(name, v/atSpeed, unit)
	}
	raw.set("window_speed", at, "ratio")
	e2e.set("setup_s", median(setups).Seconds(), "s")
	raw.set("setup_s", median(rawSetups).Seconds(), "s")
	timing("ops_per_s", ratio(ops, win.elapsed.Seconds()), 1/at, "1/s")
	timing("op_p50_ms", ms(percentile(win.latencies, 50)), at, "ms")
	timing("op_p90_ms", ms(percentile(win.latencies, 90)), at, "ms")
	timing("cpu_ms_per_op", ratio(ms(win.procA.cpu-win.procBefore.cpu), ops), at, "ms")
	e2e.set("peak_rss_mb", rss, "MB")
	e2e.set("disk_bytes_per_sketch", ratio(float64(build.diskBytes), float64(build.sketches)), "B")
	if !e.trace {
		var colds, rawColds []time.Duration
		for i := 0; i < coldStarts; i++ {
			d, atSpeed, err := coldFirstAnswer(dirs, w.storeOpt, trains[0], w.firstParams())
			res.Attempted++
			if err != nil {
				res.Failed++
				if res.Detail == "" {
					res.Detail = "cold start: " + err.Error()
				}
				continue
			}
			rawColds = append(rawColds, d)
			colds = append(colds, time.Duration(float64(d)/atSpeed))
		}
		e2e.set("cold_first_answer_ms", ms(median(colds)), "ms")
		raw.set("cold_first_answer_ms", ms(median(rawColds)), "ms")
	}
	res.Raw = raw
	layer.set("proc.speed", at, "ratio")

	windowLayerMetrics(layer, win, build, v)
	if e.trace {
		layer.set("trace.overhead_frac", win.overhead, "ratio")
		rungs, err := runLadder(e, tr, layer)
		if err != nil {
			return res, err
		}
		if err := writeSpans(e.spanOut, res, tr, rungs); err != nil {
			return res, err
		}
	}
	calibAfter := calibrate()
	drift := ratio(float64(calibAfter-calibBefore), float64(calibBefore))
	layer.set("proc.calib_ms", ms(min(calibBefore, calibAfter)), "ms")
	layer.set("proc.calib_drift", drift, "ratio")
	res.Noisy = drift > maxCalibDrift || drift < -maxCalibDrift

	res.Metrics = e2e
	if e.trace {
		res.Metrics = layer
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// serveWindow is the measured interval of a serving workload: warm-up,
// then the closed loop for e.window. A traced run splits the window in
// two halves, untraced then traced, so the tracing overhead is measured
// inside the run that reports it.
func serveWindow(w workload, e env, bt *builtTarget, trains []*misketch.Sketch, tr *tracer) window {
	next := make([]func() request, w.clients)
	for c := range next {
		next[c] = w.newClient(e.seed, c, trains, w.params)
	}
	var mut *mutator
	if w.mutateEvery > 0 {
		mut = &mutator{every: w.mutateEvery, url: bt.nodes[0].url, sketches: mutationsOf(e.seed)}
	}
	var win window
	warm := runLoop(bt.target, e.warmup, next, mut, nil, 0)
	// Warm-up timings are discarded; its failures are not.
	win.attempted, win.failed, win.firstErr = warm.attempted, warm.failed, warm.firstErr

	win.before, win.procBefore = snapshot(bt.target), snapProc()
	if tr == nil {
		win.merge(runLoop(bt.target, e.window, next, mut, nil, 0))
	} else {
		plain := runLoop(bt.target, e.window/2, next, mut, nil, 0)
		id, end := tr.open("window/"+w.name, 0)
		traced := runLoop(bt.target, e.window/2, next, mut, tr, id)
		end()
		win.overhead = 1 - ratio(ratio(float64(traced.ops()), traced.elapsed.Seconds()),
			ratio(float64(plain.ops()), plain.elapsed.Seconds()))
		win.merge(plain)
		win.merge(traced)
	}
	win.after, win.procA = snapshot(bt.target), snapProc()
	return win
}

// verifyWindow recomputes sampled answers against the catalog that
// produced them: the served stores themselves, or — when the catalog
// mutated mid-run — an in-memory replica stepped through the mutations.
func verifyWindow(w workload, e env, bt *builtTarget, samples []sample, plantedTotal int) (verdict, error) {
	o := &oracle{stores: bt.stores()}
	if w.mutateEvery > 0 {
		replica, closeReplica, err := mutationReplica(w.catalog(e.seed, e.scale), mutationsOf(e.seed))
		if err != nil {
			return verdict{}, err
		}
		defer closeReplica()
		o = replica
	}
	return verify(o, samples, w.maxVerify, w.planted, plantedTotal), nil
}

// windowLayerMetrics derives the counter-based per-layer metrics from
// the window: the program's counters per operation, the client's own
// tail, and the process's allocation and GC share.
func windowLayerMetrics(m metrics, win window, build buildStats, v verdict) {
	ops := float64(win.ops())
	d := win.after.sub(win.before)
	perOp := func(name, key string) { m.set(name, ratio(d[key], ops), "count") }
	perOp("store.disk_reads_per_op", "disk_reads")
	perOp("store.evictions_per_op", "evictions")
	perOp("store.skipped_no_decode_per_op", "skipped_no_decode")
	perOp("store.pruned_pairs_per_op", "pruned_pairs")
	perOp("store.cascade_cheap_per_op", "cascade_cheap")
	perOp("store.cascade_exact_per_op", "cascade_exact")
	perOp("store.cascade_rescues_per_op", "cascade_rescues")
	perOp("server.coalesced_per_op", "coalesced")
	perOp("server.not_modified_per_op", "not_modified")
	perOp("cluster.shard_requests_per_op", "shard_requests")
	m.set("store.cache_hit_rate", ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"]), "ratio")
	m.set("store.compactions", d["compactions"]+float64(build.compactions), "count")
	m.set("server.result_hit_rate", ratio(d["result_hits"], d["result_hits"]+d["result_misses"]), "ratio")
	m.set("server.probe_hit_rate", ratio(d["probe_hits"], d["probe_hits"]+d["probe_misses"]), "ratio")
	m.set("server.rank_rejected", d["rank_rejected"], "count")
	m.set("cluster.shard_retries", d["shard_retries"], "count")
	m.set("cluster.partial_answers", d["partial"], "count")
	m.set("cluster.shard_mean_latency_ms", ratio(d["shard_latency_ns"], d["shard_requests"])/1e6, "ms")

	// Write-path accounting of the catalog the run built.
	m.set("store.write_amp", ratio(float64(build.writtenBytes), float64(build.logicalBytes)), "ratio")
	compression := 1.0 // nothing compressed
	if build.compressedBytes > 0 {
		compression = float64(build.rawBytes) / float64(build.compressedBytes)
	}
	m.set("store.compression_ratio", compression, "ratio")
	m.set("store.posting_bytes_per_sketch", ratio(float64(build.postingBytes), float64(build.sketches)), "B")

	m.set("client.samples", ops, "count")
	m.set("client.p99_ms", ms(percentile(win.latencies, 99)), "ms")
	pct, tailAt := tail(win.latencies)
	m.set("client.tail_pct", pct, "pct")
	m.set("client.tail_ms", ms(tailAt), "ms")
	m.set("client.put_p50_ms", ms(median(win.putLat)), "ms")
	m.set("client.error_rate", ratio(float64(win.failed), float64(win.attempted)), "ratio")
	m.set("client.verified", float64(v.verified), "count")
	m.set("client.mismatch_rate", ratio(float64(v.mismatched), float64(v.verified)), "ratio")

	m.set("proc.alloc_kb_per_op", ratio((win.procA.alloc-win.procBefore.alloc)/1024, ops), "KB")
	m.set("proc.gc_cpu_frac", ratio(win.procA.gcCPU-win.procBefore.gcCPU, win.procA.allCPU-win.procBefore.allCPU), "ratio")
}

func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("work-%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
