package main

// The traced pass: one ladder of the program's layers, climbed from the
// outside. Every rung is a public function of one layer, called
// single-threaded a fixed number of times on inputs shared with the
// rungs around it; each call is a span, and the rung's number is the
// median. A rung's child_of names the rung one step outward that
// contains its work on the same input, so the outer rung's self time is
// its median minus the inner one's. Nothing here reaches inside the
// program: spans within it are a later change and reuse these names.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"misketch"
	"misketch/internal/core"
	"misketch/internal/fsst"
	"misketch/internal/knn"
	"misketch/internal/mi"
	"misketch/internal/table"
)

// rungInfo is one rung as written to the span file.
type rungInfo struct {
	Name     string  `json:"name"`
	ChildOf  string  `json:"child_of,omitempty"`
	Count    int     `json:"count"`
	MedianNS float64 `json:"median_ns"`
}

type ladder struct {
	tr    *tracer
	root  int
	rungs []rungInfo
}

// run times count calls of the function prep(i) returns (prep itself is
// outside the span) and returns the median.
func (l *ladder) run(name, childOf string, count int, prep func(i int) func()) time.Duration {
	parent, end := l.tr.open("ladder/"+name, l.root)
	ds := make([]time.Duration, count)
	for i := range ds {
		call := prep(i)
		start := time.Now()
		call()
		stop := time.Now()
		ds[i] = stop.Sub(start)
		l.tr.record(name, parent, i+1, start, stop)
	}
	end()
	return l.note(name, childOf, ds)
}

func (l *ladder) note(name, childOf string, ds []time.Duration) time.Duration {
	med := median(ds)
	l.rungs = append(l.rungs, rungInfo{Name: name, ChildOf: childOf, Count: len(ds), MedianNS: float64(med)})
	return med
}

// built records as rung `name` the store calls a catalog build timed
// under phaseName.
func (l *ladder) built(name, childOf string, bs buildStats, phaseName string) time.Duration {
	parent, end := l.tr.open("ladder/"+name, l.root)
	end()
	var ds []time.Duration
	for _, ph := range bs.phases {
		if ph.name == phaseName {
			ds = append(ds, ph.d)
			l.tr.record(name, parent, len(ds), ph.start, ph.start.Add(ph.d))
		}
	}
	return l.note(name, childOf, ds)
}

// same is prep for a call that needs no per-iteration input.
func same(call func()) func(int) func() { return func(int) func() { return call } }

var errStop = errors.New("stop")

// firstOf collects the first n sketches of a catalog stream.
func firstOf(gen func(emit) error, n int) ([]string, []*misketch.Sketch, error) {
	var names []string
	var sks []*misketch.Sketch
	err := gen(func(name string, sk *misketch.Sketch) error {
		names, sks = append(names, name), append(sks, sk)
		if len(sks) == n {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, nil, err
	}
	return names, sks, nil
}

// serveOnce runs one request through a handler in-process.
func serveOnce(h http.Handler, method, target string, body []byte, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// runLadder climbs the ladder and fills in the timing rows of m.
func runLadder(e env, tr *tracer, m metrics) (rungs []rungInfo, err error) {
	root, end := tr.open("ladder", 0)
	defer end()
	l := &ladder{tr: tr, root: root}
	ctx := context.Background()
	rng := subRNG(e.seed, "ladder", 0)
	countMicro, countMilli, countSlow := e.scale.countMicro, e.scale.countMilli, e.scale.countSlow
	fail := func(err error) {
		if err != nil {
			panic(ladderError{err})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(ladderError)
			if !ok {
				panic(r)
			}
			err = le.err
		}
	}()
	expect := func(rec *httptest.ResponseRecorder, status int) {
		if rec.Code != status {
			fail(fmt.Errorf("ladder: status %d, want %d: %.200s", rec.Code, status, rec.Body))
		}
	}

	// --- kernel, join, estimator tiers: one (train, planted candidate) pair
	train := numTrain(e.seed, 0)
	numGen := func(each emit) error { return genNum(e.seed, e.scale.numCands, each) }
	_, numCands, err := firstOf(numGen, 1)
	fail(err)
	cand := numCands[0]
	probe := core.CompileTrainProbe(train)
	var scratch core.Scratch
	js, err := probe.JoinScratch(cand, &scratch)
	fail(err)
	xs := append([]float64(nil), js.X.Num...)
	ys := append([]float64(nil), js.Y.Num...)
	var grid knn.Grid2D
	dists := make([]float64, len(xs))
	m.set("knn.grid_allknn_us", us(l.run("knn.grid_allknn", "mi.mixed_ksg", countMicro, same(func() {
		grid.Reset(xs, ys)
		grid.AllKNNDist(mi.DefaultK, dists)
	}))), "us")
	var est mi.Scratch
	m.set("mi.mixed_ksg_us", us(l.run("mi.mixed_ksg", "store.rank_exact", countMicro, same(func() { est.MixedKSG(xs, ys, mi.DefaultK) }))), "us")
	m.set("mi.ksg_us", us(l.run("mi.ksg", "", countMicro, same(func() { est.KSG(xs, ys, mi.DefaultK) }))), "us")
	m.set("mi.cheap_us", us(l.run("mi.cheap", "store.rank_warm", countMicro, same(func() {
		est.CheapMI(mi.NumericColumn(xs), mi.NumericColumn(ys), mi.DefaultCheapBins)
	}))), "us")
	m.set("core.compile_probe_us", us(l.run("core.compile_probe", "store.rank_warm", countMicro, same(func() { core.CompileTrainProbe(train) }))), "us")
	m.set("core.join_us", us(l.run("core.join", "store.rank_warm", countMicro, same(func() {
		_, err := probe.JoinScratch(cand, &scratch)
		fail(err)
	}))), "us")
	m.set("core.key_overlap_us", us(l.run("core.key_overlap", "store.rank_batch8", countMicro, same(func() { probe.KeyOverlap(cand) }))), "us")

	// --- categorical estimators, records and FSST: the selective catalog's shape
	selGen := func(each emit) error { return genSel(e.seed, e.scale.ladderSel, e.scale.selPerDomain, each) }
	selNames, selCands, err := firstOf(selGen, min(64, e.scale.ladderSel*e.scale.selPerDomain))
	fail(err)
	var cats []*misketch.Sketch
	var catNames []string
	for i, sk := range selCands {
		if !sk.Numeric {
			cats, catNames = append(cats, sk), append(catNames, selNames[i])
		}
	}
	selJoin, err := core.CompileTrainProbe(selTrain(e.seed, 0)).JoinScratch(cats[0], &scratch)
	fail(err)
	labels := append([]string(nil), selJoin.X.Str...)
	target := append([]float64(nil), selJoin.Y.Num...)
	m.set("mi.dc_ksg_us", us(l.run("mi.dc_ksg", "", countMicro, same(func() { est.DCKSG(labels, target, mi.DefaultK) }))), "us")
	m.set("mi.mle_us", us(l.run("mi.mle", "", countMicro, same(func() { est.MLE(cats[0].Strs, cats[1].Strs) }))), "us")

	var values []string
	valueBytes := 0
	keySet := map[uint32]struct{}{}
	for _, sk := range cats {
		values = append(values, sk.Strs...)
		for _, h := range sk.KeyHashes {
			keySet[h] = struct{}{}
		}
	}
	for _, v := range values {
		valueBytes += len(v)
	}
	sample := values // the store trains on at most 64 KiB of values
	for n, i := 0, 0; i < len(values); i++ {
		if n += len(values[i]); n >= 1<<16 {
			sample = values[:i+1]
			break
		}
	}
	var symbols *fsst.Table
	m.set("fsst.train_ms", ms(l.run("fsst.train", "store.compact_compress", countMilli, same(func() { symbols = fsst.Train(sample) }))), "ms")
	var encoded [][]byte
	encBytes := 0
	enc := l.run("fsst.encode", "core.append_record_compressed", countMilli, same(func() {
		encoded, encBytes = encoded[:0], 0
		for _, v := range values {
			b := symbols.Encode(nil, v)
			encoded, encBytes = append(encoded, b), encBytes+len(b)
		}
	}))
	var scratchBytes []byte
	dec := l.run("fsst.decode", "core.decode_record_compressed", countMilli, same(func() {
		for _, b := range encoded {
			scratchBytes, err = symbols.Decode(scratchBytes[:0], b)
			fail(err)
		}
	}))
	mb := float64(valueBytes) / 1e6
	m.set("fsst.encode_mb_per_s", ratio(mb, enc.Seconds()), "MB/s")
	m.set("fsst.decode_mb_per_s", ratio(mb, dec.Seconds()), "MB/s")
	m.set("fsst.ratio", ratio(float64(valueBytes), float64(encBytes)), "ratio")

	keyDict := make([]uint32, 0, len(keySet))
	for h := range keySet {
		keyDict = append(keyDict, h)
	}
	sort.Slice(keyDict, func(i, j int) bool { return keyDict[i] < keyDict[j] })
	compressor := core.NewRecordCompressor(keyDict, symbols)
	var raw, packed []byte
	m.set("core.append_record_us", us(l.run("core.append_record", "store.put", countMicro, same(func() {
		raw, err = core.AppendRecord(raw[:0], catNames[0], cats[0])
		fail(err)
	}))), "us")
	m.set("core.append_record_compressed_us", us(l.run("core.append_record_compressed", "store.compact_compress", countMicro, same(func() {
		var ok bool
		packed, ok, err = core.AppendRecordCompressed(packed[:0], catNames[0], cats[0], compressor)
		fail(err)
		if !ok {
			fail(fmt.Errorf("ladder: record did not compress"))
		}
	}))), "us")
	m.set("core.decode_record_us", us(l.run("core.decode_record", "store.rank_cold", countMicro, same(func() {
		_, err := core.DecodeRecord(raw, 0, true)
		fail(err)
	}))), "us")
	decoder := compressor.Decoder()
	m.set("core.decode_record_compressed_us", us(l.run("core.decode_record_compressed", "store.rank_cold", countMicro, same(func() {
		_, err := core.DecodeRecordWith(decoder, packed, 0, true)
		fail(err)
	}))), "us")

	// --- table parse, aggregation, sketch build: one csv table
	csv := genCSV(e.seed, 0, e.scale.csvRows)
	krows := float64(e.scale.csvRows) / 1000
	var tb *misketch.Table
	m.set("table.read_csv_us_per_krow", us(l.run("table.read_csv", "server.sketch", countMilli, same(func() {
		tb, err = misketch.ReadCSV(bytes.NewReader(csv))
		fail(err)
	})))/krows, "us")
	m.set("table.agg_us_per_krow", us(l.run("table.agg", "core.build", countMilli, same(func() {
		_, err := table.Aggregate(tb, "key", "n1", table.AggAvg)
		fail(err)
	})))/krows, "us")
	var built *misketch.Sketch
	m.set("core.build_us", us(l.run("core.build", "server.sketch", countMilli, same(func() {
		built, err = misketch.SketchCandidate(tb, "key", "n1", misketch.Options{Size: sketchSize, Agg: misketch.AggAvg})
		fail(err)
	}))), "us")
	keys, nums := tb.MustColumn("key").Str, tb.MustColumn("n1").Num
	m.set("core.stream_add_ns_per_row", float64(l.run("core.stream_add", "", countMilli, same(func() {
		b := mustBuilder(misketch.RoleCandidate, true)
		for i, k := range keys {
			b.AddNum(k, nums[i])
		}
	})))/float64(len(keys)), "ns")

	// --- store write ladder: the numeric catalog, plain; the selective shape, compressed
	plainDir := filepath.Join(e.work, "ladder-plain")
	// A tenth of the catalog is written twice, so Compact has garbage to
	// fold (a single garbage-free segment is sealed and left alone).
	withOverwrites := func(each emit) error {
		var again []func() error
		c := 0
		err := numGen(func(name string, sk *misketch.Sketch) error {
			if c++; c%10 == 0 {
				again = append(again, func() error { return each(name, sk) })
			}
			return each(name, sk)
		})
		for _, put := range again {
			if err == nil {
				err = put()
			}
		}
		return err
	}
	st, _, bs, err := buildCatalog(catalogSpec{dir: plainDir, gen: withOverwrites})
	fail(err)
	defer func() { err = errors.Join(err, st.Close()) }()
	m.set("store.put_us", us(l.built("store.put", "server.put", bs, "store.put")), "us")
	m.set("store.flush_ms", ms(l.built("store.flush", "", bs, "store.flush")), "ms")
	m.set("store.compact_ms", ms(l.built("store.compact", "", bs, "store.compact")), "ms")
	m.set("store.open_ms", ms(l.built("store.open", "store.rank_cold", bs, "store.open")), "ms")
	cst, _, cbs, err := buildCatalog(catalogSpec{dir: filepath.Join(e.work, "ladder-compressed"),
		opt: misketch.OpenStoreOptions{Compression: true}, gen: selGen})
	fail(err)
	fail(cst.Close())
	m.set("store.compact_compress_ms", ms(l.built("store.compact_compress", "", cbs, "store.compact")), "ms")
	names, err := st.List()
	fail(err)
	m.set("store.get_us", us(l.run("store.get", "", min(countMicro, len(names)), func(i int) func() {
		return func() {
			_, err := st.Get(names[i])
			fail(err)
		}
	})), "us")

	// --- store read ladder, on the numeric catalog with one worker
	// Every rank rung gets a never-seen train per call, like the server
	// rungs above it, so no rung is flattered by a repeated input.
	rank := func(st *misketch.Store, opt misketch.RankOptions) func(int) func() {
		opt.Prefix, opt.K, opt.TopK = numPrefix, misketch.DefaultK, 10
		if opt.MinJoinSize == 0 {
			opt.MinJoinSize = numMinJoin
		}
		if opt.Workers == 0 {
			opt.Workers = 1
		}
		return func(int) func() {
			fresh := freshTrain(train, rng)
			return func() {
				_, _, err := st.RankQuery(ctx, fresh, opt)
				fail(err)
			}
		}
	}
	rank(st, misketch.RankOptions{})(0)() // fill the decoded-sketch cache
	warm := l.run("store.rank_warm", "server.rank_miss", countMilli, rank(st, misketch.RankOptions{}))
	m.set("store.rank_warm_ms", ms(warm), "ms")
	m.set("store.rank_exact_ms", ms(l.run("store.rank_exact", "", countSlow, rank(st, misketch.RankOptions{NoCascade: true}))), "ms")
	m.set("store.rank_fullwalk_ms", ms(l.run("store.rank_fullwalk", "", countMilli, rank(st, misketch.RankOptions{NoIndex: true}))), "ms")
	m.set("store.rank_select_only_ms", ms(l.run("store.rank_select_only", "store.rank_warm", countMilli,
		rank(st, misketch.RankOptions{MinJoinSize: 1 << 30}))), "ms")
	m.set("store.rank_workers2_ms", ms(l.run("store.rank_workers2", "", countMilli, rank(st, misketch.RankOptions{Workers: 2}))), "ms")
	m.set("store.rank_cold_ms", ms(l.run("store.rank_cold", "", countSlow, func(i int) func() {
		fresh := freshTrain(train, rng)
		return func() {
			cold, err := misketch.OpenStore(plainDir)
			fail(err)
			_, _, err = cold.RankQuery(ctx, fresh, misketch.RankOptions{
				Prefix: numPrefix, MinJoinSize: numMinJoin, K: misketch.DefaultK, TopK: 10, Workers: 1})
			fail(errors.Join(err, cold.Close()))
		}
	})), "ms")
	freshBatch := func(int) []*misketch.Sketch {
		out := make([]*misketch.Sketch, batchSize)
		for i := range out {
			out[i] = freshTrain(train, rng)
		}
		return out
	}
	m.set("store.rank_batch8_ms", ms(l.run("store.rank_batch8", "server.batch_miss", countSlow, func(i int) func() {
		trains := freshBatch(i)
		return func() {
			_, err := misketch.RankBatch(ctx, st, trains, misketch.BatchRankOptions{
				Prefix: numPrefix, MinJoinSize: numMinJoin, K: misketch.DefaultK, TopK: 10, Workers: 1})
			fail(err)
		}
	})), "ms")

	// --- server ladder: Server.ServeHTTP in-process, same catalog, same knobs
	p := rankParams{prefix: numPrefix, minJoin: numMinJoin, top: 10, workers: 1}
	srv := misketch.NewServer(st, misketch.ServerOptions{ResultCacheBytes: resultCacheBytes})
	missOn := func(h http.Handler) func(int) func() {
		return func(int) func() {
			body := rankRequestBody(freshTrain(train, rng), p)
			return func() { expect(serveOnce(h, "POST", "/v1/rank", body, nil), http.StatusOK) }
		}
	}
	miss := l.run("server.rank_miss", "cluster.rank_miss", countMilli, missOn(srv))
	m.set("server.rank_miss_ms", ms(miss), "ms")
	m.set("server.self_ms", ms(miss-warm), "ms")
	repeated := rankRequestBody(train, p)
	primed := serveOnce(srv, "POST", "/v1/rank", repeated, nil)
	expect(primed, http.StatusOK)
	m.set("server.rank_hit_us", us(l.run("server.rank_hit", "cluster.rank_hit", countMicro, same(func() {
		expect(serveOnce(srv, "POST", "/v1/rank", repeated, nil), http.StatusOK)
	}))), "us")
	revalidate := http.Header{"If-None-Match": {primed.Header().Get("ETag")}}
	m.set("server.rank_304_us", us(l.run("server.rank_304", "", countMicro, same(func() {
		expect(serveOnce(srv, "POST", "/v1/rank", repeated, revalidate), http.StatusNotModified)
	}))), "us")
	m.set("server.batch_miss_ms", ms(l.run("server.batch_miss", "", countSlow, func(i int) func() {
		body := batchRequestBody(freshBatch(i), p)
		return func() { expect(serveOnce(srv, "POST", "/v1/rank/batch", body, nil), http.StatusOK) }
	})), "ms")
	sketchURL := "/v1/sketch?key=key&value=n1&role=candidate&agg=avg&size=" + fmt.Sprint(sketchSize)
	m.set("server.sketch_ms", ms(l.run("server.sketch", "", countMilli, same(func() {
		expect(serveOnce(srv, "POST", sketchURL, csv, nil), http.StatusOK)
	}))), "ms")
	putBody := sketchBytes(built)
	m.set("server.put_us", us(l.run("server.put", "", countMicro, func(i int) func() {
		target := "/v1/put?name=" + url.QueryEscape(fmt.Sprintf("ladder/put%04d#x", i))
		return func() { expect(serveOnce(srv, "POST", target, putBody, nil), http.StatusOK) }
	})), "us")

	// --- cluster ladder: Coordinator.ServeHTTP over two loopback shards
	var shards []*misketch.Store
	for i := 0; i < 2; i++ {
		sst, _, _, err := buildCatalog(catalogSpec{dir: filepath.Join(e.work, fmt.Sprintf("ladder-shard-%d", i)), gen: shardOf(numGen, i, 2)})
		if err != nil {
			for _, opened := range shards {
				err = errors.Join(err, opened.Close())
			}
			fail(err)
		}
		shards = append(shards, sst)
	}
	cluster, err := serve(shards, 1)
	fail(err)
	defer func() { err = errors.Join(err, cluster.close()) }()
	fail(cluster.firstAnswer(train, p)) // connections up, shard caches filled
	cmiss := l.run("cluster.rank_miss", "", countMilli, missOn(cluster.coord))
	m.set("cluster.rank_miss_ms", ms(cmiss), "ms")
	var slowest time.Duration
	for i, n := range cluster.nodes {
		slowest = max(slowest, l.run(fmt.Sprintf("cluster.shard%d.rank_miss", i), "cluster.rank_miss", countMilli, missOn(n.srv)))
	}
	m.set("cluster.self_ms", ms(cmiss-slowest), "ms")
	expect(serveOnce(cluster.coord, "POST", "/v1/rank", repeated, nil), http.StatusOK)
	m.set("cluster.rank_hit_us", us(l.run("cluster.rank_hit", "", countMicro, same(func() {
		expect(serveOnce(cluster.coord, "POST", "/v1/rank", repeated, nil), http.StatusOK)
	}))), "us")
	return l.rungs, nil
}

// ladderError carries a rung's failure out of the timed closures.
type ladderError struct{ err error }

// spanFile is what the traced pass writes.
type spanFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Rungs    []rungInfo `json:"rungs"`
	Spans    []span     `json:"spans"`
}

func writeSpans(path string, res result, tr *tracer, rungs []rungInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spanFile{Workload: res.Workload, Seed: res.Seed, Rungs: rungs, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
