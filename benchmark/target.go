package main

// Catalog construction and in-process serving: the system under test.
// A catalog is built the way an operator builds one — Put every sketch,
// Flush, Compact, Close, reopen — so sealed segments carry key indexes
// (and FSST dictionaries where the catalog compresses). It is then
// served by the shipped server/coordinator on 127.0.0.1:0 listeners:
// real HTTP over loopback, shipped defaults for every option.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"misketch"
	"misketch/internal/core"
)

// resultCacheBytes is `misketch serve`'s -result-cache-bytes default;
// the library default (0) would switch the result cache off.
const resultCacheBytes = 64 << 20

// catalogSpec names one catalog to build: where, with which store
// options, and the generator that streams its sketches (a nil sketch
// deletes the name).
type catalogSpec struct {
	dir string
	opt misketch.OpenStoreOptions
	gen func(each emit) error
}

// phase is one timed store call of a catalog build.
type phase struct {
	name  string // store.put, store.flush, store.compact, store.open
	start time.Time
	d     time.Duration
}

// buildStats is what building a catalog measured besides its time.
type buildStats struct {
	phases          []phase // every Put, the Flush, the Compact, the reopen
	compactions     int
	sketches        int             // live once reopened
	logicalBytes    int64           // raw record bytes acknowledged
	writtenBytes    int64           // segment bytes written: appends + compaction output
	diskBytes       int64           // bytes under dir once reopened
	postingBytes    int64           // key-index sections
	calib           []time.Duration // calibration kernel samples taken while building
	rawBytes        int64           // compressed segments: raw-equivalent record bytes
	compressedBytes int64           // compressed segments: stored record bytes
}

func (b *buildStats) add(o buildStats) {
	b.phases = append(b.phases, o.phases...)
	b.compactions += o.compactions
	b.sketches += o.sketches
	b.logicalBytes += o.logicalBytes
	b.writtenBytes += o.writtenBytes
	b.diskBytes += o.diskBytes
	b.postingBytes += o.postingBytes
	b.calib = append(b.calib, o.calib...)
	b.rawBytes += o.rawBytes
	b.compressedBytes += o.compressedBytes
}

// buildCatalog ingests, compacts and reopens one catalog. The returned
// duration covers only calls into the store: time the generator spent
// producing a sketch is not the program's.
func buildCatalog(spec catalogSpec) (_ *misketch.Store, _ time.Duration, bs buildStats, _ error) {
	var timed time.Duration
	var probe speedProbe
	defer func() { bs.calib = probe.samples }()
	probe.sample()
	start := time.Now()
	st, err := misketch.OpenStoreWithOptions(spec.dir, spec.opt)
	if err != nil {
		return nil, 0, bs, err
	}
	timed += time.Since(start)
	err = spec.gen(func(name string, sk *misketch.Sketch) error {
		probe.tick()
		start := time.Now()
		if sk == nil {
			err := st.Delete(name)
			timed += time.Since(start)
			return err
		}
		err := st.Put(name, sk)
		d := time.Since(start)
		timed += d
		bs.phases = append(bs.phases, phase{"store.put", start, d})
		bs.logicalBytes += int64(core.RawRecordSize(name, sk))
		return err
	})
	if err != nil {
		return nil, 0, bs, errors.Join(err, st.Close())
	}
	probe.sample()
	start = time.Now() // flush, compact, close and reopen are timed as one stretch
	if err := st.Flush(); err != nil {
		return nil, 0, bs, errors.Join(err, st.Close())
	}
	bs.phases = append(bs.phases, phase{"store.flush", start, time.Since(start)})
	cstart := time.Now()
	cs, err := st.Compact(context.Background())
	if err != nil {
		return nil, 0, bs, errors.Join(err, st.Close())
	}
	bs.phases = append(bs.phases, phase{"store.compact", cstart, time.Since(cstart)})
	bs.writtenBytes = cs.BytesBefore
	if cs.Compacted {
		bs.compactions = 1
		bs.writtenBytes += cs.BytesAfter
	}
	if err := st.Close(); err != nil {
		return nil, 0, bs, err
	}
	ostart := time.Now()
	st, err = misketch.OpenStoreWithOptions(spec.dir, spec.opt)
	if err != nil {
		return nil, 0, bs, err
	}
	bs.phases = append(bs.phases, phase{"store.open", ostart, time.Since(ostart)})
	timed += time.Since(start)
	probe.sample()
	stats := st.Stats()
	bs.sketches, bs.postingBytes = stats.Sketches, stats.PostingBytes
	bs.rawBytes, bs.compressedBytes = stats.RawBytes, stats.CompressedBytes
	if bs.diskBytes, err = dirBytes(spec.dir); err != nil {
		return nil, 0, bs, errors.Join(err, st.Close())
	}
	return st, timed, bs, nil
}

// node is one served store.
type node struct {
	st   *misketch.Store
	srv  *misketch.DiscoveryServer
	url  string
	stop func() error // drains the listener; the store stays open
}

// listen runs serve on a fresh loopback port and returns the base URL
// plus a stop function that waits for the drain to finish.
func listen(serve func(context.Context, net.Listener) error) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln) }()
	stop := func() error {
		cancel()
		return <-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func serveStore(st *misketch.Store) (*node, error) {
	srv := misketch.NewServer(st, misketch.ServerOptions{ResultCacheBytes: resultCacheBytes})
	url, stop, err := listen(srv.ServeListener)
	if err != nil {
		return nil, err
	}
	return &node{st: st, srv: srv, url: url, stop: stop}, nil
}

// target is a served system: one node, or a coordinator over shards.
type target struct {
	nodes     []*node
	coord     *misketch.ClusterCoordinator
	coordStop func() error
	url       string // where clients send
	client    *http.Client
}

// serve puts servers (and, for more than one store, a coordinator) in
// front of opened stores.
func serve(stores []*misketch.Store, clients int) (*target, error) {
	t := &target{client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
	}}}
	for i, st := range stores {
		n, err := serveStore(st)
		if err != nil {
			for _, unserved := range stores[i:] {
				err = errors.Join(err, unserved.Close())
			}
			return nil, errors.Join(err, t.close())
		}
		t.nodes = append(t.nodes, n)
	}
	t.url = t.nodes[0].url
	if len(stores) > 1 {
		urls := make([]string, len(t.nodes))
		for i, n := range t.nodes {
			urls[i] = n.url
		}
		coord, err := misketch.OpenCluster(urls, misketch.ClusterOptions{ResultCacheBytes: resultCacheBytes})
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.coord = coord
		if t.url, t.coordStop, err = listen(coord.ServeListener); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	return t, nil
}

func (t *target) stores() []*misketch.Store {
	out := make([]*misketch.Store, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.st
	}
	return out
}

// close stops the listeners (waiting for each drain) and closes the
// stores.
func (t *target) close() error {
	var errs []error
	if t.coordStop != nil {
		errs = append(errs, t.coordStop())
	}
	for _, n := range t.nodes {
		errs = append(errs, n.stop(), n.st.Close())
	}
	t.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// post sends one request and returns the status and the whole body.
func (t *target) post(url, contentType string, body []byte) (int, []byte, error) {
	resp, err := t.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// rankParams are the knobs of a rank request the verifier must replay.
type rankParams struct {
	prefix  string
	minJoin int
	top     int
	workers int // 0: the server's bound (every workload); the ladder pins 1
}

type rankBody struct {
	Sketch  string `json:"sketch"`
	Prefix  string `json:"prefix"`
	MinJoin int    `json:"min_join"`
	Top     int    `json:"top"`
	Workers int    `json:"workers,omitempty"`
}

type batchTrain struct {
	Name   string `json:"name"`
	Sketch string `json:"sketch"`
}

type batchBody struct {
	Trains  []batchTrain `json:"trains"`
	Prefix  string       `json:"prefix"`
	MinJoin int          `json:"min_join"`
	Top     int          `json:"top"`
	Workers int          `json:"workers,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints
	}
	return b
}

func encodeSketch(sk *misketch.Sketch) string {
	return base64.StdEncoding.EncodeToString(sketchBytes(sk))
}

func rankRequestBody(train *misketch.Sketch, p rankParams) []byte {
	return mustJSON(rankBody{Sketch: encodeSketch(train), Prefix: p.prefix, MinJoin: p.minJoin, Top: p.top, Workers: p.workers})
}

func batchRequestBody(trains []*misketch.Sketch, p rankParams) []byte {
	body := batchBody{Prefix: p.prefix, MinJoin: p.minJoin, Top: p.top, Workers: p.workers}
	for i, tr := range trains {
		body.Trains = append(body.Trains, batchTrain{Name: fmt.Sprintf("q%d", i), Sketch: encodeSketch(tr)})
	}
	return mustJSON(body)
}

// firstAnswer sends one rank query and fails unless it is answered in
// full: the end of set-up and of a cold start.
func (t *target) firstAnswer(train *misketch.Sketch, p rankParams) error {
	status, body, err := t.post(t.url+"/v1/rank", "application/json", rankRequestBody(train, p))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first answer: status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp misketch.ClusterRankResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if resp.Partial || len(resp.Ranked) == 0 {
		return fmt.Errorf("first answer: partial=%v with %d results", resp.Partial, len(resp.Ranked))
	}
	return nil
}

// coldFirstAnswer is one cold start on built catalogs: open the stores,
// put fresh servers in front, answer one query.
func coldFirstAnswer(dirs []string, opt misketch.OpenStoreOptions, train *misketch.Sketch, p rankParams) (raw time.Duration, atSpeed float64, err error) {
	var probe speedProbe
	probe.sample()
	defer func() {
		probe.sample()
		atSpeed = speed(probe.samples)
	}()
	start := time.Now()
	var stores []*misketch.Store
	for _, dir := range dirs {
		st, err := misketch.OpenStoreWithOptions(dir, opt)
		if err != nil {
			for _, opened := range stores {
				err = errors.Join(err, opened.Close())
			}
			return 0, 0, err
		}
		stores = append(stores, st)
	}
	t, err := serve(stores, 1)
	if err != nil {
		return 0, 0, err
	}
	err = t.firstAnswer(train, p)
	raw = time.Since(start)
	return raw, 0, errors.Join(err, t.close())
}

func shardDir(work string, repeat, shard int) string {
	return filepath.Join(work, fmt.Sprintf("catalog-%d-%d", repeat, shard))
}
