package main

// The closed loop: each client sends its next request only once the
// previous one is answered — the callers here are analysts and
// augmentation pipelines that wait for each reply. Requests are minted
// between timed operations, never inside one.

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"misketch"
)

// request is one operation a client sends, with what the verifier
// needs to recompute its answer.
type request struct {
	path   string // /v1/rank or /v1/rank/batch
	body   []byte
	trains []*misketch.Sketch
	params rankParams
}

// sample is a recorded answer. lo and hi bound how many mid-run
// mutations the answering catalog can have held: lo were acknowledged
// before the request was sent, hi had been started when the answer
// arrived.
type sample struct {
	req    request
	body   []byte
	lo, hi int
}

// sampleEvery is the verifier's sampling stride: every 16th answer of
// every client is kept for recomputation.
const sampleEvery = 16

// mutator issues zipf_mutate's mid-run Puts: one after every `every`-th
// request, counted across clients. Puts are serialized so "the first m
// mutations" is a well-defined catalog state.
type mutator struct {
	every    int
	sketches func(i int) *misketch.Sketch
	url      string // base URL of the node that takes the Puts

	requests atomic.Int64
	mu       sync.Mutex
	started  atomic.Int64
	done     atomic.Int64
}

// span is one traced interval, recorded by the benchmark around its own
// calls. Spans of one operation share Op; Parent is the ID of the span
// that caused this one (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a finished span and returns its ID.
func (tr *tracer) record(name string, parent, op int, start, end time.Time) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds()})
	return id
}

// open reserves a span whose end is set by the returned function: a
// parent has to have its ID before its children are recorded.
func (tr *tracer) open(name string, parent int) (id int, end func()) {
	if tr == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = tr.record(name, parent, 0, start, start)
	return id, func() {
		tr.mu.Lock()
		tr.spans[id-1].End = time.Since(tr.epoch).Nanoseconds()
		tr.mu.Unlock()
	}
}

// loopResult is what one window of the closed loop observed.
type loopResult struct {
	elapsed   time.Duration
	latencies []time.Duration // answered operations, sorted
	putLat    []time.Duration // mid-run mutations
	attempted int
	failed    int
	firstErr  error
	samples   []sample
	calib     []time.Duration // calibration kernel samples taken between operations
}

func (r *loopResult) ops() int { return len(r.latencies) }

// runLoop drives one window: clients goroutines, one keep-alive
// connection each, until dur has passed. next[c] mints client c's
// requests. With a tracer every operation is also recorded as a span
// under parent.
func runLoop(t *target, dur time.Duration, next []func() request, mut *mutator, tr *tracer, parent int) loopResult {
	results := make([]loopResult, len(next))
	var opSeq atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			var probe speedProbe
			defer func() { r.calib = probe.samples }()
			for n := 0; time.Now().Before(deadline); n++ {
				probe.tick()
				req := next[c]()
				lo := 0
				if mut != nil {
					lo = int(mut.done.Load())
				}
				sent := time.Now()
				status, body, err := t.post(t.url+req.path, "application/json", req.body)
				got := time.Now()
				r.attempted++
				tr.record("client"+req.path, parent, int(opSeq.Add(1)), sent, got)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %.200s", req.path, status, body)
				}
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.latencies = append(r.latencies, got.Sub(sent))
				if n%sampleEvery == 0 {
					s := sample{req: req, body: body, lo: lo, hi: lo}
					if mut != nil {
						s.hi = int(mut.started.Load())
					}
					r.samples = append(r.samples, s)
				}
				if mut != nil && mut.requests.Add(1)%int64(mut.every) == 0 {
					d, err := mut.put(t)
					r.attempted++
					if err != nil {
						r.failed++
						if r.firstErr == nil {
							r.firstErr = err
						}
						continue
					}
					r.putLat = append(r.putLat, d)
				}
			}
		}()
	}
	wg.Wait()
	var total loopResult
	for _, r := range results {
		total.merge(r)
	}
	total.elapsed = time.Since(start)
	return total
}

// merge folds another set of observations (one client's, or one half
// of a window's) into r, keeping the latencies sorted.
func (r *loopResult) merge(o loopResult) {
	r.elapsed += o.elapsed
	r.latencies = append(r.latencies, o.latencies...)
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	r.putLat = append(r.putLat, o.putLat...)
	r.samples = append(r.samples, o.samples...)
	r.calib = append(r.calib, o.calib...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// put ingests the next mutation through POST /v1/put.
func (m *mutator) put(t *target) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := int(m.started.Add(1)) - 1
	body := sketchBytes(m.sketches(i))
	start := time.Now()
	status, resp, err := t.post(m.url+"/v1/put?name="+url.QueryEscape(mutName(i)), "application/octet-stream", body)
	d := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/v1/put: status %d: %.200s", status, resp)
	}
	if err != nil {
		// The catalog state is now unknown; leave done behind started
		// so every later sample's window stays open rather than wrong.
		return 0, err
	}
	m.done.Add(1)
	return d, nil
}
