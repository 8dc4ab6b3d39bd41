// Package server exposes a sketch store as a long-running HTTP/JSON
// discovery service — the layer that turns the one-shot CLI workflow
// into something that can serve sustained query traffic. One open
// store.Store is shared across all requests (no per-query store open or
// manifest load), compiled train probes are cached by sketch content so
// repeated queries skip compilation, per-worker estimator scratch is
// pooled across requests, and a weighted semaphore bounds the total
// rank-worker fan-out regardless of request concurrency.
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	POST /v1/rank        rank stored candidates against a train sketch
//	                     (inline base64 or a stored sketch name)
//	POST /v1/rank/batch  rank N train sketches in one corpus pass, with
//	                     the key-overlap prefilter pruning dead pairs
//	POST /v1/sketch      build a sketch from a posted CSV body
//	POST /v1/put         ingest a serialized sketch (raw binary body)
//	GET  /v1/ls          manifest listing (no sketch reads)
//	GET  /v1/stats       store + server counters
//	GET  /healthz        liveness: {"ok":true}
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"misketch/internal/core"
	"misketch/internal/store"
	"misketch/internal/table"
)

// Defaults for Options zero values.
const (
	// DefaultProbeCache bounds the compiled-probe cache entry count.
	DefaultProbeCache = 64
	// DefaultMaxBodyBytes caps request bodies (sketch uploads, CSVs).
	DefaultMaxBodyBytes = 256 << 20
	// DefaultShutdownTimeout bounds the graceful drain on shutdown.
	DefaultShutdownTimeout = 30 * time.Second
	// DefaultReadHeaderTimeout bounds how long a connection may dribble
	// its request headers — the slowloris guard: without it, idle
	// connections holding half-sent requests pin server goroutines
	// forever.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultReadTimeout bounds reading one full request (headers and
	// body). Generous: sketch uploads and CSV ingests are large.
	DefaultReadTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds writing one full response, covering the
	// slowest expected rank-batch on a loaded server.
	DefaultWriteTimeout = 5 * time.Minute
	// DefaultIdleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	DefaultIdleTimeout = 2 * time.Minute
	// defaultMinJoin is the paper's "JoinSize <= 100" confidence filter,
	// applied when a rank request leaves min_join unset.
	defaultMinJoin = 100
	// defaultSketchSize mirrors the root package's DefaultSketchSize
	// (the root package sits above this one, so the constant is
	// duplicated rather than imported).
	defaultSketchSize = 1024
	// maxSketchSize bounds ?size= on /v1/sketch: entries are materialized
	// in memory per request, so an absurd size is a denial of service,
	// and anything past 2^30 could not round-trip the packed record
	// format's 32-bit array lengths anyway.
	maxSketchSize = 1 << 30
)

// Options tunes a discovery server.
type Options struct {
	// MaxWorkers bounds the total rank-estimation fan-out across all
	// concurrent requests; zero means GOMAXPROCS. A request asking for
	// more workers than the bound is clamped to it.
	MaxWorkers int
	// ProbeCache bounds the compiled train-probe cache entry count; zero
	// means DefaultProbeCache, negative disables probe caching.
	ProbeCache int
	// MaxBodyBytes caps request body sizes; zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// ResultCacheBytes bounds the rank result cache: a byte-bounded LRU
	// of fully-encoded /v1/rank and /v1/rank/batch responses keyed by
	// (canonical request digest, store generation), with singleflight
	// coalescing of concurrent identical misses (see resultcache.go).
	// Zero or negative disables both caching and coalescing — the
	// uncached path is the reference semantics, and cached responses
	// are bit-identical to it (timing metadata aside). The ETag /
	// If-None-Match revalidation protocol is independent of this knob
	// and always on.
	ResultCacheBytes int64
	// ShutdownTimeout bounds how long ListenAndServe waits for in-flight
	// requests on shutdown. It follows the same convention as the four
	// connection timeouts below: zero means DefaultShutdownTimeout,
	// negative disables the bound entirely — the drain waits for the
	// last in-flight request no matter how long it runs.
	ShutdownTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server mux — CPU and heap profiles of a live discovery service,
	// the observability companion to the bench command's -cpuprofile.
	// Off by default: profiles expose internals, so the flag is opt-in
	// and deployments should keep it off on untrusted networks.
	EnablePprof bool
	// Connection timeouts for ListenAndServe/ServeListener, each
	// defaulting to its Default* constant when zero; negative disables
	// that timeout. ReadHeaderTimeout is the load-bearing one — it reaps
	// connections that dribble or stall their request before a handler
	// ever runs (slowloris), which no handler-level deadline can do.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// timeout resolves one Options timeout field: zero means the default,
// negative means disabled.
func timeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Server is the discovery service: an http.Handler over one open store.
type Server struct {
	st      *store.Store
	opt     Options
	sem     *semaphore
	probes  *probeCache
	scratch *core.ScratchPool
	mux     *http.ServeMux

	// results is the generation-fenced rank result cache (nil when
	// disabled); epoch salts this process's ETags so a restart can
	// never revalidate against the previous incarnation's answers.
	results *resultCache
	epoch   [8]byte

	// digests memoizes the content digest of stored train sketches by
	// (name, store generation), so warm by-name rank requests skip
	// re-serializing the sketch just to key the probe cache.
	digestMu sync.Mutex
	digests  map[string]digestMemo

	rankRequests   atomic.Int64
	rankFailures   atomic.Int64
	rankRejected   atomic.Int64 // admission aborted: client gone before capacity freed
	batchRequests  atomic.Int64
	batchFailures  atomic.Int64
	sketchRequests atomic.Int64
	putRequests    atomic.Int64
}

type digestMemo struct {
	gen    uint64
	digest probeDigest
}

// maxDigestMemo bounds the stored-train digest memo.
const maxDigestMemo = 1024

// New wraps an open store in a discovery server. The caller keeps
// ownership of the store handle; ListenAndServe flushes its manifest on
// graceful shutdown, and Close flushes it on demand.
func New(st *store.Store, opt Options) *Server {
	if opt.MaxWorkers <= 0 {
		opt.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	probeMax := opt.ProbeCache
	if probeMax == 0 {
		probeMax = DefaultProbeCache
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	// ShutdownTimeout is resolved at shutdown time (shutdownContext), not
	// clamped here: zero means the default, negative means unbounded.
	s := &Server{
		st:      st,
		opt:     opt,
		sem:     newSemaphore(opt.MaxWorkers),
		probes:  newProbeCache(probeMax),
		scratch: new(core.ScratchPool),
		digests: make(map[string]digestMemo),
		mux:     http.NewServeMux(),
		results: newResultCache(opt.ResultCacheBytes),
		epoch:   newEpoch(),
	}
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.HandleFunc("POST /v1/rank/batch", s.handleRankBatch)
	s.mux.HandleFunc("POST /v1/sketch", s.handleSketch)
	s.mux.HandleFunc("POST /v1/put", s.handlePut)
	s.mux.HandleFunc("GET /v1/get", s.handleGet)
	s.mux.HandleFunc("GET /v1/ls", s.handleLs)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opt.EnablePprof {
		// Mounted explicitly rather than via the package's DefaultServeMux
		// side effect, so profiles exist only on servers that asked.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Close flushes the store manifest.
func (s *Server) Close() error { return s.st.Flush() }

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully: stop accepting, drain in-flight requests (bounded by
// Options.ShutdownTimeout), and persist the store manifest. It returns
// nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is ListenAndServe over an existing listener (which it
// takes ownership of) — the entry point when the caller needs the bound
// address, e.g. after listening on port 0.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	// The shutdown goroutine must not outlive this call when Serve fails
	// on its own (bad listener, external close) under a long-lived ctx.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hs := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: timeout(s.opt.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       timeout(s.opt.ReadTimeout, DefaultReadTimeout),
		WriteTimeout:      timeout(s.opt.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       timeout(s.opt.IdleTimeout, DefaultIdleTimeout),
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shCtx, cancel := s.shutdownContext()
		defer cancel()
		done <- hs.Shutdown(shCtx)
	}()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = <-done // wait for the drain before persisting
	}
	if ferr := s.st.Flush(); err == nil {
		err = ferr
	}
	return err
}

// shutdownContext resolves Options.ShutdownTimeout into the context the
// graceful drain runs under: zero means DefaultShutdownTimeout, a
// positive value bounds the drain to it, and a negative value disables
// the bound — the returned context has no deadline and the drain waits
// for the last in-flight request. Factored out (and tested) because the
// semantics must match the connection-timeout convention exactly.
func (s *Server) shutdownContext() (context.Context, context.CancelFunc) {
	if d := timeout(s.opt.ShutdownTimeout, DefaultShutdownTimeout); d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// errorResponse is the error body of every non-2xx JSON response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bodyErrStatus distinguishes a body over the MaxBodyBytes cap (413,
// retryable with a smaller payload) from a malformed request (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// trainErrStatus classifies a trainSketch failure. An inline sketch that
// fails to decode is the client's payload (400). A by-name train maps to
// 404 only when the store reports the name missing (store.ErrNotFound);
// any other by-name failure — a CRC mismatch on a corrupt record, a
// truncated segment, an I/O error — is a server-side fault and must be
// 500: a cluster coordinator (or any retrying client) treats 404 as
// authoritative "does not exist" and 5xx as "this replica is sick", so
// misclassifying corruption as 404 silently converts data loss into an
// empty answer.
func trainErrStatus(req *RankRequest, err error) int {
	if req.Train == "" {
		return http.StatusBadRequest
	}
	if errors.Is(err, store.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// RankRequest is the body of POST /v1/rank. Exactly one of Sketch and
// Train selects the train side.
type RankRequest struct {
	// Sketch is the serialized train sketch, standard base64.
	Sketch string `json:"sketch,omitempty"`
	// Train names a stored sketch to use as the train side instead of
	// uploading one.
	Train string `json:"train,omitempty"`
	// Prefix restricts ranking to stored names with this prefix.
	Prefix string `json:"prefix,omitempty"`
	// MinJoin drops candidates whose sketch join has at most this many
	// samples; unset means 100 (the paper's confidence filter), -1 keeps
	// even empty joins.
	MinJoin *int `json:"min_join,omitempty"`
	// K is the KSG-family neighbor parameter; 0 means the default.
	K int `json:"k,omitempty"`
	// Top bounds the result to the best K candidates; 0 returns all.
	Top int `json:"top,omitempty"`
	// Workers requests an estimation fan-out; 0 means the server bound.
	// Requests are clamped to the server's MaxWorkers and admitted
	// through a weighted semaphore, so concurrent queries queue rather
	// than oversubscribe.
	Workers int `json:"workers,omitempty"`
	// NoCascade disables the two-tier estimator cascade for this query,
	// forcing the exact KSG-family tier on every candidate pair.
	NoCascade bool `json:"no_cascade,omitempty"`
	// CascadeMargin overrides the cascade's calibrated safety margin in
	// nats; 0 keeps the default, negative disables the margin (the
	// saturation guard still applies). Rankings are identical at any
	// margin at or above the calibrated default; smaller margins trade
	// that guarantee for more pruning.
	CascadeMargin float64 `json:"cascade_margin,omitempty"`
}

// RankedResult is one row of a RankResponse.
type RankedResult struct {
	Name      string  `json:"name"`
	MI        float64 `json:"mi"`
	Estimator string  `json:"estimator"`
	JoinSize  int     `json:"join_size"`
}

// RankResponse is the body of a successful POST /v1/rank.
type RankResponse struct {
	Ranked []RankedResult `json:"ranked"`
	// Skipped lists prefix-matching stored sketches that could not be
	// joined (incompatible seed or role, or mutated mid-query).
	Skipped []string `json:"skipped,omitempty"`
	// ProbeCached reports whether the compiled train probe came from the
	// server's cache (a warm query) or was compiled for this request.
	ProbeCached bool `json:"probe_cached"`
	// Workers is the admitted estimation fan-out after clamping.
	Workers int `json:"workers"`
	// ElapsedNS is the server-side wall time of the ranking itself.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// DecodeRankRequest parses and validates a rank request body. Exported
// for the cluster coordinator, which validates a request once before
// scattering it to every shard.
func DecodeRankRequest(body []byte) (*RankRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req RankRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding rank request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after rank request")
	}
	if (req.Sketch == "") == (req.Train == "") {
		return nil, fmt.Errorf("exactly one of \"sketch\" and \"train\" must be set")
	}
	if req.K < 0 || req.Top < 0 || req.Workers < 0 {
		return nil, fmt.Errorf("k, top, and workers must be non-negative")
	}
	if req.MinJoin != nil && *req.MinJoin < -1 {
		return nil, fmt.Errorf("min_join must be >= -1")
	}
	return &req, nil
}

// trainSketch resolves the request's train side to (sketch, content
// digest). An inline sketch is digested from its uploaded bytes; a
// stored sketch is serialized once to derive its digest, which is then
// memoized by (name, store generation) so the warm path skips the
// re-serialization until the next store mutation.
func (s *Server) trainSketch(req *RankRequest) (*core.Sketch, probeDigest, error) {
	if req.Sketch != "" {
		raw, err := base64.StdEncoding.DecodeString(req.Sketch)
		if err != nil {
			return nil, probeDigest{}, fmt.Errorf("decoding sketch base64: %w", err)
		}
		sk, err := core.ReadSketch(bytes.NewReader(raw))
		if err != nil {
			return nil, probeDigest{}, err
		}
		return sk, sha256.Sum256(raw), nil
	}
	gen := s.st.Gen()
	sk, err := s.st.Get(req.Train)
	if err != nil {
		return nil, probeDigest{}, err
	}
	s.digestMu.Lock()
	memo, ok := s.digests[req.Train]
	s.digestMu.Unlock()
	if ok && memo.gen == gen {
		return sk, memo.digest, nil
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		return nil, probeDigest{}, err
	}
	d := probeDigest(sha256.Sum256(buf.Bytes()))
	s.digestMu.Lock()
	if len(s.digests) >= maxDigestMemo {
		clear(s.digests) // crude bound; repopulates from live queries
	}
	s.digests[req.Train] = digestMemo{gen: gen, digest: d}
	s.digestMu.Unlock()
	return sk, d, nil
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.rankRequests.Add(1)
	body, err := readBody(r)
	if err != nil {
		s.rankFailures.Add(1)
		httpError(w, bodyErrStatus(err), "reading body: %v", err)
		return
	}
	req, err := DecodeRankRequest(body)
	if err != nil {
		s.rankFailures.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The cache fence: read the generation before resolving the train
	// or snapshotting the manifest, so an entry keyed by it can only
	// ever reflect this generation or a newer one — never a stale one.
	gen := s.st.Gen()
	train, digest, err := s.trainSketch(req)
	if err != nil {
		s.rankFailures.Add(1)
		httpError(w, trainErrStatus(req, err), "train sketch: %v", err)
		return
	}
	if train.Role != core.RoleTrain {
		s.rankFailures.Add(1)
		httpError(w, http.StatusBadRequest, "train sketch: role is %d, want train", train.Role)
		return
	}

	p := resolveRankParams(req.Prefix, req.MinJoin, req.K, req.Top, req.Workers,
		req.NoCascade, req.CascadeMargin, s.opt.MaxWorkers)
	canon := canonicalRankDigest(digest, p)
	key := cacheKey{digest: canon, gen: gen}
	etag := etagFor(s.epoch, canon, gen)
	// Revalidation needs no ranking, no cache, and no semaphore: the
	// ETag is a pure function of (epoch, canonical request, generation).
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		if s.results != nil {
			s.results.notModified.Add(1)
		}
		writeNotModified(w, etag)
		return
	}
	if cachedTag, cachedBody, ok := s.results.get(key); ok {
		writeCachedResponse(w, cachedTag, cachedBody)
		return
	}

	// Miss: coalesce concurrent identical queries into one computation.
	f, leader, release := s.results.joinFlight(r.Context(), key)
	defer release()
	if !leader {
		select {
		case <-f.done:
			if f.status != http.StatusOK {
				s.rankFailures.Add(1)
			}
			replayFlight(w, f)
		case <-r.Context().Done():
			s.rankRejected.Add(1)
			httpError(w, http.StatusServiceUnavailable, "%v", errCoalescedCancel)
		}
		return
	}

	status, fresh, cacheable := s.computeRank(f.ctx, req, train, digest, p)
	if status == http.StatusOK {
		s.results.add(key, etag, cacheable)
	}
	// Waiters receive the cacheable variant: by the time they read it,
	// the probe this computation compiled is warm, so probe_cached:true
	// is both accurate for them and bit-identical to what an uncached
	// server would have told a second caller.
	s.results.finishFlight(key, f, status, etag, cacheable)
	if status == http.StatusOK {
		writeCachedResponse(w, etag, fresh)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(fresh)
}

// computeRank runs one rank query end to end — probe compile-or-reuse,
// semaphore admission, store ranking, JSON encoding — and returns the
// HTTP status plus two encoded bodies: fresh is the response for the
// caller that paid the computation (its probe_cached reports what this
// request actually experienced), cacheable is the variant stored in the
// result cache and replayed to coalesced waiters (probe_cached forced
// true, which is what any later identical request would observe). On
// errors both bodies are the encoded error object.
func (s *Server) computeRank(ctx context.Context, req *RankRequest, train *core.Sketch, digest probeDigest, p rankParams) (status int, fresh, cacheable []byte) {
	probe, cached := s.probes.get(digest)
	if !cached {
		probe = core.CompileTrainProbe(train)
		s.probes.add(digest, probe)
	} else {
		// The cached probe was compiled from bit-identical sketch bytes;
		// rank against its train so probe and train always agree.
		train = probe.Train()
	}

	if err := s.sem.acquire(ctx, p.workers); err != nil {
		// Every interested client went away while queued; the waiter is
		// already unlinked, so its slots were never held.
		s.rankRejected.Add(1)
		body := encodeJSON(errorResponse{Error: fmt.Sprintf("cancelled while queued for capacity: %v", err)})
		return http.StatusServiceUnavailable, body, body
	}
	defer s.sem.release(p.workers)

	started := time.Now()
	ranked, skipped, err := s.st.RankQuery(ctx, train, store.RankOptions{
		Prefix:        req.Prefix,
		MinJoinSize:   p.minJoin,
		K:             p.k,
		TopK:          req.Top,
		Workers:       p.workers,
		Probe:         probe,
		ScratchPool:   s.scratch,
		NoCascade:     req.NoCascade,
		CascadeMargin: req.CascadeMargin,
	})
	if err != nil {
		s.rankFailures.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		body := encodeJSON(errorResponse{Error: fmt.Sprintf("rank: %v", err)})
		return status, body, body
	}
	resp := RankResponse{
		Ranked:      make([]RankedResult, len(ranked)),
		Skipped:     skipped,
		ProbeCached: cached,
		Workers:     p.workers,
		ElapsedNS:   time.Since(started).Nanoseconds(),
	}
	for i, rs := range ranked {
		resp.Ranked[i] = RankedResult{
			Name: rs.Name, MI: rs.MI, Estimator: string(rs.Estimator), JoinSize: rs.JoinSize,
		}
	}
	fresh = encodeJSON(resp)
	cacheable = fresh
	if !resp.ProbeCached {
		resp.ProbeCached = true
		cacheable = encodeJSON(resp)
	}
	return http.StatusOK, fresh, cacheable
}

// encodeJSON marshals v exactly as writeJSON puts it on the wire
// (trailing newline included), so cached bytes and streamed bytes are
// interchangeable.
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Response types marshal by construction; reaching here is a
		// programming error, surfaced as a well-formed 500 body.
		return []byte(`{"error":"encoding response"}` + "\n")
	}
	return append(b, '\n')
}

// SketchResponse is the body of a successful POST /v1/sketch.
type SketchResponse struct {
	// Sketch is the serialized sketch, standard base64; feed it back to
	// /v1/rank (train role) or /v1/put (candidate role).
	Sketch     string `json:"sketch"`
	Entries    int    `json:"entries"`
	Numeric    bool   `json:"numeric"`
	Method     string `json:"method"`
	Seed       uint32 `json:"seed"`
	SourceRows int    `json:"source_rows"`
}

// handleSketch builds a sketch from a posted CSV. Query parameters:
// key (join-key column, required), value (value column, required),
// role (train|candidate, default train), size, seed, method, agg.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	s.sketchRequests.Add(1)
	q := r.URL.Query()
	keyCol, valCol := q.Get("key"), q.Get("value")
	if keyCol == "" || valCol == "" {
		httpError(w, http.StatusBadRequest, "query parameters \"key\" and \"value\" are required")
		return
	}
	role := core.RoleTrain
	switch q.Get("role") {
	case "", "train":
	case "candidate":
		role = core.RoleCandidate
	default:
		httpError(w, http.StatusBadRequest, "role must be \"train\" or \"candidate\"")
		return
	}
	opt := core.Options{Method: core.TUPSK, Size: defaultSketchSize}
	if m := q.Get("method"); m != "" {
		opt.Method = core.Method(m)
	}
	var err error
	// Size and seed are range-checked, not truncated: a seed is a uint32
	// everywhere in the sketch format, and silently wrapping ?seed=2^32
	// to 0 would build a sketch that joins nothing honestly-seeded (the
	// coordinated-sampling filter compares seeds bit-for-bit), turning a
	// client typo into empty rankings with no error anywhere.
	if opt.Size, err = intParam(q.Get("size"), defaultSketchSize); err != nil || opt.Size < 1 || opt.Size > maxSketchSize {
		httpError(w, http.StatusBadRequest, "size %q out of range [1, %d]", q.Get("size"), maxSketchSize)
		return
	}
	if opt.Seed, err = seedParam(q.Get("seed")); err != nil {
		httpError(w, http.StatusBadRequest, "seed %q out of range [0, %d]", q.Get("seed"), uint64(math.MaxUint32))
		return
	}
	opt.Agg = table.AggFunc(q.Get("agg"))

	tb, err := table.ReadCSV(r.Body)
	if err != nil {
		httpError(w, bodyErrStatus(err), "reading CSV: %v", err)
		return
	}
	sk, err := core.Build(tb, keyCol, valCol, role, opt)
	if err != nil {
		httpError(w, http.StatusBadRequest, "building sketch: %v", err)
		return
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "serializing sketch: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, SketchResponse{
		Sketch:     base64.StdEncoding.EncodeToString(buf.Bytes()),
		Entries:    sk.Len(),
		Numeric:    sk.Numeric,
		Method:     string(sk.Method),
		Seed:       sk.Seed,
		SourceRows: sk.SourceRows,
	})
}

// PutResponse is the body of a successful POST /v1/put.
type PutResponse struct {
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Numeric bool   `json:"numeric"`
	Seed    uint32 `json:"seed"`
}

// handlePut ingests a serialized sketch (raw binary request body, as
// written by WriteSketch or returned base64-decoded from /v1/sketch)
// into the store under ?name=.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	s.putRequests.Add(1)
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "query parameter \"name\" is required")
		return
	}
	sk, err := core.ReadSketch(r.Body)
	if err != nil {
		httpError(w, bodyErrStatus(err), "decoding sketch: %v", err)
		return
	}
	if err := s.st.Put(name, sk); err != nil {
		httpError(w, http.StatusInternalServerError, "storing sketch: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, PutResponse{
		Name: name, Entries: sk.Len(), Numeric: sk.Numeric, Seed: sk.Seed,
	})
}

// handleGet serves a stored sketch's serialized bytes (the exact format
// /v1/put ingests) under ?name= — the inverse of /v1/put. A cluster
// coordinator resolves a by-name train through it: the shard owning the
// name answers with the bytes, shards without it answer 404, and a shard
// whose record is corrupt answers 500 — the 404-vs-500 split is what
// lets the coordinator distinguish "not here" from "this replica is
// sick" when deciding whether the name exists anywhere.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "query parameter \"name\" is required")
		return
	}
	sk, err := s.st.Get(name)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotFound) {
			status = http.StatusNotFound
		}
		httpError(w, status, "loading sketch: %v", err)
		return
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "serializing sketch: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// MetaResult is one manifest record in an LsResponse.
type MetaResult struct {
	Name       string `json:"name"`
	Method     string `json:"method"`
	Role       string `json:"role"`
	Seed       uint32 `json:"seed"`
	Size       int    `json:"size"`
	Numeric    bool   `json:"numeric"`
	SourceRows int    `json:"source_rows"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
}

// LsResponse is the body of GET /v1/ls.
type LsResponse struct {
	Sketches []MetaResult `json:"sketches"`
	Count    int          `json:"count"`
}

func (s *Server) handleLs(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	metas := s.st.Metas()
	resp := LsResponse{Sketches: []MetaResult{}}
	for _, m := range metas {
		if !strings.HasPrefix(m.Name, prefix) {
			continue
		}
		role := "candidate"
		if m.Role == core.RoleTrain {
			role = "train"
		}
		resp.Sketches = append(resp.Sketches, MetaResult{
			Name: m.Name, Method: string(m.Method), Role: role, Seed: m.Seed,
			Size: m.Size, Numeric: m.Numeric, SourceRows: m.SourceRows,
			Entries: m.Entries, Bytes: m.Bytes,
		})
	}
	resp.Count = len(resp.Sketches)
	writeJSON(w, http.StatusOK, resp)
}

// ServerStats are the server-side counters of GET /v1/stats.
type ServerStats struct {
	RankRequests   int64 `json:"rank_requests"`
	RankFailures   int64 `json:"rank_failures"`
	RankRejected   int64 `json:"rank_rejected"`
	BatchRequests  int64 `json:"batch_requests"`
	BatchFailures  int64 `json:"batch_failures"`
	SketchRequests int64 `json:"sketch_requests"`
	PutRequests    int64 `json:"put_requests"`
	ProbeHits      int64 `json:"probe_hits"`
	ProbeMisses    int64 `json:"probe_misses"`
	ProbesCached   int   `json:"probes_cached"`
	WorkersHeld    int   `json:"workers_held"`
	RanksQueued    int   `json:"ranks_queued"`
	MaxWorkers     int   `json:"max_workers"`
	// The generation-fenced rank result cache. Hits served encoded
	// bytes without ranking; coalesced counts requests that joined an
	// in-flight identical computation; not_modified counts 304
	// revalidations (served even when the cache is disabled).
	ResultHits        int64 `json:"result_hits"`
	ResultMisses      int64 `json:"result_misses"`
	ResultCoalesced   int64 `json:"result_coalesced"`
	ResultEvictions   int64 `json:"result_evictions"`
	ResultNotModified int64 `json:"result_not_modified"`
	ResultBytes       int64 `json:"result_bytes"`
	ResultEntries     int   `json:"result_entries"`
}

// StoreStats mirrors store.Stats for the JSON response.
type StoreStats struct {
	Backend         string `json:"backend"`
	Sketches        int    `json:"sketches"`
	Segments        int    `json:"segments"`
	IndexedSegments int    `json:"indexed_segments"`
	SegmentBytes    int64  `json:"segment_bytes"`
	PostingBytes    int64  `json:"posting_bytes"`
	LiveBytes       int64  `json:"live_bytes"`
	Compactions     int64  `json:"compactions"`
	CacheBytes      int64  `json:"cache_bytes"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	Evictions       int64  `json:"evictions"`
	DiskReads       int64  `json:"disk_reads"`
	Puts            int64  `json:"puts"`
	Deletes         int64  `json:"deletes"`
	RankQueries     int64  `json:"rank_queries"`
	RankBatches     int64  `json:"rank_batches"`
	PrunedPairs     int64  `json:"pruned_pairs"`
	// CandidatesSkippedNoDecode counts candidates excluded by the
	// segment key indexes before any record decode.
	CandidatesSkippedNoDecode int64 `json:"candidates_skipped_no_decode"`
	// The ranking cascade's tier counters: pairs settled by the cheap
	// binned tier alone, pairs that paid the exact KSG-family tier, and
	// exact runs the safety margin or saturation guard admitted that
	// then entered a top-K heap.
	CascadeCheapOnly     int64 `json:"cascade_cheap_only"`
	CascadeExact         int64 `json:"cascade_exact"`
	CascadeMarginRescues int64 `json:"cascade_margin_rescues"`
	// Segment compression: FSST-compressed segment count, what their
	// records occupy on disk, and what the same records would occupy
	// raw (the achieved ratio is raw_bytes/compressed_bytes).
	CompressedSegments int   `json:"compressed_segments"`
	CompressedBytes    int64 `json:"compressed_bytes"`
	RawBytes           int64 `json:"raw_bytes"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Store  StoreStats  `json:"store"`
	Server ServerStats `json:"server"`
}

// Stats snapshots the server's counters (also served at /v1/stats).
func (s *Server) Stats() StatsResponse {
	ss := s.st.Stats()
	hits, misses, entries := s.probes.stats()
	held, waiting := s.sem.inFlight()
	rc := s.results.stats()
	return StatsResponse{
		Store: StoreStats{
			Backend: ss.Backend, Sketches: ss.Sketches,
			Segments: ss.Segments, IndexedSegments: ss.IndexedSegments,
			SegmentBytes: ss.SegmentBytes, PostingBytes: ss.PostingBytes,
			LiveBytes: ss.LiveBytes, Compactions: ss.Compactions,
			CacheBytes: ss.CacheBytes,
			CacheHits:  ss.CacheHits, CacheMisses: ss.CacheMisses,
			Evictions: ss.Evictions, DiskReads: ss.DiskReads,
			Puts: ss.Puts, Deletes: ss.Deletes, RankQueries: ss.RankQueries,
			RankBatches: ss.RankBatches, PrunedPairs: ss.PrunedPairs,
			CandidatesSkippedNoDecode: ss.CandidatesSkippedNoDecode,
			CascadeCheapOnly:          ss.CascadeCheapOnly,
			CascadeExact:              ss.CascadeExact,
			CascadeMarginRescues:      ss.CascadeMarginRescues,
			CompressedSegments:        ss.CompressedSegments,
			CompressedBytes:           ss.CompressedBytes,
			RawBytes:                  ss.RawBytes,
		},
		Server: ServerStats{
			RankRequests:      s.rankRequests.Load(),
			RankFailures:      s.rankFailures.Load(),
			RankRejected:      s.rankRejected.Load(),
			BatchRequests:     s.batchRequests.Load(),
			BatchFailures:     s.batchFailures.Load(),
			SketchRequests:    s.sketchRequests.Load(),
			PutRequests:       s.putRequests.Load(),
			ProbeHits:         hits,
			ProbeMisses:       misses,
			ProbesCached:      entries,
			WorkersHeld:       held,
			RanksQueued:       waiting,
			MaxWorkers:        s.opt.MaxWorkers,
			ResultHits:        rc.Hits,
			ResultMisses:      rc.Misses,
			ResultCoalesced:   rc.Coalesced,
			ResultEvictions:   rc.Evictions,
			ResultNotModified: rc.NotModified,
			ResultBytes:       rc.Bytes,
			ResultEntries:     rc.Entries,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Len, not Stats: a probe needs one number, not the segment table.
	n, _ := s.st.Len() // Len never fails; the error is API symmetry
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sketches": n})
}

// readBody drains a request body honoring the MaxBytesReader cap.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// intParam parses an optional decimal query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// seedParam parses an optional seed query parameter, rejecting values
// that do not fit the sketch format's uint32 seed instead of wrapping.
func seedParam(s string) (uint32, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	return uint32(v), err
}
