// Package server exposes a sketch store as a long-running HTTP/JSON
// discovery service — the layer that turns the one-shot CLI workflow
// into something that can serve sustained query traffic. One open
// store.Store is shared across all requests (no per-query store open or
// manifest load), compiled train probes are cached by sketch content so
// repeated queries skip compilation, the store pools per-worker estimator
// scratch across requests, and a weighted semaphore bounds the total
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
	"encoding/base64"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"misketch/internal/cache"
	"misketch/internal/core"
	"misketch/internal/store"
	"misketch/internal/table"
)

// Defaults for Options zero values.
const (
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
	// MaxBodyBytes caps request body sizes; zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// ResultCacheBytes bounds the rank result cache: a byte-bounded LRU
	// of fully-encoded /v1/rank and /v1/rank/batch responses keyed by
	// (canonical request digest, store generation), with singleflight
	// coalescing of concurrent identical misses (see resultcache.go).
	// Zero or negative disables both caching and coalescing — the
	// uncached path is the reference semantics, and cached responses
	// are byte-identical to it. The ETag /
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

// Server is the discovery service: an http.Handler over one open store.
type Server struct {
	st  *store.Store
	opt Options
	sem *semaphore
	mux *http.ServeMux

	// results is the generation-fenced rank result cache and flights
	// the singleflight table beside it (both nil when disabled; see
	// resultcache.go); resultGen is the newest generation an answer was
	// cached under; epoch salts this process's ETags so a restart can
	// never revalidate against the previous incarnation's answers.
	results     *cache.LRU[cacheKey, []byte]
	flights     *cache.Flights[cacheKey, Outcome]
	resultGen   atomic.Uint64
	notModified atomic.Int64
	epoch       [8]byte

	// rank and batch describe the two rank endpoints and hold their
	// request and failure counters (rank.go).
	rank, batch    *endpoint
	rankRejected   atomic.Int64 // admission aborted: client gone before capacity freed
	sketchRequests atomic.Int64
	putRequests    atomic.Int64
}

// New wraps an open store in a discovery server. The caller keeps
// ownership of the store handle and closes it; ListenAndServe flushes its
// manifest on graceful shutdown.
func New(st *store.Store, opt Options) *Server {
	if opt.MaxWorkers <= 0 {
		opt.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	// ShutdownTimeout is resolved at shutdown time (Timeouts), not
	// clamped here: zero means the default, negative means unbounded.
	s := &Server{
		st:    st,
		opt:   opt,
		sem:   newSemaphore(opt.MaxWorkers),
		mux:   http.NewServeMux(),
		epoch: newEpoch(),
		rank:  rankEndpoint(),
		batch: batchEndpoint(),
	}
	if opt.ResultCacheBytes > 0 {
		s.results = cache.NewLRU[cacheKey, []byte](opt.ResultCacheBytes)
		s.flights = cache.NewFlights[cacheKey, Outcome]()
	}
	s.mux.HandleFunc("POST /v1/rank", s.serveRank(s.rank))
	s.mux.HandleFunc("POST /v1/rank/batch", s.serveRank(s.batch))
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
	err := Serve(ctx, ln, s, s.timeouts())
	// The drain is over (or Serve failed on its own): persist.
	if ferr := s.st.Flush(); err == nil {
		err = ferr
	}
	return err
}

func (s *Server) timeouts() Timeouts {
	return Timeouts{
		Shutdown: s.opt.ShutdownTimeout, ReadHeader: s.opt.ReadHeaderTimeout,
		Read: s.opt.ReadTimeout, Write: s.opt.WriteTimeout, Idle: s.opt.IdleTimeout,
	}
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
		HTTPError(w, http.StatusBadRequest, "query parameters \"key\" and \"value\" are required")
		return
	}
	role := core.RoleTrain
	switch q.Get("role") {
	case "", "train":
	case "candidate":
		role = core.RoleCandidate
	default:
		HTTPError(w, http.StatusBadRequest, "role must be \"train\" or \"candidate\"")
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
		HTTPError(w, http.StatusBadRequest, "size %q out of range [1, %d]", q.Get("size"), maxSketchSize)
		return
	}
	if opt.Seed, err = seedParam(q.Get("seed")); err != nil {
		HTTPError(w, http.StatusBadRequest, "seed %q out of range [0, %d]", q.Get("seed"), uint64(math.MaxUint32))
		return
	}
	opt.Agg = table.AggFunc(q.Get("agg"))

	tb, err := table.ReadCSV(r.Body)
	if err != nil {
		HTTPError(w, BodyErrStatus(err), "reading CSV: %v", err)
		return
	}
	sk, err := core.Build(tb, keyCol, valCol, role, opt)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "building sketch: %v", err)
		return
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		HTTPError(w, http.StatusInternalServerError, "serializing sketch: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, SketchResponse{
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
		HTTPError(w, http.StatusBadRequest, "query parameter \"name\" is required")
		return
	}
	sk, err := core.ReadSketch(r.Body)
	if err != nil {
		HTTPError(w, BodyErrStatus(err), "decoding sketch: %v", err)
		return
	}
	if err := s.st.Put(name, sk); err != nil {
		HTTPError(w, http.StatusInternalServerError, "storing sketch: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, PutResponse{
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
		HTTPError(w, http.StatusBadRequest, "query parameter \"name\" is required")
		return
	}
	sk, err := s.st.Get(name)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotFound) {
			status = http.StatusNotFound
		}
		HTTPError(w, status, "loading sketch: %v", err)
		return
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		HTTPError(w, http.StatusInternalServerError, "serializing sketch: %v", err)
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
	WriteJSON(w, http.StatusOK, resp)
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
	// Deprecated: reads 0. No server caches probes: the store keys its
	// plans by train content.
	ProbeHits int64 `json:"probe_hits"`
	// Deprecated: reads 0, as ProbeHits.
	ProbeMisses int64 `json:"probe_misses"`
	WorkersHeld int   `json:"workers_held"`
	RanksQueued int   `json:"ranks_queued"`
	MaxWorkers  int   `json:"max_workers"`
	// The generation-fenced rank result cache. Hits served encoded
	// bytes without ranking; coalesced counts requests that joined an
	// in-flight identical computation; not_modified counts 304
	// revalidations, which are served and counted with the cache
	// disabled too.
	ResultHits        int64 `json:"result_hits"`
	ResultMisses      int64 `json:"result_misses"`
	ResultCoalesced   int64 `json:"result_coalesced"`
	ResultEvictions   int64 `json:"result_evictions"`
	ResultNotModified int64 `json:"result_not_modified"`
	ResultBytes       int64 `json:"result_bytes"`
	ResultEntries     int   `json:"result_entries"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Store  store.Stats `json:"store"`
	Server ServerStats `json:"server"`
}

// Stats snapshots the server's counters (also served at /v1/stats).
func (s *Server) Stats() StatsResponse {
	held, waiting := s.sem.inFlight()
	rc := s.results.Stats()
	return StatsResponse{
		Store: s.st.Stats(),
		Server: ServerStats{
			RankRequests:      s.rank.requests.Load(),
			RankFailures:      s.rank.failures.Load(),
			RankRejected:      s.rankRejected.Load(),
			BatchRequests:     s.batch.requests.Load(),
			BatchFailures:     s.batch.failures.Load(),
			SketchRequests:    s.sketchRequests.Load(),
			PutRequests:       s.putRequests.Load(),
			WorkersHeld:       held,
			RanksQueued:       waiting,
			MaxWorkers:        s.opt.MaxWorkers,
			ResultHits:        rc.Hits,
			ResultMisses:      rc.Misses,
			ResultCoalesced:   s.flights.Coalesced(),
			ResultEvictions:   rc.Evictions,
			ResultNotModified: s.notModified.Load(),
			ResultBytes:       rc.Used,
			ResultEntries:     rc.Entries,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Len, not Stats: a probe needs one number, not the segment table.
	n, _ := s.st.Len() // Len never fails; the error is API symmetry
	WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "sketches": n})
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
