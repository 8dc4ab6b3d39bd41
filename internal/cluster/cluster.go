// Package cluster scatters discovery queries across misketch serve
// replicas and gathers their per-shard top-K heaps into one ranking —
// the multi-node deployment mode. Each replica owns a disjoint shard of
// the catalog (segment files are immutable and content-addressed, so
// placement is file copying: rsync a subset of segments per replica;
// opening the copied directory heals it). The coordinator speaks the
// exact same HTTP/JSON protocol as a single node, so clients cannot tell a
// coordinator from a replica except for two additive response fields:
// "partial" and "shard_errors", reported when a shard was unreachable
// and the ranking covers only the shards that answered.
//
// Correctness of the merge rests on two invariants the single-node
// engine already provides:
//
//   - Shards are disjoint, so a candidate appears in exactly one
//     shard's answer and concatenation never double-counts.
//   - Each shard ranks with the same total order the store uses — MI
//     descending, name ascending on ties — and contributes a superset
//     of its share of the global top-K: its top-K of {MI ≥ floor}, or,
//     when its seed bound is under the floor, its seed rows.
//     Concatenate, sort by the same order, cut at K: bit-identical to
//     a single node ranking the union catalog.
//
// The floor lets a shard prune like a single node would: one holding
// none of the strong candidates has a low K-th MI of its own and would
// otherwise score its whole slice exactly. A query with a top-K cut and
// the cascade on, over more than one shard, runs in two rounds. Round 1
// asks every shard for a seed answer: its first K candidates in
// cheap-score order, scored exactly, and a certified upper bound on the
// rest. The floor is the K-th best of all seed scores: K candidates of
// the union reach it, so nothing under it is in the top-K. Round 2
// sends min_mi = floor — a filter, so the answer is exact whatever the
// floor — to the shards whose bound reaches it. A floored merge of
// fewer than K rows means a mutation landed between the rounds, and
// round 2 is rerun without the floor: only speed rests on the floor.
//
// Failure handling is degraded-results, not fail-stop: a scattered
// query that loses shards still answers from the shards that responded,
// with "partial": true and one error per lost shard. Only when every
// shard fails does the query error. Per-shard clients bound connects
// and requests with timeouts and retry transient failures (transport
// errors, 502/503/504) with exponential backoff.
package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"misketch/internal/server"
)

// Defaults for Options zero values.
const (
	// DefaultConnectTimeout bounds dialing a shard. Short: shards are
	// LAN peers, and a dead shard should fail fast into degraded mode.
	DefaultConnectTimeout = 5 * time.Second
	// DefaultRequestTimeout bounds one request attempt to a shard,
	// covering the slowest expected rank-batch on a loaded replica.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultRetries is the transient-failure retry budget per request.
	DefaultRetries = 2
	// DefaultRetryBackoff is the wait before the first retry; each
	// further retry doubles it.
	DefaultRetryBackoff = 100 * time.Millisecond
)

// Options tunes a cluster coordinator. Every duration follows the
// server package's convention: zero means the Default* constant,
// negative disables that bound.
type Options struct {
	// ConnectTimeout bounds dialing a shard.
	ConnectTimeout time.Duration
	// RequestTimeout bounds one request attempt to a shard (each retry
	// gets a fresh bound).
	RequestTimeout time.Duration
	// Retries is the per-request retry budget for transient shard
	// failures: transport errors and 502/503/504 responses. Zero means
	// DefaultRetries, negative disables retrying.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling on each
	// further one. Zero means DefaultRetryBackoff, negative retries
	// immediately.
	RetryBackoff time.Duration
	// ResultCacheBytes is ignored: the coordinator keeps no results, and
	// each shard's own result cache serves and coalesces a repeated
	// scatter.
	//
	// Deprecated: set server.Options.ResultCacheBytes on the shards.
	ResultCacheBytes int64
	// ShutdownTimeout bounds the graceful drain in ListenAndServe.
	ShutdownTimeout time.Duration
	// Connection timeouts for the coordinator's own HTTP listener,
	// mirroring server.Options.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// retryBudget resolves Options.Retries: zero means the default,
// negative means no retries.
func retryBudget(v int) int {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return DefaultRetries
	default:
		return v
	}
}

// ShardError reports one shard's failure inside a degraded (partial)
// response or a ClusterError.
type ShardError struct {
	// Shard is the failing shard's base URL.
	Shard string `json:"shard"`
	// Status is the HTTP status the shard answered with, 0 for
	// transport-level failures that never got a response.
	Status int `json:"status,omitempty"`
	// Error describes the failure.
	Error string `json:"error"`
}

// ClusterError is the error a coordinator query fails with when it
// cannot answer at all — every shard failed, or the request itself was
// invalid. It carries the HTTP status the coordinator serves.
type ClusterError struct {
	// StatusCode is the HTTP status for this failure: 400 for an
	// invalid request, 404 for a by-name train no shard stores, 502
	// when shards failed in ways the coordinator cannot vouch for.
	StatusCode int
	Message    string
	// Shards lists the per-shard failures behind the error, when any.
	Shards []ShardError
}

func (e *ClusterError) Error() string {
	if len(e.Shards) == 0 {
		return e.Message
	}
	parts := make([]string, len(e.Shards))
	for i, se := range e.Shards {
		parts[i] = fmt.Sprintf("%s: %s", se.Shard, se.Error)
	}
	return fmt.Sprintf("%s (%s)", e.Message, strings.Join(parts, "; "))
}

// RankResponse is a coordinator's answer to POST /v1/rank: the merged
// single-node response plus the degraded-mode fields. Partial and
// ShardErrors are absent (omitempty) on a fully-answered query, so a
// healthy cluster is wire-identical to a single node.
type RankResponse struct {
	server.RankResponse
	// Partial reports that at least one shard did not contribute: the
	// ranking is correct for the shards that answered but may be
	// missing candidates owned by the lost shards.
	Partial bool `json:"partial,omitempty"`
	// ShardErrors lists the shards that did not contribute and why.
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

// RankBatchResponse is a coordinator's answer to POST /v1/rank/batch;
// see RankResponse for the degraded-mode fields.
type RankBatchResponse struct {
	server.RankBatchResponse
	Partial     bool         `json:"partial,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

// LsResponse is a coordinator's answer to GET /v1/ls: the union
// manifest across shards, sorted by name.
type LsResponse struct {
	server.LsResponse
	Partial     bool         `json:"partial,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
}

// Coordinator scatters discovery queries to a fixed set of shard
// replicas and merges their answers. It implements http.Handler with
// the same endpoint surface a single node serves for reads; mutating
// endpoints (/v1/put, /v1/sketch) are not proxied — shard placement is
// an offline concern (see the package comment).
type Coordinator struct {
	shards []*shard
	opt    Options
	mux    *http.ServeMux

	// maxBody caps request bodies at the single-node server's default
	// (a field only so tests can lower it).
	maxBody int64

	// rank and batch describe the two rank endpoints and hold their
	// counters (rank.go).
	rank, batch *endpoint

	notModified atomic.Int64 // client If-None-Match answered 304
	// The two-round scatter's counters (rank.go).
	floorQueries, round2Requests, round2Skipped, floorFallbacks atomic.Int64
}

// New builds a coordinator over the given shard base URLs (e.g.
// "http://10.0.0.1:8080"). Shards must host disjoint catalog shards;
// the merge double-counts nothing only because each candidate name
// lives on exactly one shard.
func New(shardURLs []string, opt Options) (*Coordinator, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard URL is required")
	}
	seen := make(map[string]bool, len(shardURLs))
	shards := make([]*shard, 0, len(shardURLs))
	for _, raw := range shardURLs {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard URL %q is not an http(s) base URL", raw)
		}
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate shard URL %q", base)
		}
		seen[base] = true
		shards = append(shards, newShard(base, opt))
	}
	c := &Coordinator{shards: shards, opt: opt, mux: http.NewServeMux(), maxBody: server.DefaultMaxBodyBytes}
	c.rank, c.batch = rankEndpoint(), batchEndpoint()
	c.mux.HandleFunc("POST /v1/rank", c.serveRank(c.rank))
	c.mux.HandleFunc("POST /v1/rank/batch", c.serveRank(c.batch))
	c.mux.HandleFunc("GET /v1/ls", c.handleLs)
	c.mux.HandleFunc("GET /v1/stats", c.handleStats)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// Shards returns the configured shard base URLs, in scatter order.
func (c *Coordinator) Shards() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.url
	}
	return out
}

// ServeHTTP implements http.Handler. Request bodies are capped as a
// single node caps them, so an oversized one is a 413 here too.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.maxBody)
	c.mux.ServeHTTP(w, r)
}

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests bounded by Options.ShutdownTimeout (zero means
// server.DefaultShutdownTimeout, negative waits unboundedly).
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.ServeListener(ctx, ln)
}

// ServeListener is ListenAndServe over an existing listener (which it
// takes ownership of) — the entry point when the caller needs the
// bound address, e.g. after listening on port 0.
func (c *Coordinator) ServeListener(ctx context.Context, ln net.Listener) error {
	return server.Serve(ctx, ln, c, server.Timeouts{
		Shutdown: c.opt.ShutdownTimeout, ReadHeader: c.opt.ReadHeaderTimeout,
		Read: c.opt.ReadTimeout, Write: c.opt.WriteTimeout, Idle: c.opt.IdleTimeout,
	})
}

// scatter issues the same request to every shard concurrently and
// returns one result per shard, in shard order. only, when non-nil,
// marks the shards to ask; the others' results stay zero.
func (c *Coordinator) scatter(ctx context.Context, method, pathAndQuery string, body []byte, only []bool) []shardResult {
	out := make([]shardResult, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		if only != nil && !only[i] {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			out[i] = sh.do(ctx, method, pathAndQuery, body, c.opt)
		}(i, sh)
	}
	wg.Wait()
	return out
}

// ShardStats are one shard's client-side counters, served under
// /v1/stats on the coordinator.
type ShardStats struct {
	URL string `json:"url"`
	// Requests counts scattered requests to this shard (retries of one
	// request count once).
	Requests int64 `json:"requests"`
	// Errors counts requests that ended in failure after retries —
	// transport errors and 5xx responses.
	Errors int64 `json:"errors"`
	// Retries counts individual retry attempts.
	Retries int64 `json:"retries"`
	// TotalLatencyNS accumulates end-to-end request latency, retries
	// and backoff included; MeanLatencyNS is TotalLatencyNS/Requests.
	TotalLatencyNS int64 `json:"total_latency_ns"`
	MeanLatencyNS  int64 `json:"mean_latency_ns"`
	// LastError is the most recent failure, empty if none.
	LastError string `json:"last_error,omitempty"`
}

// CoordinatorStats are the coordinator's own counters.
type CoordinatorStats struct {
	RankRequests  int64 `json:"rank_requests"`
	RankPartial   int64 `json:"rank_partial"`
	RankFailures  int64 `json:"rank_failures"`
	BatchRequests int64 `json:"batch_requests"`
	BatchPartial  int64 `json:"batch_partial"`
	BatchFailures int64 `json:"batch_failures"`
	// ResultNotModified counts client If-None-Match revalidations
	// answered 304.
	ResultNotModified int64 `json:"result_not_modified"`
	// The two-round scatter: queries that ran a seed round, round-2
	// requests sent, shards round 2 skipped (their seed bound under the
	// floor), and floored merges that came up short and were rerun.
	FloorQueries   int64 `json:"floor_queries"`
	Round2Requests int64 `json:"round2_requests"`
	Round2Skipped  int64 `json:"round2_skipped"`
	FloorFallbacks int64 `json:"floor_fallbacks"`
}

// StatsResponse is the body of GET /v1/stats on a coordinator.
type StatsResponse struct {
	Shards      []ShardStats     `json:"shards"`
	Coordinator CoordinatorStats `json:"coordinator"`
}

// Stats snapshots the coordinator's counters (also served at
// /v1/stats).
func (c *Coordinator) Stats() StatsResponse {
	resp := StatsResponse{
		Shards: make([]ShardStats, len(c.shards)),
		Coordinator: CoordinatorStats{
			RankRequests:      c.rank.requests.Load(),
			RankPartial:       c.rank.partial.Load(),
			RankFailures:      c.rank.failures.Load(),
			BatchRequests:     c.batch.requests.Load(),
			BatchPartial:      c.batch.partial.Load(),
			BatchFailures:     c.batch.failures.Load(),
			ResultNotModified: c.notModified.Load(),
			FloorQueries:      c.floorQueries.Load(),
			Round2Requests:    c.round2Requests.Load(),
			Round2Skipped:     c.round2Skipped.Load(),
			FloorFallbacks:    c.floorFallbacks.Load(),
		},
	}
	for i, sh := range c.shards {
		resp.Shards[i] = sh.stats()
	}
	return resp
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Stats())
}

// handleHealthz reports coordinator liveness plus a best-effort
// reachability probe of every shard (one attempt, no retries, bounded
// by the connect timeout — a health check must not hang).
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		URL string `json:"url"`
		OK  bool   `json:"ok"`
	}
	ctx, cancel := context.WithTimeout(r.Context(), server.Timeout(c.opt.ConnectTimeout, DefaultConnectTimeout))
	defer cancel()
	health := make([]shardHealth, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			res := sh.doOnce(ctx, http.MethodGet, "/healthz", nil, c.opt)
			health[i] = shardHealth{URL: sh.url, OK: res.err == nil && res.status == http.StatusOK}
		}(i, sh)
	}
	wg.Wait()
	server.WriteJSON(w, http.StatusOK, struct {
		OK     bool          `json:"ok"`
		Shards []shardHealth `json:"shards"`
	}{true, health})
}
