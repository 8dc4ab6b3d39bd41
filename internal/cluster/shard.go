package cluster

// The per-shard HTTP client: its own connection pool (a slow shard
// must not starve another shard's connections), connect and per-attempt
// request timeouts, bounded retry-with-backoff on transient failures,
// and the counters /v1/stats reports per shard.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"misketch/internal/server"
)

// shard is the coordinator's handle on one replica.
type shard struct {
	url    string
	client *http.Client
	// maxResponse is maxShardResponse (a field only so tests can lower it).
	maxResponse int64

	requests  atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	latencyNS atomic.Int64
	lastErr   atomic.Value // string
}

func newShard(baseURL string, opt Options) *shard {
	dialer := &net.Dialer{Timeout: server.Timeout(opt.ConnectTimeout, DefaultConnectTimeout)}
	return &shard{
		url: baseURL, maxResponse: maxShardResponse,
		client: &http.Client{
			Transport: &http.Transport{
				DialContext:         dialer.DialContext,
				MaxIdleConns:        32,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// shardResult is one shard's answer to a scattered request.
type shardResult struct {
	shard  *shard
	status int
	body   []byte
	// etag is the shard's ETag header, when it sent one; the
	// coordinator's own ETag is built from every shard's.
	etag string
	// err is a transport-level failure (dial, timeout, broken
	// connection) that survived the retry budget; status and body are
	// meaningless when set.
	err error
}

// transient reports whether the result should be retried: transport
// errors (the shard may be restarting) and 502/503/504 (a proxy or an
// overloaded replica shedding load). Authoritative answers — 2xx, 4xx,
// and a plain 500 — are never retried: they would return the same
// answer, and a 500 from a corrupt record must surface, not burn the
// retry budget.
func (r shardResult) transient() bool {
	if r.err != nil {
		return !errors.Is(r.err, errTooLong)
	}
	switch r.status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do issues one request to the shard, retrying transient failures with
// exponential backoff up to the Options budget. The context bounds the
// whole exchange including backoff waits; each attempt additionally
// gets its own RequestTimeout. A non-nil body is a JSON rank request.
func (s *shard) do(ctx context.Context, method, pathAndQuery string, body []byte, opt Options) shardResult {
	s.requests.Add(1)
	started := time.Now()
	backoff := server.Timeout(opt.RetryBackoff, DefaultRetryBackoff)
	attempts := retryBudget(opt.Retries) + 1
	var res shardResult
	for attempt := 0; ; attempt++ {
		res = s.doOnce(ctx, method, pathAndQuery, body, opt)
		if !res.transient() || attempt+1 >= attempts || ctx.Err() != nil {
			break
		}
		s.retries.Add(1)
		if backoff > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(backoff << attempt):
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	s.latencyNS.Add(time.Since(started).Nanoseconds())
	if res.err != nil {
		s.errors.Add(1)
		s.lastErr.Store(res.err.Error())
	} else if res.status >= 500 {
		s.errors.Add(1)
		s.lastErr.Store(fmt.Sprintf("status %d: %s", res.status, errBody(res.body)))
	}
	return res
}

// maxShardResponse caps one shard response, so a sick or lying shard
// cannot make the coordinator buffer without bound. It is the request
// cap: a shard holds no sketch larger than it accepts.
const maxShardResponse = server.DefaultMaxBodyBytes

// errTooLong fails a response over the cap; a retry would draw the same.
var errTooLong = errors.New("response exceeds the shard response cap")

// doOnce is a single attempt: one request, one response, body fully
// read so the connection returns to the pool.
func (s *shard) doOnce(ctx context.Context, method, pathAndQuery string, body []byte, opt Options) shardResult {
	if d := server.Timeout(opt.RequestTimeout, DefaultRequestTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+pathAndQuery, rd)
	if err != nil {
		return shardResult{shard: s, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return shardResult{shard: s, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, s.maxResponse+1))
	if err == nil && int64(len(b)) > s.maxResponse {
		err = errTooLong
	}
	if err != nil {
		return shardResult{shard: s, err: fmt.Errorf("reading response: %w", err)}
	}
	return shardResult{shard: s, status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag")}
}

func (s *shard) stats() ShardStats {
	st := ShardStats{
		URL:            s.url,
		Requests:       s.requests.Load(),
		Errors:         s.errors.Load(),
		Retries:        s.retries.Load(),
		TotalLatencyNS: s.latencyNS.Load(),
	}
	if st.Requests > 0 {
		st.MeanLatencyNS = st.TotalLatencyNS / st.Requests
	}
	if v, ok := s.lastErr.Load().(string); ok {
		st.LastError = v
	}
	return st
}

// shardError converts a failed shardResult into its wire form.
func (r shardResult) shardError() ShardError {
	se := ShardError{Shard: r.shard.url, Status: r.status}
	if r.err != nil {
		se.Error = r.err.Error()
	} else {
		se.Error = errBody(r.body)
	}
	return se
}

// errBody extracts the error message from a shard's JSON error
// response, falling back to the (truncated) raw body.
func errBody(body []byte) string {
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return er.Error
	}
	const max = 200
	s := string(body)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
