package cluster

// Scatter-gather ranking. The coordinator validates a request once,
// resolves by-name trains to inline sketch bytes (a stored train lives
// on exactly one shard; the others must still rank against it), fans
// the request out to every shard, and merges the per-shard rows under
// the store's total order — MI descending, name ascending on ties — so
// the merged top-K is bit-identical to a single node ranking the union
// catalog.
//
// /v1/rank and /v1/rank/batch run the same code, and every shard is
// asked in one shape: POST /v1/rank/batch. A single rank decodes into
// the server's own one-train batch form (its train under a fixed name),
// so there is one wire body going out and one answer shape coming back
// whichever endpoint the client called. What differs — how the client's
// body decodes, the merged response's shape going out, the digest tag
// and the counters — is an endpoint value; prep, scatterMerge and
// serveRank are written once.
//
// The coordinator keeps no results. A repeated query scatters again, and
// each shard's own generation-fenced result cache answers it (and
// coalesces concurrent copies of it): the cache sits on the node that
// computes the answer and knows when its catalog moved. The coordinator's
// ETag is a content hash of the request digest and every shard's ETag, in
// shard order. Each shard ETag carries its process epoch and generation,
// so the coordinator's changes exactly when some shard's answer may have,
// survives a coordinator restart, and lets a client revalidate with
// If-None-Match. A partial answer carries none: it is not a pure function
// of the request.

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"misketch/internal/server"
)

// Request aliases: a coordinator accepts exactly the single-node
// request bodies.
type (
	RankRequest      = server.RankRequest
	RankBatchRequest = server.RankBatchRequest
)

// shardRankPath is the one rank endpoint a coordinator asks its shards.
const shardRankPath = "/v1/rank/batch"

// endpoint is everything that differs between the two rank endpoints.
type endpoint struct {
	// what tags the endpoint's request digests — a single rank and a
	// one-train batch can scatter the same body but answer in different
	// shapes — and prefixes an every-shard-failed error.
	what string
	// requests, partial and failures are the /v1/stats counters.
	requests, partial, failures atomic.Int64
	// decode parses and validates a request body into the batch form
	// the shards are asked in.
	decode func(body []byte) (*server.RankBatchRequest, error)
	// respond shapes m, the merge of the answered shards' answers after
	// the top-K cut, as the endpoint's response; lost lists the shards
	// that did not contribute (none on a full answer).
	respond func(m *server.RankBatchResponse, lost []ShardError) any
}

// scatterRequest is a decoded request of either endpoint.
type scatterRequest struct {
	// wire is the request as the shards take it; it is re-marshaled
	// after by-name trains are inlined, so JSON field order and spelling
	// cannot change the coordinator's ETag, and encode rewrites its seed
	// flag and floors between the rounds.
	wire   *server.RankBatchRequest
	seeded bool      // the query runs a seed round
	own    []float64 // the floors the request came with

	// canon and digest are set by prep: the canonical body and its
	// digest, which the coordinator's ETag hashes.
	canon  []byte
	digest [sha256.Size]byte
}

func rankEndpoint() *endpoint {
	return &endpoint{
		what: "rank", decode: server.DecodeRankRequest,
		respond: func(m *server.RankBatchResponse, lost []ShardError) any {
			return &RankResponse{RankResponse: *m.AsSingle(), Partial: len(lost) > 0, ShardErrors: lost}
		},
	}
}

func batchEndpoint() *endpoint {
	return &endpoint{
		what: "rank batch", decode: server.DecodeRankBatchRequest,
		respond: func(m *server.RankBatchResponse, lost []ShardError) any {
			return &RankBatchResponse{RankBatchResponse: *m, Partial: len(lost) > 0, ShardErrors: lost}
		},
	}
}

// Rank scatters one rank query to every shard and merges the answers.
// It returns a *ClusterError when the request is invalid or no shard
// could answer; a degraded answer (some shards lost) is not an error —
// inspect Partial and ShardErrors.
func (c *Coordinator) Rank(ctx context.Context, req RankRequest) (*RankResponse, error) {
	return query[RankResponse](ctx, c, c.rank, req)
}

// RankBatch scatters one batch rank query to every shard and merges
// the answers; error and sharing semantics mirror Rank.
func (c *Coordinator) RankBatch(ctx context.Context, req RankBatchRequest) (*RankBatchResponse, error) {
	return query[RankBatchResponse](ctx, c, c.batch, req)
}

// query is the programmatic entry of both endpoints; R is the response
// type ep.respond builds.
func query[R any](ctx context.Context, c *Coordinator, ep *endpoint, req any) (*R, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	ep.requests.Add(1)
	sreq, cerr := c.prep(ctx, ep, body)
	if cerr != nil {
		ep.failures.Add(1)
		return nil, cerr
	}
	out, cerr := c.scatterMerge(ctx, ep, sreq)
	if cerr != nil {
		return nil, cerr
	}
	resp := new(R)
	if err := json.Unmarshal(out.Body, resp); err != nil {
		return nil, &ClusterError{StatusCode: http.StatusInternalServerError, Message: err.Error()}
	}
	return resp, nil
}

// prep turns a raw request body into its canonical scattered form:
// decoded, by-name trains resolved to inline sketches, re-marshaled,
// and digested for the ETag.
func (c *Coordinator) prep(ctx context.Context, ep *endpoint, body []byte) (*scatterRequest, *ClusterError) {
	wire, err := ep.decode(body)
	if err != nil {
		return nil, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	req := &scatterRequest{wire: wire}
	for i := range wire.Trains {
		tr := &wire.Trains[i]
		if tr.Train != "" {
			sketch, cerr := c.resolveTrain(ctx, tr.Train)
			if cerr != nil {
				return nil, cerr
			}
			tr.Train, tr.Sketch = "", sketch
		}
		req.own = append(req.own, tr.MinMI)
	}
	// A seed round pays when there is a floor to find — a top-K cut the
	// cascade prunes under — and more than one shard to carry it to.
	req.seeded = !wire.NoCascade && wire.Top > 0 && len(c.shards) > 1
	if req.canon, err = req.encode(req.seeded, req.own); err != nil {
		return nil, &ClusterError{StatusCode: http.StatusInternalServerError, Message: err.Error()}
	}
	req.digest = requestDigest(ep.what, req.canon)
	return req, nil
}

// encode marshals the request as the shards take it, under the given
// seed flag and per-train floors.
func (r *scatterRequest) encode(seed bool, floors []float64) ([]byte, error) {
	r.wire.Seed = seed
	for q, f := range floors {
		r.wire.Trains[q].MinMI = f
	}
	return json.Marshal(r.wire)
}

// scatterMerge runs the scatter-merge, in the package comment's two
// rounds when the query is seeded. Round 1 is the request as prep
// canonicalized it; round 2 depends on every shard's seeds. Skipped and
// pruned are round 1's, whose phase 1 computes them in full. The
// outcome's ETag is "" when the answer is partial or a shard sent none.
// The body is the answer alone — what the shards' own requests
// experienced stays in their Server-Timing headers — so one ETag is one
// byte string here too.
func (c *Coordinator) scatterMerge(ctx context.Context, ep *endpoint, req *scatterRequest) (server.Outcome, *ClusterError) {
	n := len(c.shards)
	results := c.scatter(ctx, http.MethodPost, shardRankPath, req.canon, nil)
	var lost []ShardError
	// answer decodes one shard's 200, which must answer every train;
	// anything else loses the shard.
	answer := func(r shardResult) *server.RankBatchResponse {
		if r.err != nil || r.status != http.StatusOK {
			lost = append(lost, r.shardError())
			return nil
		}
		var sr server.RankBatchResponse
		err := json.Unmarshal(r.body, &sr)
		if err == nil && len(sr.Queries) != len(req.wire.Trains) {
			err = fmt.Errorf("%d queries answered for %d trains", len(sr.Queries), len(req.wire.Trains))
		}
		if err != nil {
			lost = append(lost, ShardError{Shard: r.shard.url, Error: "undecodable response: " + err.Error()})
			return nil
		}
		return &sr
	}
	// first[i] is shard i's round-1 answer, nil once the shard is lost; a
	// round-2 answer replaces its ranked rows and nothing else.
	first := make([]*server.RankBatchResponse, n)
	tags := make([]string, n)
	for i, r := range results {
		first[i], tags[i] = answer(r), r.etag
	}
	floors := req.own
	// round2 asks the shards still answering — all of them, or those
	// whose seed bound reaches the floor — for their rows under floors.
	round2 := func(all bool) {
		only := make([]bool, n)
		for i, sr := range first {
			if only[i] = sr != nil && (all || reaches(sr, floors)); sr != nil && !only[i] {
				c.round2Skipped.Add(1)
			}
		}
		body, _ := req.encode(false, floors) // prep marshaled it; only floats moved
		for i, r := range c.scatter(ctx, http.MethodPost, shardRankPath, body, only) {
			if !only[i] {
				continue
			}
			c.round2Requests.Add(1)
			if sr := answer(r); sr == nil {
				first[i] = nil
			} else {
				for q := range sr.Queries {
					first[i].Queries[q].Ranked = sr.Queries[q].Ranked
				}
			}
		}
	}
	// gather merges the answers in hand into m. Every shard answers in
	// request order, so query q's rows at or above its floor concatenate
	// across shards. Shards are meant to be disjoint; a candidate two of
	// them return keeps its better-ranked row and is reported in dups. It
	// reports a raised floor leaving a query short of K.
	var m *server.RankBatchResponse
	var answered int
	var dups []ShardError
	gather := func() (short bool) {
		m = &server.RankBatchResponse{Queries: make([]server.BatchQueryResponse, len(req.wire.Trains))}
		answered, dups = 0, nil
		from := make([]map[string][2]int, len(m.Queries)) // per query, by name: a row's shard and index
		for q := range m.Queries {
			m.Queries[q] = server.BatchQueryResponse{Name: req.wire.Trains[q].Name, Ranked: []server.RankedResult{}}
			from[q] = map[string][2]int{}
		}
		for i, sr := range first {
			if sr == nil {
				continue
			}
			answered++
			for q := range sr.Queries {
				m.Queries[q].Pruned += sr.Queries[q].Pruned
				for _, row := range sr.Queries[q].Ranked {
					rows := m.Queries[q].Ranked
					if at, ok := from[q][row.Name]; ok && row.MI >= floors[q] {
						if se := (ShardError{Shard: c.shards[i].url, Error: fmt.Sprintf("candidate %q is also on shard %s", row.Name, c.shards[at[0]].url)}); !slices.Contains(dups, se) {
							dups = append(dups, se)
						}
						if row.MI > rows[at[1]].MI {
							rows[at[1]] = row
						}
					} else if row.MI >= floors[q] {
						from[q][row.Name] = [2]int{i, len(rows)}
						m.Queries[q].Ranked = append(rows, row)
					}
				}
			}
			m.Skipped = append(m.Skipped, sr.Skipped...)
		}
		for q := range m.Queries {
			sortRanked(m.Queries[q].Ranked)
			short = short || len(m.Queries[q].Ranked) < req.wire.Top && floors[q] > req.own[q]
		}
		return short
	}
	gather()
	if req.seeded {
		c.floorQueries.Add(1)
		// A train's floor is the K-th best of all its seed scores; with
		// fewer than K seeds it keeps its own.
		floors = slices.Clone(req.own)
		for q := range m.Queries {
			if r := m.Queries[q].Ranked; len(r) >= req.wire.Top {
				floors[q] = r[req.wire.Top-1].MI
			}
		}
		round2(false)
		if gather() {
			c.floorFallbacks.Add(1)
			floors = req.own
			round2(true)
			gather()
		}
	}
	if answered == 0 {
		ep.failures.Add(1)
		return server.Outcome{}, allShardsFailed(ep.what, lost)
	}
	// Every shard either answered or is in lost, and a candidate two shards
	// returned makes the answer partial too, so lost is non-empty exactly
	// on a partial answer, which is never ETagged.
	if lost = append(lost, dups...); len(lost) > 0 {
		ep.partial.Add(1)
	}
	for q := range m.Queries {
		if r := m.Queries[q].Ranked; req.wire.Top > 0 && len(r) > req.wire.Top {
			m.Queries[q].Ranked = r[:req.wire.Top]
		}
	}
	slices.Sort(m.Skipped)
	m.Skipped = slices.Compact(m.Skipped)
	out := server.Outcome{Status: http.StatusOK, Body: server.EncodeJSON(ep.respond(m, lost))}
	// Without an ETag from every shard the coordinator cannot vouch for
	// content stability and emits none.
	if len(lost) == 0 && !slices.Contains(tags, "") {
		out.ETag = coordEtagFor(req.digest, tags)
	}
	return out, nil
}

// requestDigest hashes a scattered request for the coordinator's ETag: a
// tag separating the endpoints plus the canonical (decoded and
// re-marshaled) body.
func requestDigest(tag string, canonicalBody []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
	h.Write(n[:])
	h.Write([]byte(tag))
	h.Write(canonicalBody)
	return [sha256.Size]byte(h.Sum(nil))
}

// coordEtagFor derives the coordinator's ETag for a fully-answered
// request: a content hash of the request digest and every shard's ETag,
// in shard order.
func coordEtagFor(digest [sha256.Size]byte, shardTags []string) string {
	h := sha256.New()
	h.Write([]byte("cluster"))
	h.Write(digest[:])
	var n [8]byte
	for _, tag := range shardTags {
		binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
		h.Write(n[:])
		h.Write([]byte(tag))
	}
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// reaches reports whether a seed answer leaves its shard anything a
// floor admits: on some train it has no bound, or one at or above it.
func reaches(sr *server.RankBatchResponse, floors []float64) bool {
	for q, f := range floors {
		if b := sr.Queries[q].SeedBound; b == nil || *b >= f {
			return true
		}
	}
	return false
}

// resolveTrain locates a stored train by name: scatter GET /v1/get, the
// owning shard answers with the serialized sketch, and the coordinator
// inlines it (base64) so every shard can rank against it. The 404/500
// split is load-bearing: only a unanimous 404 proves the name exists
// nowhere; a sick shard (5xx, unreachable) could be the owner, so the
// resolution fails 502 rather than inventing a 404.
func (c *Coordinator) resolveTrain(ctx context.Context, name string) (string, *ClusterError) {
	results := c.scatter(ctx, http.MethodGet, "/v1/get?name="+url.QueryEscape(name), nil, nil)
	notFound := 0
	var serrs []ShardError
	for _, r := range results {
		if r.err == nil && r.status == http.StatusOK {
			return base64.StdEncoding.EncodeToString(r.body), nil
		}
		if r.err == nil && r.status == http.StatusNotFound {
			notFound++
			continue
		}
		serrs = append(serrs, r.shardError())
	}
	if notFound == len(results) {
		return "", &ClusterError{
			StatusCode: http.StatusNotFound,
			Message:    "no shard stores sketch \"" + name + "\"",
		}
	}
	return "", &ClusterError{
		StatusCode: http.StatusBadGateway,
		Message:    "train \"" + name + "\" could not be resolved: not on any healthy shard, and some shards failed",
		Shards:     serrs,
	}
}

// allShardsFailed classifies a query with zero successful shards. When
// every shard agreed on the same client-error status the request itself
// is at fault and the coordinator forwards that status (e.g. a 400 seed
// mismatch); any disagreement or server-side failure is a 502.
func allShardsFailed(what string, serrs []ShardError) *ClusterError {
	status := 0
	uniform := true
	for _, se := range serrs {
		if se.Status < 400 || se.Status >= 500 {
			uniform = false
			break
		}
		if status == 0 {
			status = se.Status
		} else if se.Status != status {
			uniform = false
			break
		}
	}
	ce := &ClusterError{StatusCode: http.StatusBadGateway, Message: what + ": every shard failed", Shards: serrs}
	if uniform && status != 0 {
		ce.StatusCode = status
		ce.Message = what + ": " + serrs[0].Error
	}
	return ce
}

// sortRanked sorts the concatenated per-shard rankings under the
// store's total order. Once gather drops a name two shards returned,
// names are unique and (MI desc, name asc) is total — the merge is deterministic and, cut at
// top, bit-identical to a single-node rank over the union catalog.
func sortRanked(in []server.RankedResult) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].MI != in[j].MI {
			return in[i].MI > in[j].MI
		}
		return in[i].Name < in[j].Name
	})
}

// serveRank is the handler of both rank endpoints.
func (c *Coordinator) serveRank(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := server.ReadBody(r)
		if err != nil {
			server.HTTPError(w, server.BodyErrStatus(err), "reading body: %v", err)
			return
		}
		ep.requests.Add(1)
		req, cerr := c.prep(r.Context(), ep, body)
		if cerr != nil {
			ep.failures.Add(1)
			errorOutcome(cerr).Write(w)
			return
		}
		started := time.Now()
		out, cerr := c.scatterMerge(r.Context(), ep, req)
		if cerr != nil {
			out = errorOutcome(cerr)
		}
		w.Header().Set("Server-Timing", fmt.Sprintf("rank;dur=%.3f", float64(time.Since(started))/float64(time.Millisecond)))
		if out.ETag != "" && server.ETagMatches(r.Header.Get("If-None-Match"), out.ETag) {
			c.notModified.Add(1)
			server.WriteNotModified(w, out.ETag)
			return
		}
		out.Write(w)
	}
}

// errorOutcome maps a query failure onto the wire: the ClusterError's
// status and message, with the per-shard failures attached so the
// operator sees which replicas are sick.
func errorOutcome(ce *ClusterError) server.Outcome {
	return server.Outcome{Status: ce.StatusCode, Body: server.EncodeJSON(struct {
		Error       string       `json:"error"`
		ShardErrors []ShardError `json:"shard_errors,omitempty"`
	}{ce.Message, ce.Shards})}
}

// handleLs merges the shard manifests into one listing, sorted by name.
func (c *Coordinator) handleLs(w http.ResponseWriter, r *http.Request) {
	pathAndQuery := "/v1/ls"
	if prefix := r.URL.Query().Get("prefix"); prefix != "" {
		pathAndQuery += "?prefix=" + url.QueryEscape(prefix)
	}
	results := c.scatter(r.Context(), http.MethodGet, pathAndQuery, nil, nil)
	resp := LsResponse{LsResponse: server.LsResponse{Sketches: []server.MetaResult{}}}
	answered := 0
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			resp.ShardErrors = append(resp.ShardErrors, res.shardError())
			continue
		}
		var sr server.LsResponse
		if err := json.Unmarshal(res.body, &sr); err != nil {
			resp.ShardErrors = append(resp.ShardErrors, ShardError{Shard: res.shard.url, Error: "undecodable response: " + err.Error()})
			continue
		}
		answered++
		resp.Sketches = append(resp.Sketches, sr.Sketches...)
	}
	if answered == 0 {
		errorOutcome(allShardsFailed("ls", resp.ShardErrors)).Write(w)
		return
	}
	resp.Partial = answered < len(results)
	if !resp.Partial {
		resp.ShardErrors = nil
	}
	sort.Slice(resp.Sketches, func(i, j int) bool { return resp.Sketches[i].Name < resp.Sketches[j].Name })
	resp.Count = len(resp.Sketches)
	server.WriteJSON(w, http.StatusOK, resp)
}
