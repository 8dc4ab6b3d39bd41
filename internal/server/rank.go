package server

// POST /v1/rank and POST /v1/rank/batch: one serving path. A single
// rank is a batch of one train — same fence, digest, revalidation,
// cache, flight, admission and store pass — and differs
// from a batch only in how its body decodes, how its canonical digest
// is tagged, which counters it moves, and the shape of its response.
// Those differences are an endpoint value; serveRank and leadRank are
// the one handler and the one leader body. The decoded request fills one
// store.RankOptions, which is what is digested and what the store runs.
//
// A response body is the answer and nothing else: a pure function of the
// request and the store generation, so one strong ETag names one byte
// string whether the answer was computed, replayed from the result cache
// or shared by a flight. What a request experienced — the result cache's
// part, the ranking's wall time, admitted workers, plan reuse — is
// its Server-Timing header, written per request and never cached.
//
// An analyst sweeping many target columns over the same catalog sends
// them as one batch; the store then walks the corpus once with the
// key-overlap prefilter pruning dead pairs. Either endpoint is admitted
// through the same weighted semaphore, its worker fan-out clamped to
// the server bound, so one batch queues behind (and never starves)
// concurrent single queries.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"misketch/internal/core"
	"misketch/internal/store"
)

// MaxBatchTrains bounds how many train sketches one batch request may
// carry; larger sweeps should be split into multiple requests so the
// admission semaphore can interleave them with other traffic.
const MaxBatchTrains = 64

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
	// MinMI is a floor on the result: candidates whose exact MI is below
	// it are dropped before the top cut, and the cascade prunes under it.
	MinMI float64 `json:"min_mi,omitempty"`
	// Seed asks for a seed answer, round 1 of a cluster coordinator's
	// scatter: only the first top candidates in the cascade's cheap-score
	// order, scored exactly, plus seed_bound.
	Seed bool `json:"seed,omitempty"`
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
	// SeedBound, on a seed answer, is a certified upper bound on the exact
	// MI of every candidate it left unscored (-1: none was); absent when
	// nothing can be certified.
	SeedBound *float64 `json:"seed_bound,omitempty"`
}

// BatchTrainRef selects one train side of a batch rank request. Exactly
// one of Sketch and Train must be set, mirroring RankRequest.
type BatchTrainRef struct {
	// Name labels this query's slice of the response. Required for
	// inline sketches; defaults to the stored name for by-name trains.
	// Names must be unique within a batch.
	Name string `json:"name,omitempty"`
	// Sketch is the serialized train sketch, standard base64.
	Sketch string `json:"sketch,omitempty"`
	// Train names a stored sketch to use as the train side.
	Train string `json:"train,omitempty"`
	// MinMI is this train's result floor; see RankRequest.MinMI.
	MinMI float64 `json:"min_mi,omitempty"`
}

// RankBatchRequest is the body of POST /v1/rank/batch. The shared knobs
// (prefix, min_join, k, top, workers, no_cascade, seed) mean what they
// mean on /v1/rank and apply to every query in the batch.
type RankBatchRequest struct {
	Trains    []BatchTrainRef `json:"trains"`
	Prefix    string          `json:"prefix,omitempty"`
	MinJoin   *int            `json:"min_join,omitempty"`
	K         int             `json:"k,omitempty"`
	Top       int             `json:"top,omitempty"`
	Workers   int             `json:"workers,omitempty"`
	NoCascade bool            `json:"no_cascade,omitempty"`
	Seed      bool            `json:"seed,omitempty"`
}

// BatchQueryResponse is one train's slice of a RankBatchResponse.
type BatchQueryResponse struct {
	Name   string         `json:"name"`
	Ranked []RankedResult `json:"ranked"`
	// Pruned counts the candidates the key-overlap prefilter removed
	// for this train without running an estimator.
	Pruned int `json:"pruned"`
	// SeedBound is this train's RankResponse.SeedBound.
	SeedBound *float64 `json:"seed_bound,omitempty"`
}

// RankBatchResponse is the body of a successful POST /v1/rank/batch.
type RankBatchResponse struct {
	// Queries holds one result per requested train, in request order.
	Queries []BatchQueryResponse `json:"queries"`
	// Skipped lists prefix-matching stored sketches no query could join.
	Skipped []string `json:"skipped,omitempty"`
}

// decodeStrict parses body into v, rejecting unknown fields and
// trailing data; what names the request in the error.
func decodeStrict(body []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s request: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after %s request", what)
	}
	return nil
}

// validateKnobs range-checks the knobs both endpoints share and the
// batch form's per-train floors.
func (req *RankBatchRequest) validateKnobs() error {
	if req.K < 0 || req.Top < 0 || req.Workers < 0 {
		return fmt.Errorf("k, top, and workers must be non-negative")
	}
	if req.MinJoin != nil && *req.MinJoin < -1 {
		return fmt.Errorf("min_join must be >= -1")
	}
	for i := range req.Trains {
		// !(>= 0) also catches a NaN built outside a JSON decoder.
		if f := req.Trains[i].MinMI; !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("min_mi must be a finite non-negative number")
		}
	}
	return nil
}

// options is the request as the store runs it, and as it is digested:
// min_join unset is the paper's confidence filter, workers are clamped to
// the server bound, each train's floor is its MinMI, and the store
// resolves the defaults that are its own (k).
func (req *RankBatchRequest) options(maxWorkers int) (store.RankOptions, error) {
	opt := store.RankOptions{
		Prefix: req.Prefix, MinJoinSize: defaultMinJoin, K: req.K, TopK: req.Top, Workers: req.Workers,
		NoCascade: req.NoCascade, Seed: req.Seed, MinMI: make([]float64, len(req.Trains)),
	}
	if req.MinJoin != nil {
		opt.MinJoinSize = *req.MinJoin
	}
	if opt.Workers <= 0 || opt.Workers > maxWorkers {
		opt.Workers = maxWorkers
	}
	for i := range req.Trains {
		opt.MinMI[i] = req.Trains[i].MinMI + 0 // folds -0 into 0: one floor, one cache key
	}
	return opt.Resolve(len(req.Trains))
}

// singleTrain names a single rank's one train in its batch form. It is
// fixed, whether the train came inline or by name, so a by-name query and
// its inline equivalent are one batch body once the name is resolved.
const singleTrain = "train"

// asBatch is the request as the batch of one train it is served as.
func (req *RankRequest) asBatch() *RankBatchRequest {
	return &RankBatchRequest{
		Trains: []BatchTrainRef{{Name: singleTrain, Sketch: req.Sketch, Train: req.Train, MinMI: req.MinMI}},
		Prefix: req.Prefix, MinJoin: req.MinJoin, K: req.K, Top: req.Top, Workers: req.Workers,
		NoCascade: req.NoCascade, Seed: req.Seed,
	}
}

// AsSingle is a one-train batch response in /v1/rank's shape (which has
// no place for the train's name or its pruned count).
func (resp *RankBatchResponse) AsSingle() *RankResponse {
	return &RankResponse{Ranked: resp.Queries[0].Ranked, Skipped: resp.Skipped, SeedBound: resp.Queries[0].SeedBound}
}

// DecodeRankRequest parses and validates a rank request body into the
// batch of one train it is served as: a body DecodeRankBatchRequest
// accepts. Exported for the cluster coordinator, which validates a
// request once and asks every shard for it in the batch shape.
func DecodeRankRequest(body []byte) (*RankBatchRequest, error) {
	var req RankRequest
	if err := decodeStrict(body, &req, "rank"); err != nil {
		return nil, err
	}
	if (req.Sketch == "") == (req.Train == "") {
		return nil, fmt.Errorf("exactly one of \"sketch\" and \"train\" must be set")
	}
	batch := req.asBatch()
	if err := batch.validateKnobs(); err != nil {
		return nil, err
	}
	return batch, nil
}

// DecodeRankBatchRequest parses and validates a batch rank request
// body. Exported for the cluster coordinator, which validates a batch
// once before scattering it to every shard.
func DecodeRankBatchRequest(body []byte) (*RankBatchRequest, error) {
	var req RankBatchRequest
	if err := decodeStrict(body, &req, "batch rank"); err != nil {
		return nil, err
	}
	if len(req.Trains) == 0 {
		return nil, fmt.Errorf("\"trains\" must carry at least one train")
	}
	if len(req.Trains) > MaxBatchTrains {
		return nil, fmt.Errorf("batch carries %d trains, max %d", len(req.Trains), MaxBatchTrains)
	}
	seen := make(map[string]bool, len(req.Trains))
	for i := range req.Trains {
		tr := &req.Trains[i]
		if (tr.Sketch == "") == (tr.Train == "") {
			return nil, fmt.Errorf("trains[%d]: exactly one of \"sketch\" and \"train\" must be set", i)
		}
		if tr.Name == "" {
			if tr.Train == "" {
				return nil, fmt.Errorf("trains[%d]: inline sketches require a \"name\"", i)
			}
			tr.Name = tr.Train
		}
		if seen[tr.Name] {
			return nil, fmt.Errorf("trains[%d]: duplicate name %q", i, tr.Name)
		}
		seen[tr.Name] = true
	}
	if err := req.validateKnobs(); err != nil {
		return nil, err
	}
	return &req, nil
}

// endpoint is everything that differs between the two rank endpoints.
type endpoint struct {
	// requests and failures are the endpoint's /v1/stats counters.
	requests, failures atomic.Int64
	// what prefixes a failed ranking's error and tags the endpoint's
	// canonical digests, so a one-train batch and the same single query
	// never share a key.
	what string
	// decode parses and validates a body into the batch form.
	decode func(body []byte) (*RankBatchRequest, error)
	// label names train i in an error message.
	label func(i int, ref *BatchTrainRef) string
	// shape puts a finished ranking in the endpoint's response shape.
	shape func(resp *RankBatchResponse) any
}

func rankEndpoint() *endpoint {
	return &endpoint{
		what:   "rank",
		decode: DecodeRankRequest,
		label:  func(int, *BatchTrainRef) string { return "train sketch" },
		shape:  func(resp *RankBatchResponse) any { return resp.AsSingle() },
	}
}

func batchEndpoint() *endpoint {
	return &endpoint{
		what:   "rank batch",
		decode: DecodeRankBatchRequest,
		label: func(i int, ref *BatchTrainRef) string {
			return fmt.Sprintf("trains[%d] %q", i, ref.Name)
		},
		shape: func(resp *RankBatchResponse) any { return resp },
	}
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
func trainErrStatus(ref *BatchTrainRef, err error) int {
	if ref.Train == "" {
		return http.StatusBadRequest
	}
	if errors.Is(err, store.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// trainSketch resolves one train reference to (sketch, content digest).
// An inline sketch is digested from its uploaded bytes, a stored sketch
// from its serialization.
func (s *Server) trainSketch(ref *BatchTrainRef) (*core.Sketch, trainDigest, error) {
	if ref.Sketch != "" {
		raw, err := base64.StdEncoding.DecodeString(ref.Sketch)
		if err != nil {
			return nil, trainDigest{}, fmt.Errorf("decoding sketch base64: %w", err)
		}
		sk, err := core.ReadSketch(bytes.NewReader(raw))
		if err != nil {
			return nil, trainDigest{}, err
		}
		return sk, sha256.Sum256(raw), nil
	}
	sk, err := s.st.Get(ref.Train)
	if err != nil {
		return nil, trainDigest{}, err
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		return nil, trainDigest{}, err
	}
	return sk, sha256.Sum256(buf.Bytes()), nil
}

// serveRank is the handler of both rank endpoints.
func (s *Server) serveRank(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		fail := func(status int, format string, args ...any) {
			ep.failures.Add(1)
			HTTPError(w, status, format, args...)
		}
		body, err := ReadBody(r)
		if err != nil {
			fail(BodyErrStatus(err), "reading body: %v", err)
			return
		}
		req, err := ep.decode(body)
		if err != nil {
			fail(http.StatusBadRequest, "%v", err)
			return
		}
		// The cache fence: read the generation before resolving any train
		// or snapshotting the manifest, so an entry keyed by it can only
		// ever reflect this generation or a newer one — never a stale
		// one, and never fresher data than the snapshot the computation
		// will see.
		gen := s.st.Gen()

		// Resolve every train before admission, so a queued request holds
		// no capacity while its sketches decode.
		trains := make([]*core.Sketch, len(req.Trains))
		digests := make([]trainDigest, len(req.Trains))
		names := make([]string, len(req.Trains))
		opt, err := req.options(s.opt.MaxWorkers)
		if err != nil {
			fail(http.StatusBadRequest, "%v", err)
			return
		}
		for i := range req.Trains {
			ref := &req.Trains[i]
			train, digest, err := s.trainSketch(ref)
			if err != nil {
				fail(trainErrStatus(ref, err), "%s: %v", ep.label(i, ref), err)
				return
			}
			if train.Role != core.RoleTrain {
				fail(http.StatusBadRequest, "%s: role is %d, want train", ep.label(i, ref), train.Role)
				return
			}
			if i > 0 && train.Seed != trains[0].Seed {
				fail(http.StatusBadRequest,
					"%s: seed %#x differs from trains[0]'s %#x (a batch shares one candidate filter)",
					ep.label(i, ref), train.Seed, trains[0].Seed)
				return
			}
			trains[i], digests[i], names[i] = train, digest, ref.Name
		}

		canon := canonicalDigest(ep.what, names, digests, opt)
		key := cacheKey{digest: canon, gen: gen}
		etag := etagFor(s.epoch, canon, gen)
		// Revalidation needs no ranking, no cache, and no semaphore: the
		// ETag is a pure function of (epoch, canonical request, generation).
		if ETagMatches(r.Header.Get("If-None-Match"), etag) {
			s.notModified.Add(1)
			WriteNotModified(w, etag)
			return
		}
		if cached, ok := s.results.Get(key); ok {
			setServerTiming(w, "hit", "")
			Outcome{Status: http.StatusOK, ETag: etag, Body: cached}.Write(w)
			return
		}

		// Miss: coalesce concurrent identical queries into one computation.
		f, leader, release := s.flights.Join(r.Context(), key)
		defer release()
		if !leader {
			select {
			case <-f.Done():
				if f.Result().Status != http.StatusOK {
					ep.failures.Add(1)
				}
				setServerTiming(w, "coalesced", "")
				f.Result().Write(w)
			case <-r.Context().Done():
				s.rankRejected.Add(1)
				HTTPError(w, http.StatusServiceUnavailable, "%v", errCoalescedCancel)
			}
			return
		}

		out, measured := s.leadRank(f.Context(), ep, req, trains, opt)
		if out.Status == http.StatusOK {
			out.ETag = etag
			if s.results.SeenBefore(cacheKey{digest: canon, gen: seenGen}, nil, cacheEntryOverhead) {
				s.cacheResult(key, out.Body, int64(len(out.Body)+len(etag))+cacheEntryOverhead)
			}
		}
		s.flights.Finish(key, f, out)
		setServerTiming(w, "miss", measured)
		out.Write(w)
	}
}

// setServerTiming sets the Server-Timing header of a rank response,
// which carries what this request experienced and no body or cache ever
// does: cache is the result cache's part (hit, coalesced or miss) and
// measured, when not empty, the metrics of the computation a miss ran.
func setServerTiming(w http.ResponseWriter, cache, measured string) {
	v := "cache;desc=" + cache
	if measured != "" {
		v += ", " + measured
	}
	w.Header().Set("Server-Timing", v)
}

// leadRank is the flight leader's body: semaphore admission, the store
// ranking, and JSON encoding — once: the caller that paid the
// computation, the result cache and every coalesced waiter get the same
// bytes. The string is the Server-Timing of what this computation
// experienced, the leader's alone; empty when it failed.
func (s *Server) leadRank(ctx context.Context, ep *endpoint, req *RankBatchRequest, trains []*core.Sketch, opt store.RankOptions) (Outcome, string) {
	failed := func(status int, format string, args ...any) (Outcome, string) {
		return Outcome{Status: status, Body: EncodeJSON(ErrorResponse{Error: fmt.Sprintf(format, args...)})}, ""
	}
	if err := s.sem.acquire(ctx, opt.Workers); err != nil {
		// Every interested client went away while queued; the waiter is
		// already unlinked, so its slots were never held. Counted as a
		// rejection only: the clients left before capacity freed, which
		// is not the endpoint's failure.
		s.rankRejected.Add(1)
		return failed(http.StatusServiceUnavailable, "cancelled while queued for capacity: %v", err)
	}
	defer s.sem.release(opt.Workers)

	started := time.Now()
	res, err := s.st.RankBatch(ctx, trains, opt)
	elapsed := time.Since(started)
	if err != nil {
		ep.failures.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		return failed(status, "%s: %v", ep.what, err)
	}
	resp := &RankBatchResponse{Queries: make([]BatchQueryResponse, len(res.Queries)), Skipped: res.Skipped}
	for q, qr := range res.Queries {
		out := BatchQueryResponse{
			Name:   req.Trains[q].Name,
			Ranked: make([]RankedResult, len(qr.Ranked)),
			Pruned: qr.Pruned,
		}
		if opt.Seed && !math.IsInf(qr.SeedBound, 1) {
			out.SeedBound = &res.Queries[q].SeedBound
		}
		for i, rs := range qr.Ranked {
			out.Ranked[i] = RankedResult{
				Name: rs.Name, MI: rs.MI, Estimator: string(rs.Estimator), JoinSize: rs.JoinSize,
			}
		}
		resp.Queries[q] = out
	}
	measured := fmt.Sprintf(`rank;dur=%.3f, workers;desc=%d`, float64(elapsed)/float64(time.Millisecond), opt.Workers)
	return Outcome{Status: http.StatusOK, Body: EncodeJSON(ep.shape(resp))}, measured + traceTiming(&res.RankTrace)
}

// traceTiming is the Server-Timing entries of a rank's trace: the catalog
// view it rebuilt, if it did; unless a plan hit skipped phase 1, the
// candidates phase 1 answered without a load of those it visited; and for
// a cascaded rank, whether phase 1 was reused and what phase 2 remembered.
func traceTiming(t *store.RankTrace) string {
	var b []byte
	if t.ViewBuild > 0 {
		b = fmt.Appendf(b, ", view;dur=%.3f", float64(t.ViewBuild)/float64(time.Millisecond))
	}
	if t.PlanHits == 0 {
		b = fmt.Appendf(b, `, phase1;desc="%d/%d"`, t.SideHits, t.Visited)
	}
	// A call that looked for a plan counts one hit or one miss.
	if plan := [...]string{"", "miss", "hit"}[min(t.PlanMisses+2*t.PlanHits, 2)]; plan != "" {
		b = fmt.Appendf(b, `, plan;desc=%s, exact;desc="%d/%d"`, plan, t.ExactMemoHits, t.CascadeExact)
	}
	return string(b)
}
