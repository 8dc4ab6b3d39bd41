package cluster

// Failure paths of the two-round scatter, and what each one shows the
// caller: a shard lost in round 1 is one shard_errors row and is not
// asked again; a catalog that moves between the rounds is caught by the
// short merge and answered without the floor; a catalog that moves on one
// shard between two queries is answered afresh there while the other
// shards' caches serve theirs; a shard that streams past the response
// cap, or answers 200 with a body that does not decode to one answer per
// train, is a lost shard, never a buffered or a believed one.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/server"
	"misketch/internal/store"
)

// cohortOnShard0 deals the planted cohort to shard 0 and everything else
// round-robin: the benchmark's placement.
func cohortOnShard0(i int, c placed) int {
	if c.strong {
		return 0
	}
	return i
}

// topK is a top-K /v1/rank request over the matrix corpus.
func topK(t testing.TB, mc matrixCorpus, top int) RankRequest {
	mj := matrixMinJoin
	return RankRequest{Sketch: sketchBase64(t, mc.trains[0]), Prefix: matrixPrefix, MinJoin: &mj, K: 3, Top: top}
}

// unionRows is the single-node exact full walk the answers are held to.
func (cl *matrixCluster) unionRows(t testing.TB, mc matrixCorpus, top int) []store.RankedSketch {
	t.Helper()
	rows, _, err := cl.union.RankQuery(context.Background(), mc.trains[0], store.RankOptions{
		Prefix: matrixPrefix, MinJoinSize: matrixMinJoin, K: 3, TopK: top, NoCascade: true, NoIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func shardRequests(c *Coordinator) (total int64) {
	for _, sh := range c.Stats().Shards {
		total += sh.Requests
	}
	return total
}

// TestClusterShardLostInRound1: the dead shard costs one request, one
// retry budget and one shard_errors row — round 2 does not ask it again.
func TestClusterShardLostInRound1(t *testing.T) {
	mc := cohortCorpus(t)
	cl := newMatrixCluster(t, mc, 3, cohortOnShard0, Options{})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, err := New([]string{cl.urls[0], dead.URL, cl.urls[2]}, Options{Retries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Rank(context.Background(), topK(t, mc, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != dead.URL {
		t.Fatalf("partial %v, shard errors %+v: want one row for %s", resp.Partial, resp.ShardErrors, dead.URL)
	}
	st := c.Stats()
	if sh := st.Shards[1]; sh.Requests != 1 || sh.Retries != 1 || sh.Errors != 1 {
		t.Fatalf("dead shard: %d requests, %d retries, %d errors; want 1 of each", sh.Requests, sh.Retries, sh.Errors)
	}
	// The cohort's shard still got its round 2, and the five cohort rows
	// it holds are the answer.
	if st.Coordinator.FloorQueries != 1 || st.Coordinator.Round2Requests == 0 || st.Shards[0].Requests != 2 {
		t.Fatalf("two-round counters %+v, cohort shard requests %d", st.Coordinator, st.Shards[0].Requests)
	}
	for _, row := range resp.Ranked {
		if !strings.HasPrefix(row.Name, matrixPrefix+"cohort-") {
			t.Fatalf("row %+v is not of the cohort", row)
		}
	}
}

// betweenRounds fronts a shard's handler and calls hook after the shard
// has answered a seed request and before that answer leaves — the
// instant between the coordinator's two rounds.
func betweenRounds(t testing.TB, shard http.Handler, hook func()) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, r)
		if bytes.Contains(body, []byte(`"seed":true`)) {
			hook()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterDeleteBetweenRounds: seed candidates deleted after round 1
// leave the floored merge short; the rerun without the floor fires, and
// the answer is the single-node rank of the catalog after the deletes.
func TestClusterDeleteBetweenRounds(t *testing.T) {
	mc := cohortCorpus(t)
	cl := newMatrixCluster(t, mc, 3, cohortOnShard0, Options{})
	// Top 5 of a cohort of six on shard 0: five of them are its seeds, the
	// floor is the weakest seed's score, and the sixth keeps shard 0 in
	// round 2. With the two strongest gone at most four candidates reach
	// the floor, whatever the sixth scores.
	victims := []string{matrixPrefix + "cohort-00", matrixPrefix + "cohort-02"}
	var armed, deleted atomic.Bool
	front := betweenRounds(t, server.New(cl.shards[0], server.Options{}), func() {
		if armed.Load() && deleted.CompareAndSwap(false, true) {
			for _, victim := range victims {
				if err := errors.Join(cl.shards[0].Delete(victim), cl.union.Delete(victim)); err != nil {
					t.Error(err)
				}
			}
		}
	})
	c, err := New([]string{front.URL, cl.urls[1], cl.urls[2]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := topK(t, mc, 5)
	// The deletes wait for the second query.
	if _, err := c.Rank(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	resp, err := c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !deleted.Load() || resp.Partial || len(resp.Ranked) != 5 {
		t.Fatalf("deleted %v partial %v rows %d", deleted.Load(), resp.Partial, len(resp.Ranked))
	}
	sameRows(t, "after the deletes", resp.Ranked, cl.unionRows(t, mc, 5))
	if slices.ContainsFunc(resp.Ranked, func(r server.RankedResult) bool { return slices.Contains(victims, r.Name) }) {
		t.Fatalf("a deleted candidate is in the answer: %+v", resp.Ranked)
	}
	if cs := c.Stats().Coordinator; cs.FloorFallbacks != 1 || cs.FloorQueries != 2 {
		t.Fatalf("two-round counters %+v, want one fallback in two floored queries", cs)
	}
	// The next identical query sees a moved shard 0 and needs no rerun.
	resp, err = c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "the query after", resp.Ranked, cl.unionRows(t, mc, 5))
	if cs := c.Stats().Coordinator; cs.FloorFallbacks != 1 {
		t.Fatalf("second query: counters %+v, want no new fallback", cs)
	}
}

// TestClusterOneShardMovesOthersRevalidate: between two identical
// queries one shard gains a candidate strong enough to lead the ranking
// and loses one of the cohort. The untouched shards' caches serve their
// seeds, which meet the moved shard's fresh ones: the floor is computed
// from the mix and the answer is the single-node rank of the new union.
func TestClusterOneShardMovesOthersRevalidate(t *testing.T) {
	mc := cohortCorpus(t)
	cl := newMatrixCluster(t, mc, 3, func(i int, _ placed) int { return i }, Options{})
	body := mustMarshal(t, topK(t, mc, 5))
	prime(t, cl.url+"/v1/rank", body)
	status, etag1, raw := postCoord(t, cl.url+"/v1/rank", body, "")
	var first RankResponse
	mustUnmarshal(t, raw, &first)
	if status != http.StatusOK || etag1 == "" {
		t.Fatalf("first query: status %d etag %q", status, etag1)
	}
	sameRows(t, "first query", first.Ranked, cl.unionRows(t, mc, 5))

	// Shard 1 moves: the best cohort member is stored there again under a
	// name that sorts first, and one of its own cohort members goes.
	gone := first.Ranked[1].Name
	var owner *store.Store
	moved := -1
	for i, st := range cl.shards {
		if _, err := st.Get(gone); err == nil {
			owner, moved = st, i
		}
	}
	best, err := cl.union.Get(first.Ranked[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*store.Store{owner, cl.union} {
		if err := st.Put(matrixPrefix+"a-newcomer", best); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(gone); err != nil {
			t.Fatal(err)
		}
	}

	before, hits := cl.coord.Stats().Coordinator, resultHits(t, cl.urls)
	status, etag2, raw := postCoord(t, cl.url+"/v1/rank", body, "")
	var second RankResponse
	mustUnmarshal(t, raw, &second)
	if status != http.StatusOK || etag2 == "" || etag2 == etag1 || second.Partial {
		t.Fatalf("second query: status %d etag %q (first %q) partial %v", status, etag2, etag1, second.Partial)
	}
	sameRows(t, "second query", second.Ranked, cl.unionRows(t, mc, 5))
	if second.Ranked[0].Name != matrixPrefix+"a-newcomer" {
		t.Fatalf("the newcomer ties the best score and sorts first, got %+v", second.Ranked[0])
	}
	after := cl.coord.Stats().Coordinator
	if after.FloorQueries-before.FloorQueries != 1 || after.FloorFallbacks != 0 {
		t.Fatalf("counters %+v -> %+v: want one floor, no fallback", before, after)
	}
	for i, h := range resultHits(t, cl.urls) {
		if served := h > hits[i]; served == (i == moved) {
			t.Fatalf("shard %d (moved: %v): cache hits %d -> %d", i, i == moved, hits[i], h)
		}
	}
}

// TestClusterShardResponseCap: a shard that streams past the response
// cap is that shard's failure — one shard_errors row, partial: true, no
// ETag, no retry — on /v1/rank, /v1/rank/batch and the
// /v1/get behind a by-name train.
func TestClusterShardResponseCap(t *testing.T) {
	tc := newTestCluster(t, 1, 12)
	if err := tc.shardSts[0].Put("query/train", tc.train); err != nil {
		t.Fatal(err)
	}
	const limit = 8 << 10
	var served atomic.Int64
	firehose := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("ETag", `"liar"`)
		w.WriteHeader(http.StatusOK)
		chunk := bytes.Repeat([]byte(" "), 1024)
		for i := 0; i < 4*limit/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer firehose.Close()
	c, err := New([]string{firehose.URL, tc.shards[0].URL}, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		sh.maxResponse = limit
	}
	cs := httptest.NewServer(c)
	defer cs.Close()

	mj := 10
	inline, byName := sketchBase64(t, tc.train), "query/train"
	bodies := map[string][]byte{
		"/v1/rank":       mustMarshal(t, RankRequest{Sketch: inline, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 3}),
		"/v1/rank/batch": mustMarshal(t, RankBatchRequest{Trains: []server.BatchTrainRef{{Name: "q", Sketch: inline}}, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 3}),
		"/v1/rank#get":   mustMarshal(t, RankRequest{Train: byName, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 3}),
	}
	for _, name := range []string{"/v1/rank", "/v1/rank/batch", "/v1/rank#get"} {
		path, _, _ := strings.Cut(name, "#")
		for pass := 0; pass < 2; pass++ {
			req, err := http.NewRequest(http.MethodPost, cs.URL+path, bytes.NewReader(bodies[name]))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var got struct {
				Partial     bool         `json:"partial"`
				ShardErrors []ShardError `json:"shard_errors"`
			}
			mustUnmarshal(t, raw, &got)
			if resp.StatusCode != http.StatusOK || !got.Partial || resp.Header.Get("ETag") != "" ||
				len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != firehose.URL || !strings.Contains(got.ShardErrors[0].Error, errTooLong.Error()) {
				t.Fatalf("%s pass %d: status %d etag %q: %s", name, pass, resp.StatusCode, resp.Header.Get("ETag"), raw)
			}
		}
	}
	st := c.Stats()
	if st.Shards[0].Retries != 0 || served.Load() != st.Shards[0].Requests {
		t.Fatalf("the firehose was asked %d times for %d requests (%d retries): an over-cap answer must not be retried", served.Load(), st.Shards[0].Requests, st.Shards[0].Retries)
	}
	// A train only the firehose could own is not "missing": 502, not 404.
	_, rerr := c.Rank(context.Background(), RankRequest{Train: "no/such", Prefix: "corpus/", MinJoin: &mj})
	if ce, ok := rerr.(*ClusterError); !ok || ce.StatusCode != http.StatusBadGateway || len(ce.Shards) != 1 {
		t.Fatalf("unresolvable train: %v, want a 502 naming the firehose", rerr)
	}
}

// TestClusterShardAnswerUndecodable: a shard that answers 200 with a body
// that is not JSON, or with a batch answer of the wrong query count, is
// that shard's failure on both endpoints — one shard_errors row, partial:
// true, no ETag.
func TestClusterShardAnswerUndecodable(t *testing.T) {
	tc := newTestCluster(t, 1, 12)
	var lie atomic.Value
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("ETag", `"liar"`)
		w.Write([]byte(lie.Load().(string)))
	}))
	defer liar.Close()
	c, err := New([]string{liar.URL, tc.shards[0].URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(c)
	defer cs.Close()

	mj := 10
	inline := sketchBase64(t, tc.train)
	bodies := map[string][]byte{
		"/v1/rank":       mustMarshal(t, RankRequest{Sketch: inline, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 3}),
		"/v1/rank/batch": mustMarshal(t, RankBatchRequest{Trains: []server.BatchTrainRef{{Name: "q", Sketch: inline}}, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 3}),
	}
	for _, body := range []string{"not json", `{"queries":[]}`} {
		lie.Store(body)
		for _, path := range []string{"/v1/rank", "/v1/rank/batch"} {
			for pass := 0; pass < 2; pass++ {
				resp, err := http.Post(cs.URL+path, "application/json", bytes.NewReader(bodies[path]))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				status, etag := resp.StatusCode, resp.Header.Get("ETag")
				var got struct {
					Partial     bool         `json:"partial"`
					ShardErrors []ShardError `json:"shard_errors"`
				}
				mustUnmarshal(t, raw, &got)
				if status != http.StatusOK || !got.Partial || etag != "" || len(got.ShardErrors) != 1 ||
					got.ShardErrors[0].Shard != liar.URL || !strings.Contains(got.ShardErrors[0].Error, "undecodable response") {
					t.Fatalf("liar %q, %s pass %d: status %d etag %q: %s", body, path, pass, status, etag, raw)
				}
			}
		}
	}
}
