package cluster

// Cluster failure-mode and differential tests. The load-bearing one is
// TestClusterRankMatchesSingleNode: three shards holding disjoint
// slices of a corpus must produce, through the coordinator, the
// bit-identical ranking a single node produces over the union catalog.
// The rest exercise the degraded-results contract: shards that die,
// hang, or flap must cost coverage (partial: true), never a query
// error, as long as one shard still answers.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/server"
	"misketch/internal/store"
)

// testCluster is N shard servers, each with its own result cache, over
// disjoint stores plus a single-node server over the union
// catalog — the differential harness.
type testCluster struct {
	shards   []*httptest.Server
	union    *httptest.Server
	unionSt  *store.Store
	shardSts []*store.Store
	train    *core.Sketch
}

// newTestCluster builds nCand candidates, dealing candidate c to shard
// c%nShards and every candidate to the union store. The returned train
// joins all of them.
func newTestCluster(t testing.TB, nShards, nCand int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	openStore := func() *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	tc.unionSt = openStore()
	for i := 0; i < nShards; i++ {
		tc.shardSts = append(tc.shardSts, openStore())
	}

	rng := rand.New(rand.NewSource(7))
	opt := core.Options{Method: core.TUPSK, Size: 64}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(90)), rng.NormFloat64())
	}
	tc.train = tb.Sketch()
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 90; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
		}
		sk := cb.Sketch()
		name := fmt.Sprintf("corpus/c%03d", c)
		if err := tc.unionSt.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		if err := tc.shardSts[c%nShards].Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}

	tc.union = httptest.NewServer(server.New(tc.unionSt, server.Options{}))
	t.Cleanup(tc.union.Close)
	for _, st := range tc.shardSts {
		ts := httptest.NewServer(server.New(st, server.Options{ResultCacheBytes: 1 << 20}))
		tc.shards = append(tc.shards, ts)
		t.Cleanup(ts.Close)
	}
	return tc
}

func (tc *testCluster) urls() []string {
	out := make([]string, len(tc.shards))
	for i, ts := range tc.shards {
		out[i] = ts.URL
	}
	return out
}

func (tc *testCluster) coordinator(t testing.TB, opt Options) *Coordinator {
	t.Helper()
	c, err := New(tc.urls(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (tc *testCluster) rankRequest(t testing.TB, top int) RankRequest {
	t.Helper()
	minJoin := 10
	return RankRequest{
		Sketch: sketchBase64(t, tc.train), Prefix: "corpus/",
		MinJoin: &minJoin, K: 3, Top: top,
	}
}

func sketchBase64(t testing.TB, sk *core.Sketch) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// singleNodeRank asks the union server directly — the ground truth the
// merged cluster ranking must match bit for bit.
func (tc *testCluster) singleNodeRank(t testing.TB, req RankRequest) server.RankResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.union.URL+"/v1/rank", "application/json", jsonBody(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr server.RankResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node rank: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func assertIdenticalRanked(t testing.TB, got, want []server.RankedResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ranking length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestClusterRankMatchesSingleNode is the merge-correctness contract:
// scatter-gather over 3 disjoint shards returns the bit-identical
// top-K a single node computes over the union catalog — every name,
// MI bit, estimator tag, join size, and position. Exercised at several
// K including 0 (all results) and K beyond the corpus.
func TestClusterRankMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	c := tc.coordinator(t, Options{})
	for _, top := range []int{0, 1, 5, 12, 1000} {
		req := tc.rankRequest(t, top)
		want := tc.singleNodeRank(t, req)
		got, err := c.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("top=%d: %v", top, err)
		}
		if got.Partial || len(got.ShardErrors) != 0 {
			t.Fatalf("top=%d: unexpected partial response: %+v", top, got)
		}
		assertIdenticalRanked(t, got.Ranked, want.Ranked)
	}
}

// TestClusterBatchMatchesSingleNode is the batch analogue: every
// query slice of a scattered batch merges to the single-node answer.
func TestClusterBatchMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 3, 20)
	c := tc.coordinator(t, Options{})
	minJoin := 10
	req := RankBatchRequest{
		Trains: []server.BatchTrainRef{
			{Name: "q0", Sketch: sketchBase64(t, tc.train)},
			{Name: "q1", Sketch: sketchBase64(t, tc.train)},
		},
		Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 7,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.union.URL+"/v1/rank/batch", "application/json", jsonBody(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node batch: status %d", resp.StatusCode)
	}
	var want server.RankBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}

	got, cerr := c.RankBatch(context.Background(), req)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if got.Partial {
		t.Fatalf("unexpected partial batch: %+v", got.ShardErrors)
	}
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("query count %d, want %d", len(got.Queries), len(want.Queries))
	}
	for q := range want.Queries {
		if got.Queries[q].Name != want.Queries[q].Name {
			t.Fatalf("query[%d] name %q, want %q", q, got.Queries[q].Name, want.Queries[q].Name)
		}
		assertIdenticalRanked(t, got.Queries[q].Ranked, want.Queries[q].Ranked)
	}
}

// TestClusterPartialOnShardDown kills one shard and checks the
// degraded-results contract: the query answers 200 with partial: true,
// one shard error, and exactly the merged ranking of the surviving
// shards — never a query error.
func TestClusterPartialOnShardDown(t *testing.T) {
	tc := newTestCluster(t, 3, 18)
	c := tc.coordinator(t, Options{Retries: -1, RetryBackoff: -1})
	tc.shards[1].Close() // shard down at query time

	req := tc.rankRequest(t, 0) // all results, to check survivor coverage
	got, err := c.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("rank with a dead shard must degrade, not fail: %v", err)
	}
	if !got.Partial {
		t.Fatal("partial flag not set with a dead shard")
	}
	if len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != tc.shards[1].URL {
		t.Fatalf("shard errors = %+v, want one error for %s", got.ShardErrors, tc.shards[1].URL)
	}
	// The survivors' candidates (c%3 != 1) must all still be ranked.
	want := 0
	for c := 0; c < 18; c++ {
		if c%3 != 1 {
			want++
		}
	}
	if len(got.Ranked) != want {
		t.Fatalf("ranked %d candidates, want the %d on surviving shards", len(got.Ranked), want)
	}
}

// TestClusterAllShardsDown: with no survivors the query fails with a
// ClusterError carrying 502 and one error per shard.
func TestClusterAllShardsDown(t *testing.T) {
	tc := newTestCluster(t, 2, 6)
	c := tc.coordinator(t, Options{Retries: -1, RetryBackoff: -1})
	tc.shards[0].Close()
	tc.shards[1].Close()
	_, err := c.Rank(context.Background(), tc.rankRequest(t, 3))
	ce, ok := err.(*ClusterError)
	if !ok {
		t.Fatalf("error = %v, want *ClusterError", err)
	}
	if ce.StatusCode != http.StatusBadGateway || len(ce.Shards) != 2 {
		t.Fatalf("ClusterError = %+v, want 502 with 2 shard errors", ce)
	}
}

// TestClusterTimeoutMidGather wedges one shard behind a never-finishing
// handler: the per-attempt request timeout must cut it loose and the
// query must degrade to the responsive shards.
func TestClusterTimeoutMidGather(t *testing.T) {
	tc := newTestCluster(t, 2, 8)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold every request until test teardown
	}))
	defer hung.Close()
	// Registered after hung.Close so it runs first (LIFO): Close blocks
	// until the wedged handlers return, which needs the channel closed.
	defer close(release)

	c, err := New(append(tc.urls(), hung.URL), Options{
		RequestTimeout: 200 * time.Millisecond,
		Retries:        -1,
		RetryBackoff:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, rerr := c.Rank(context.Background(), tc.rankRequest(t, 0))
	if rerr != nil {
		t.Fatalf("rank with a hung shard must degrade, not fail: %v", rerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gather took %v; the hung shard was not timed out", elapsed)
	}
	if !got.Partial || len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != hung.URL {
		t.Fatalf("want partial with one error for the hung shard, got %+v", got.ShardErrors)
	}
	if len(got.Ranked) != 8 {
		t.Fatalf("ranked %d, want all 8 candidates from the real shards", len(got.Ranked))
	}
}

// TestClusterRetryThenSuccess fronts one shard with a proxy that fails
// each request's first two attempts with 503: the retry budget must
// absorb the flaps and deliver a complete (not partial) answer, with
// the retries visible in the shard counters.
func TestClusterRetryThenSuccess(t *testing.T) {
	tc := newTestCluster(t, 2, 10)
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%3 != 0 { // attempts 1,2 fail; attempt 3 passes through
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		// Proxy to shard 1 by replaying the request.
		req, err := http.NewRequest(r.Method, tc.shards[1].URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf [4096]byte
		for {
			n, rerr := resp.Body.Read(buf[:])
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer flaky.Close()

	c, err := New([]string{tc.shards[0].URL, flaky.URL}, Options{
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := tc.rankRequest(t, 0)
	want := tc.singleNodeRank(t, req)
	got, rerr := c.Rank(context.Background(), req)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got.Partial {
		t.Fatalf("retries should have recovered the flaky shard: %+v", got.ShardErrors)
	}
	assertIdenticalRanked(t, got.Ranked, want.Ranked)
	st := c.Stats()
	if st.Shards[1].Retries < 2 {
		t.Fatalf("flaky shard retries = %d, want >= 2", st.Shards[1].Retries)
	}
}

// TestClusterByNameTrain stores the train on exactly one shard and
// ranks by name through the coordinator: resolution must find the
// owning shard, inline the sketch, and return the same ranking the
// inline query does. A name no shard stores must 404.
func TestClusterByNameTrain(t *testing.T) {
	tc := newTestCluster(t, 3, 15)
	if err := tc.shardSts[2].Put("query/train", tc.train); err != nil {
		t.Fatal(err)
	}
	c := tc.coordinator(t, Options{})
	minJoin := 10
	byName := RankRequest{Train: "query/train", Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 6}
	inline := tc.rankRequest(t, 6)

	gotName, err := c.Rank(context.Background(), byName)
	if err != nil {
		t.Fatal(err)
	}
	gotInline, err := c.Rank(context.Background(), inline)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRanked(t, gotName.Ranked, gotInline.Ranked)

	_, err = c.Rank(context.Background(), RankRequest{Train: "no/such", Prefix: "corpus/", MinJoin: &minJoin})
	ce, ok := err.(*ClusterError)
	if !ok || ce.StatusCode != http.StatusNotFound {
		t.Fatalf("rank by missing name = %v, want ClusterError 404", err)
	}
}

// TestClusterConcurrentRanks is the -race hammer: concurrent ranks
// (some by name, some inline) through one coordinator while a shard
// dies mid-traffic. Every query must either answer identically to the
// union or degrade with partial: true — no errors, no races.
func TestClusterConcurrentRanks(t *testing.T) {
	tc := newTestCluster(t, 3, 12)
	if err := tc.shardSts[0].Put("query/train", tc.train); err != nil {
		t.Fatal(err)
	}
	c := tc.coordinator(t, Options{Retries: -1, RetryBackoff: -1, RequestTimeout: 10 * time.Second})
	req := tc.rankRequest(t, 5)
	want := tc.singleNodeRank(t, req)

	const workers, iters = 8, 12
	killAt := workers * iters / 3
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if done.Add(1) == int64(killAt) {
					tc.shards[1].Close() // shard dies mid-traffic
				}
				r := req
				if (w+i)%4 == 0 {
					minJoin := 10
					r = RankRequest{Train: "query/train", Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 5}
				}
				got, err := c.Rank(context.Background(), r)
				if err != nil {
					// The train lives on shard 0, which stays up, so
					// by-name resolution always reaches a 200; any error
					// here is a real degraded-mode violation.
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if !got.Partial {
					assertIdenticalRanked(t, got.Ranked, want.Ranked)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClusterStatsAndLs covers the remaining read surface: /v1/ls
// merges and sorts the union manifest, and /v1/stats reports per-shard
// counters that add up with traffic.
func TestClusterStatsAndLs(t *testing.T) {
	tc := newTestCluster(t, 3, 9)
	c := tc.coordinator(t, Options{})
	coord := httptest.NewServer(c)
	defer coord.Close()

	if _, err := c.Rank(context.Background(), tc.rankRequest(t, 3)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(coord.URL + "/v1/ls?prefix=corpus/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ls LsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	if ls.Count != 9 || ls.Partial {
		t.Fatalf("ls count = %d partial = %v, want 9 complete", ls.Count, ls.Partial)
	}
	for i := 1; i < len(ls.Sketches); i++ {
		if ls.Sketches[i-1].Name >= ls.Sketches[i].Name {
			t.Fatalf("ls not sorted: %q before %q", ls.Sketches[i-1].Name, ls.Sketches[i].Name)
		}
	}

	var st StatsResponse
	resp2, err := http.Get(coord.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Coordinator.RankRequests != 1 {
		t.Fatalf("coordinator rank_requests = %d, want 1", st.Coordinator.RankRequests)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("shard stats count = %d, want 3", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if sh.Requests < 2 { // one rank + one ls each
			t.Fatalf("shard %s requests = %d, want >= 2", sh.URL, sh.Requests)
		}
		if sh.Errors != 0 {
			t.Fatalf("shard %s errors = %d, want 0", sh.URL, sh.Errors)
		}
	}
}

func jsonBody(b []byte) io.Reader { return bytes.NewReader(b) }
