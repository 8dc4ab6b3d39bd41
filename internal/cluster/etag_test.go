package cluster

// The coordinator keeps no results: a repeated query scatters again and
// each shard's own result cache answers it. These tests hold what the
// coordinator still owes its clients — one strong ETag per answer, built
// from the shards' ETags, that changes when a shard's catalog moves or a
// shard restarts, a bodyless 304 on a matching If-None-Match, and no ETag
// on a partial answer — and that the shards' caches serve the repeats.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/server"
	"misketch/internal/store"
)

// postCoord posts a rank body to a coordinator endpoint URL and returns
// the status, ETag, and raw body.
func postCoord(t testing.TB, url string, body []byte, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), raw
}

// prime posts body once so its digest is past the shards' first sight,
// which marks the digest and keeps no answer: the answers to the next
// identical request are the first ones the shards keep.
func prime(t testing.TB, url string, body []byte) {
	t.Helper()
	if status, _, raw := postCoord(t, url, body, ""); status != http.StatusOK {
		t.Fatalf("priming request: status %d: %s", status, raw)
	}
}

// resultHits reads every shard's result_hits, in shard order.
func resultHits(t testing.TB, urls []string) []int64 {
	t.Helper()
	hits := make([]int64, len(urls))
	for i, url := range urls {
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		hits[i] = stats.Server.ResultHits
	}
	return hits
}

// TestClusterRepeatServedByShardCaches: three identical coordinator ranks,
// on both endpoints and seeded, give byte-identical bodies under one ETag,
// the single-node answer; the first two are computed on every shard (first
// sight leaves a marker, second is kept), and from the third on every
// shard request, in both rounds, is a shard cache hit. A client holding
// the ETag gets a bodyless 304. A Put on one shard changes the next answer
// and its ETag.
func TestClusterRepeatServedByShardCaches(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	mj := 10
	train := sketchBase64(t, tc.train)
	single := tc.rankRequest(t, 10)
	for _, q := range []struct {
		path string
		body []byte
	}{
		{"/v1/rank", mustMarshal(t, single)},
		{"/v1/rank/batch", mustMarshal(t, RankBatchRequest{Trains: []server.BatchTrainRef{
			{Name: "a", Sketch: train}, {Name: "b", Sketch: train},
		}, Prefix: "corpus/", MinJoin: &mj, K: 3, Top: 5})},
	} {
		var etag string
		var first []byte
		for pass := 0; pass < 3; pass++ {
			hits, requests := resultHits(t, tc.urls()), shardRequests(coord)
			status, e, raw := postCoord(t, cs.URL+q.path, q.body, "")
			if status != http.StatusOK || e == "" {
				t.Fatalf("%s pass %d: status %d etag %q: %s", q.path, pass, status, e, raw)
			}
			if pass == 0 {
				etag, first = e, raw
			} else if e != etag || !bytes.Equal(raw, first) {
				t.Fatalf("%s pass %d: ETag %q and body\n%s\nafter ETag %q and body\n%s", q.path, pass, e, raw, etag, first)
			}
			var served int64
			for i, h := range resultHits(t, tc.urls()) {
				if pass == 2 && h == hits[i] {
					t.Fatalf("%s pass %d: shard %d served nothing from its cache", q.path, pass, i)
				}
				served += h - hits[i]
			}
			want := int64(0)
			if pass == 2 {
				want = shardRequests(coord) - requests
			}
			if served != want {
				t.Fatalf("%s pass %d: %d shard cache hits, want %d", q.path, pass, served, want)
			}
		}
		if q.path == "/v1/rank" {
			var rr RankResponse
			mustUnmarshal(t, first, &rr)
			assertIdenticalRanked(t, rr.Ranked, tc.singleNodeRank(t, single).Ranked)
		}
		status, e, raw := postCoord(t, cs.URL+q.path, q.body, etag)
		if status != http.StatusNotModified || e != etag || len(raw) != 0 {
			t.Fatalf("%s: revalidation: status %d etag %q body %q; want a bodyless 304 under %q", q.path, status, e, raw, etag)
		}
	}
	if st := coord.Stats().Coordinator; st.ResultNotModified != 2 || st.FloorQueries != 8 || st.Round2Requests == 0 {
		t.Fatalf("coordinator counters %+v: want two 304s and eight seeded queries", st)
	}

	// A copy of the best candidate, under a name that sorts first, lands
	// on shard 0: it ties the best score and leads the next answer.
	body := mustMarshal(t, single)
	_, etag, before := postCoord(t, cs.URL+"/v1/rank", body, "")
	best, err := tc.unionSt.Get(tc.singleNodeRank(t, single).Ranked[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*store.Store{tc.shardSts[0], tc.unionSt} {
		if err := st.Put("corpus/a-newcomer", best); err != nil {
			t.Fatal(err)
		}
	}
	status, e, raw := postCoord(t, cs.URL+"/v1/rank", body, etag)
	if status != http.StatusOK || e == "" || e == etag || bytes.Equal(raw, before) {
		t.Fatalf("after a Put: status %d etag %q (before %q): %s", status, e, etag, raw)
	}
	var rr RankResponse
	mustUnmarshal(t, raw, &rr)
	assertIdenticalRanked(t, rr.Ranked, tc.singleNodeRank(t, single).Ranked)
	if rr.Ranked[0].Name != "corpus/a-newcomer" {
		t.Fatalf("after a Put: %+v leads, want the newcomer", rr.Ranked[0])
	}
}

// TestClusterCacheMutationInvalidates: a Put on one shard must change
// that shard's ETag (and the coordinator's), and the next identical
// query must merge the fresh answer while the untouched shards serve
// theirs from their caches.
func TestClusterCacheMutationInvalidates(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{})
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 0) // all results, so the new candidate must appear
	body := mustMarshal(t, req)
	prime(t, cs.URL+"/v1/rank", body)
	_, etag1, _ := postCoord(t, cs.URL+"/v1/rank", body, "")

	// Mutate shard 0 (and the union ground truth identically).
	extra := buildCandidate(t, 91)
	if err := tc.shardSts[0].Put("corpus/extra", extra); err != nil {
		t.Fatal(err)
	}
	if err := tc.unionSt.Put("corpus/extra", extra); err != nil {
		t.Fatal(err)
	}

	hits := resultHits(t, tc.urls())
	status, etag2, second := postCoord(t, cs.URL+"/v1/rank", body, "")
	if status != http.StatusOK {
		t.Fatalf("post-mutation query: status %d: %s", status, second)
	}
	if etag2 == etag1 {
		t.Fatal("coordinator ETag unchanged across a shard mutation")
	}
	var sr RankResponse
	mustUnmarshal(t, second, &sr)
	want := tc.singleNodeRank(t, req)
	assertIdenticalRanked(t, sr.Ranked, want.Ranked)
	found := false
	for _, rr := range sr.Ranked {
		if rr.Name == "corpus/extra" {
			found = true
		}
	}
	if !found {
		t.Fatal("merged answer missing the candidate added between queries")
	}
	// Shards 1 and 2 were untouched: their caches answered.
	after := resultHits(t, tc.urls())
	for i := range after {
		if got, want := after[i]-hits[i], min(int64(i), 1); got != want {
			t.Fatalf("shard %d: %d cache hits, want %d (untouched shards only)", i, got, want)
		}
	}
}

// TestClusterShardRestartEpoch: a shard restart that lands on the same
// generation number but different content must change the coordinator's
// ETag — the per-process epoch in the shard's ETag sees to it — and the
// merge stays bit-identical to ground truth.
func TestClusterShardRestartEpoch(t *testing.T) {
	tc := newTestCluster(t, 2, 20)

	// Shard 0 is replaced by a hand-run server so it can be restarted
	// on the same address with a different store.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: server.New(tc.shardSts[0], server.Options{})}
	go hs1.Serve(ln)

	urls := []string{"http://" + addr, tc.shards[1].URL}
	coord, err := New(urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 0)
	body := mustMarshal(t, req)
	status, etag1, raw := postCoord(t, cs.URL+"/v1/rank", body, "")
	if status != http.StatusOK || etag1 == "" {
		t.Fatalf("warmup: status %d etag %q: %s", status, etag1, raw)
	}

	// "Restart" shard 0: a new store with the same number of puts (so
	// the generation counter collides with the old process) but one
	// candidate replaced by different data.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	names, old := shardContents(t, tc.shardSts[0])
	changed := ""
	for i, name := range names {
		sk := old[i]
		if i == 0 {
			sk = buildCandidate(t, 123) // different content, same put count
			changed = name
		}
		if err := st2.Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	if g1, g2 := tc.shardSts[0].Gen(), st2.Gen(); g1 != g2 {
		t.Fatalf("test setup: generations diverge (%d vs %d); the collision scenario needs them equal", g1, g2)
	}
	// Union ground truth mirrors the restart's changed candidate.
	if err := tc.unionSt.Put(changed, buildCandidate(t, 123)); err != nil {
		t.Fatal(err)
	}

	hs1.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs2 := &http.Server{Handler: server.New(st2, server.Options{})}
	defer hs2.Close()
	go hs2.Serve(ln2)

	status, etag2, raw := postCoord(t, cs.URL+"/v1/rank", body, etag1)
	if status != http.StatusOK || etag2 == "" || etag2 == etag1 {
		t.Fatalf("post-restart query: status %d etag %q (before %q): %s", status, etag2, etag1, raw)
	}
	var rr RankResponse
	mustUnmarshal(t, raw, &rr)
	if rr.Partial {
		t.Fatalf("post-restart query answered partial: %s", raw)
	}
	want := tc.singleNodeRank(t, req)
	assertIdenticalRanked(t, rr.Ranked, want.Ranked)
}

// TestClusterPartialNeverCached: with one shard down the answer is
// partial and carries no ETag, so no client can revalidate it; the same
// holds for a shard lost between the rounds.
func TestClusterPartialNeverCached(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{
		RequestTimeout: 2 * time.Second,
		Retries:        -1,
	})
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 10)
	body := mustMarshal(t, req)

	// A full answer first, then lose a shard.
	if status, etag, _ := postCoord(t, cs.URL+"/v1/rank", body, ""); status != http.StatusOK || etag == "" {
		t.Fatalf("warmup: status %d etag %q", status, etag)
	}
	tc.shards[1].Close()

	for pass := 0; pass < 2; pass++ {
		status, etag, raw := postCoord(t, cs.URL+"/v1/rank", body, "")
		if status != http.StatusOK {
			t.Fatalf("degraded pass %d: status %d: %s", pass, status, raw)
		}
		var rr RankResponse
		mustUnmarshal(t, raw, &rr)
		if !rr.Partial {
			t.Fatalf("degraded pass %d: lost shard but partial=false: %s", pass, raw)
		}
		if etag != "" {
			t.Fatalf("degraded pass %d: partial answer carried ETag %q", pass, etag)
		}
	}

	// A shard that answers round 1 and is gone before round 2: its seeds
	// are in hand, and the answer is still partial and untagged.
	// (Shard 0 holds eleven candidates, one more than the seeds of a top
	// 10, so round 2 has to come back to it.)
	shard0 := server.New(tc.shardSts[0], server.Options{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		if !bytes.Contains(raw, []byte(`"seed":true`)) {
			panic(http.ErrAbortHandler) // drop the connection
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		shard0.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	coord2, err := New([]string{flaky.URL, tc.shards[2].URL}, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	cs2 := httptest.NewServer(coord2)
	defer cs2.Close()
	for pass := 0; pass < 3; pass++ {
		status, etag, raw := postCoord(t, cs2.URL+"/v1/rank", body, "")
		var rr RankResponse
		mustUnmarshal(t, raw, &rr)
		if status != http.StatusOK || !rr.Partial || etag != "" || len(rr.ShardErrors) != 1 || rr.ShardErrors[0].Shard != flaky.URL {
			t.Fatalf("round-2 loss, pass %d: status %d etag %q: %s", pass, status, etag, raw)
		}
	}
	if st := coord2.Stats().Coordinator; st.Round2Requests < 2 {
		t.Fatalf("round-2 loss: %+v", st)
	}
}

// TestClusterDuplicateCandidate: shards are meant to be disjoint. A
// candidate two of them both return is ranked once, by its better-ranked
// row, and the answer is partial — a shard error names the candidate and
// both shards — so it is never ETagged or cached. One shard gets a copy of
// the union's best candidate, and the second best's name over the worst
// one's sketch; single-round and seeded two-round queries answer the
// union's ranking, first sight, second and third.
func TestClusterDuplicateCandidate(t *testing.T) {
	tc := newTestCluster(t, 2, 24)
	all := tc.singleNodeRank(t, tc.rankRequest(t, 0)).Ranked
	best := all[0].Name
	for name, from := range map[string]string{best: best, all[1].Name: all[len(all)-1].Name} {
		var c int // newTestCluster deals corpus/cNNN to shard NNN % 2
		fmt.Sscanf(name, "corpus/c%d", &c)
		sk, err := tc.unionSt.Get(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.shardSts[1-c%2].Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	coord := tc.coordinator(t, Options{})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	for _, top := range []int{0, 5} {
		req := tc.rankRequest(t, top)
		want := tc.singleNodeRank(t, req).Ranked
		for pass := 0; pass < 3; pass++ {
			status, etag, raw := postCoord(t, cs.URL+"/v1/rank", mustMarshal(t, req), "")
			var rr RankResponse
			mustUnmarshal(t, raw, &rr)
			if status != http.StatusOK || etag != "" || !rr.Partial || len(rr.ShardErrors) == 0 {
				t.Fatalf("top %d pass %d: status %d etag %q: %s", top, pass, status, etag, raw)
			}
			named := false
			for _, se := range rr.ShardErrors {
				if both := se.Shard + " " + se.Error; !strings.Contains(both, tc.shards[0].URL) || !strings.Contains(both, tc.shards[1].URL) {
					t.Fatalf("top %d pass %d: shard error %+v does not name both shards", top, pass, se)
				}
				named = named || strings.Contains(se.Error, `"`+best+`"`)
			}
			if !named {
				t.Fatalf("top %d pass %d: no shard error names %q: %s", top, pass, best, raw)
			}
			assertIdenticalRanked(t, rr.Ranked, want)
		}
	}
	if st := coord.Stats().Coordinator; st.FloorQueries == 0 {
		t.Fatalf("%+v: want seeded queries", st)
	}
}

// buildCandidate makes one joinable candidate whose values depend on
// salt, so different salts give different sketch content.
func buildCandidate(t testing.TB, salt int) *core.Sketch {
	t.Helper()
	cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 90; g++ {
		cb.AddNum(fmt.Sprintf("g%d", g), float64((g+salt)%7))
	}
	return cb.Sketch()
}

// shardContents snapshots a store's sketches by name, in listing order.
func shardContents(t testing.TB, st *store.Store) ([]string, []*core.Sketch) {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([]*core.Sketch, 0, len(names))
	for _, name := range names {
		sk, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sketches = append(sketches, sk)
	}
	return names, sketches
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustUnmarshal(t testing.TB, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
}

// TestStrongETagMeansSameBytes is the coordinator's half of the server
// test of the same name: every 200 it gives one request under one ETag —
// merged from shard answers computed afresh, or (shard caches on) served
// from the shards' caches, or scattered beside concurrent copies of
// itself — is the same bytes. Shard 0 answers through a gate so that the
// concurrent requests reach it together.
func TestStrongETagMeansSameBytes(t *testing.T) {
	for _, cacheBytes := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			tc := newTestCluster(t, 2, 24)
			shards := make([]*server.Server, len(tc.shardSts))
			for i, st := range tc.shardSts {
				shards[i] = server.New(st, server.Options{ResultCacheBytes: cacheBytes})
			}
			var gate atomic.Pointer[chan struct{}]
			var arrived atomic.Int64
			gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if g := gate.Load(); g != nil {
					arrived.Add(1)
					<-*g
				}
				shards[0].ServeHTTP(w, r)
			}))
			defer gated.Close()
			other := httptest.NewServer(shards[1])
			defer other.Close()
			coord, err := New([]string{gated.URL, other.URL}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cs := httptest.NewServer(coord)
			defer cs.Close()

			// post reports a failure with t.Error: it also runs off the
			// test's goroutine.
			post := func(body []byte) (etag, timing string, raw []byte) {
				resp, err := http.Post(cs.URL+"/v1/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return "", "", nil
				}
				defer resp.Body.Close()
				if raw, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
					t.Errorf("status %d, ETag %q, %v: %s", resp.StatusCode, resp.Header.Get("ETag"), err, raw)
				}
				return resp.Header.Get("ETag"), resp.Header.Get("Server-Timing"), raw
			}
			// First sight, second (kept by caching shards), third (served
			// from their caches).
			body := mustMarshal(t, tc.rankRequest(t, 5))
			etag, _, first := post(body)
			for i := 0; i < 2; i++ {
				e, timing, raw := post(body)
				if e != etag || !bytes.Equal(raw, first) {
					t.Fatalf("repeat %d: ETag %q and body\n%s\nafter ETag %q and body\n%s", i, e, raw, etag, first)
				}
				if !strings.HasPrefix(timing, "rank;dur=") {
					t.Fatalf("repeat %d: Server-Timing %q, want the coordinator's rank time", i, timing)
				}
			}
			var hits int64
			for _, sh := range shards {
				hits += sh.Stats().Server.ResultHits
			}
			if (hits > 0) != (cacheBytes > 0) {
				t.Fatalf("%d shard cache hits over three identical queries with cache %d", hits, cacheBytes)
			}

			open := make(chan struct{})
			gate.Store(&open)
			body = mustMarshal(t, tc.rankRequest(t, 6))
			type answer struct {
				etag string
				raw  []byte
			}
			answers := make(chan answer, 3)
			for i := 0; i < cap(answers); i++ {
				go func() {
					e, _, raw := post(body)
					answers <- answer{e, raw}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); arrived.Load() < int64(cap(answers)); {
				if time.Now().After(deadline) {
					t.Fatal("the concurrent requests never reached shard 0 together")
				}
				time.Sleep(time.Millisecond)
			}
			gate.Store(nil)
			close(open)
			a := <-answers
			for i := 1; i < cap(answers); i++ {
				if b := <-answers; b.etag != a.etag || b.etag == etag || !bytes.Equal(b.raw, a.raw) {
					t.Fatalf("concurrent: ETag %q and body\n%s\nbeside ETag %q and body\n%s", b.etag, b.raw, a.etag, a.raw)
				}
			}
		})
	}
}
