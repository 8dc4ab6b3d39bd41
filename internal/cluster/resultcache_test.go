package cluster

// Coordinator result-cache tests: shard 304 revalidation must merge
// bit-identically to a full-body scatter — including across a shard
// restart whose generation counter collides with the old process —
// and partial (degraded) answers must never be cached or carry ETags.

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

// postCoord posts a rank body to a coordinator server and returns the
// status, ETag, and raw body.
func postCoord(t testing.TB, url string, body []byte, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/rank", bytes.NewReader(body))
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

// prime posts body once so its digest is past the coordinator cache's
// first sight, which marks the digest and keeps no answer: the bodies of
// the next identical request are the first ones cached.
func prime(t testing.TB, url string, body []byte) {
	t.Helper()
	if status, _, raw := postCoord(t, url, body, ""); status != http.StatusOK {
		t.Fatalf("priming request: status %d: %s", status, raw)
	}
}

// TestClusterFirstSightRetainsNoBody: the first request for a digest
// leaves a marker of fixed cost and no answer, so a stream of queries
// that never repeat grows the cache by ccEntryOverhead each, not by
// three bodies; the second identical request is a full scatter too and
// leaves the shard answers and the merge; the third replays them.
func TestClusterFirstSightRetainsNoBody(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	body := mustMarshal(t, tc.rankRequest(t, 10))

	_, etag, _ := postCoord(t, cs.URL, body, "")
	st := coord.Stats().Coordinator
	if st.ResultEntries != 1 || st.ResultBytes != ccEntryOverhead {
		t.Fatalf("first sight retains %d entries, %d bytes; want the marker's 1 and %d", st.ResultEntries, st.ResultBytes, ccEntryOverhead)
	}
	if etag == "" {
		t.Fatal("a first-sight answer carries its ETag all the same")
	}
	if status, etag2, raw := postCoord(t, cs.URL, body, ""); status != http.StatusOK || etag2 != etag {
		t.Fatalf("second sight: status %d etag %q, want 200 under %q: %s", status, etag2, etag, raw)
	}
	st = coord.Stats().Coordinator
	if st.ResultEntries != 5 || st.ResultShardHits != 0 || st.ResultMergedHits != 0 {
		t.Fatalf("second sight: %+v, want marker + 3 shard answers + merge and no hit yet", st)
	}
	if status, _, _ := postCoord(t, cs.URL, body, etag); status != http.StatusNotModified {
		t.Fatalf("third sight: status %d, want 304", status)
	}
	if st = coord.Stats().Coordinator; st.ResultShardHits != 3 || st.ResultMergedHits != 1 || st.ResultEntries != 5 {
		t.Fatalf("third sight: %+v, want three shard 304s and the merged replay", st)
	}
	// A mutation moves the ETags, not the marker: the very next request
	// caches its bodies again.
	if err := tc.shardSts[0].Put("corpus/extra", buildCandidate(t, 91)); err != nil {
		t.Fatal(err)
	}
	prime(t, cs.URL, body)
	postCoord(t, cs.URL, body, "")
	if after := coord.Stats().Coordinator; after.ResultMergedHits != 2 || after.ResultShardHits != 3+2+3 {
		t.Fatalf("after a mutation: %+v, want the request after it cached (2 + 3 more shard 304s, one more replay)", after)
	}
}

// TestClusterShard304MergeBitIdentical: with the coordinator cache on,
// a repeated query revalidates every shard (304, no bodies) and the
// merged answer is bit-identical to the first full-body scatter and to
// the single-node ground truth.
func TestClusterShard304MergeBitIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 10)
	body := mustMarshal(t, req)
	want := tc.singleNodeRank(t, req)

	prime(t, cs.URL, body)
	status, etag1, first := postCoord(t, cs.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", status, first)
	}
	if etag1 == "" {
		t.Fatal("full cluster answer carried no ETag")
	}
	var fr RankResponse
	mustUnmarshal(t, first, &fr)
	assertIdenticalRanked(t, fr.Ranked, want.Ranked)

	status, etag2, second := postCoord(t, cs.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("second query: status %d: %s", status, second)
	}
	if etag2 != etag1 {
		t.Fatalf("ETag changed without a mutation: %q -> %q", etag1, etag2)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("304-merged answer diverges from full scatter:\n%s\n%s", first, second)
	}
	st := coord.Stats().Coordinator
	if st.ResultShardHits != 3 {
		t.Fatalf("shard 304 reuses = %d, want 3", st.ResultShardHits)
	}
	if st.ResultMergedHits != 1 {
		t.Fatalf("merged replays = %d, want 1", st.ResultMergedHits)
	}

	// A client holding the coordinator ETag revalidates for free.
	status, _, revalBody := postCoord(t, cs.URL, body, etag1)
	if status != http.StatusNotModified {
		t.Fatalf("client revalidation: status %d, want 304: %s", status, revalBody)
	}
	if len(revalBody) != 0 {
		t.Fatalf("304 carried a body: %q", revalBody)
	}
}

// TestClusterCacheMutationInvalidates: a Put on one shard must change
// that shard's ETag (and the coordinator's), and the next identical
// query must merge the fresh answer while the untouched shards still
// revalidate with 304.
func TestClusterCacheMutationInvalidates(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 0) // all results, so the new candidate must appear
	body := mustMarshal(t, req)
	prime(t, cs.URL, body)
	_, etag1, _ := postCoord(t, cs.URL, body, "")

	// Mutate shard 0 (and the union ground truth identically).
	extra := buildCandidate(t, 91)
	if err := tc.shardSts[0].Put("corpus/extra", extra); err != nil {
		t.Fatal(err)
	}
	if err := tc.unionSt.Put("corpus/extra", extra); err != nil {
		t.Fatal(err)
	}

	status, etag2, second := postCoord(t, cs.URL, body, "")
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
	// Shards 1 and 2 were untouched: they revalidated.
	if st := coord.Stats().Coordinator; st.ResultShardHits != 2 {
		t.Fatalf("shard 304 reuses = %d, want 2 (untouched shards only)", st.ResultShardHits)
	}
}

// TestClusterShardRestartEpoch: a shard restart that lands on the same
// generation number but different content must NOT revalidate the old
// ETag — the per-process epoch makes the stale entry unusable and the
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
	coord, err := New(urls, Options{ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 0)
	body := mustMarshal(t, req)
	if status, _, raw := postCoord(t, cs.URL, body, ""); status != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", status, raw)
	}

	// "Restart" shard 0: a new store with the same number of puts (so
	// the generation counter collides with the old process) but one
	// candidate replaced by different data.
	st2, err := store.OpenWithOptions(t.TempDir(), store.OpenOptions{Backend: store.BackendMem})
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

	status, _, raw := postCoord(t, cs.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("post-restart query: status %d: %s", status, raw)
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
// partial — no coordinator ETag, no merged-cache entry — and recovery
// is never served from a degraded merge.
func TestClusterPartialNeverCached(t *testing.T) {
	tc := newTestCluster(t, 3, 31)
	coord := tc.coordinator(t, Options{
		ResultCacheBytes: 1 << 20,
		RequestTimeout:   2 * time.Second,
		Retries:          -1,
	})
	cs := httptest.NewServer(coord)
	defer cs.Close()

	req := tc.rankRequest(t, 10)
	body := mustMarshal(t, req)

	// Warm the full merge first, then lose a shard.
	prime(t, cs.URL, body)
	if status, etag, _ := postCoord(t, cs.URL, body, ""); status != http.StatusOK || etag == "" {
		t.Fatalf("warmup: status %d etag %q", status, etag)
	}
	tc.shards[1].Close()

	for pass := 0; pass < 2; pass++ {
		status, etag, raw := postCoord(t, cs.URL, body, "")
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
	if st := coord.Stats().Coordinator; st.ResultMergedHits != 0 {
		t.Fatalf("merged replays = %d during degraded service, want 0", st.ResultMergedHits)
	}

	// A shard that answers round 1 and is gone before round 2: its seeds
	// are in hand, and the answer is still partial, untagged and uncached.
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
	coord2, err := New([]string{flaky.URL, tc.shards[2].URL}, Options{ResultCacheBytes: 1 << 20, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	cs2 := httptest.NewServer(coord2)
	defer cs2.Close()
	for pass := 0; pass < 3; pass++ { // first sight, cached, revalidated
		status, etag, raw := postCoord(t, cs2.URL, body, "")
		var rr RankResponse
		mustUnmarshal(t, raw, &rr)
		if status != http.StatusOK || !rr.Partial || etag != "" || len(rr.ShardErrors) != 1 || rr.ShardErrors[0].Shard != flaky.URL {
			t.Fatalf("round-2 loss, pass %d: status %d etag %q: %s", pass, status, etag, raw)
		}
	}
	// Only the two seed answers are cached (beside the digest's marker) —
	// each authoritative for its shard — and the last pass revalidated both.
	if st := coord2.Stats().Coordinator; st.ResultMergedHits != 0 || st.ResultEntries != 3 || st.ResultShardHits != 2 || st.Round2Requests < 2 {
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
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	for _, top := range []int{0, 5} {
		req := tc.rankRequest(t, top)
		want := tc.singleNodeRank(t, req).Ranked
		for pass := 0; pass < 3; pass++ {
			status, etag, raw := postCoord(t, cs.URL, mustMarshal(t, req), "")
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
	if st := coord.Stats().Coordinator; st.ResultMergedHits != 0 || st.FloorQueries == 0 {
		t.Fatalf("%+v: want seeded queries and no merged replay", st)
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
// merged from full shard bodies, merged from revalidated ones, replayed
// from the cache, shared with a coalesced request, or (cache off) merged
// again from scratch — is the same bytes. Shard 0 answers through a gate
// so that concurrent requests meet in one flight.
func TestStrongETagMeansSameBytes(t *testing.T) {
	for _, cacheBytes := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			tc := newTestCluster(t, 2, 24)
			var gate atomic.Pointer[chan struct{}]
			gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if g := gate.Load(); g != nil {
					<-*g
				}
				tc.shards[0].Config.Handler.ServeHTTP(w, r)
			}))
			defer gated.Close()
			coord, err := New([]string{gated.URL, tc.shards[1].URL}, Options{ResultCacheBytes: cacheBytes})
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
			// First sight (full bodies, nothing kept), second (full bodies,
			// kept), third (every shard revalidates, the merge is replayed).
			body := mustMarshal(t, tc.rankRequest(t, 5))
			etag, _, first := post(body)
			for i, wantCache := range []string{"miss", "hit"} {
				if cacheBytes == 0 {
					wantCache = "miss"
				}
				e, timing, raw := post(body)
				if e != etag || !bytes.Equal(raw, first) {
					t.Fatalf("repeat %d: ETag %q and body\n%s\nafter ETag %q and body\n%s", i, e, raw, etag, first)
				}
				if !strings.HasPrefix(timing, "cache;desc="+wantCache+", rank;dur=") {
					t.Fatalf("repeat %d: Server-Timing %q, want a %s", i, timing, wantCache)
				}
			}
			if cacheBytes == 0 {
				return // nothing coalesces without the flight table
			}
			open := make(chan struct{})
			gate.Store(&open)
			body = mustMarshal(t, tc.rankRequest(t, 6))
			type answer struct {
				etag, timing string
				raw          []byte
			}
			answers := make(chan answer, 3)
			for i := 0; i < cap(answers); i++ {
				go func() {
					e, timing, raw := post(body)
					answers <- answer{e, timing, raw}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); coord.flights.Coalesced() < int64(cap(answers))-1; {
				if time.Now().After(deadline) {
					t.Fatal("the concurrent requests never coalesced")
				}
				time.Sleep(time.Millisecond)
			}
			gate.Store(nil)
			close(open)
			a := <-answers
			how := map[string]int{}
			for i := 0; i < cap(answers); i++ {
				b := a
				if i > 0 {
					b = <-answers
				}
				cache, _, _ := strings.Cut(b.timing, ",")
				how[cache]++
				if b.etag != a.etag || b.etag == etag || !bytes.Equal(b.raw, a.raw) {
					t.Fatalf("concurrent: ETag %q and body\n%s\nbeside ETag %q and body\n%s", b.etag, b.raw, a.etag, a.raw)
				}
			}
			if how["cache;desc=miss"] != 1 || how["cache;desc=coalesced"] != cap(answers)-1 {
				t.Fatalf("concurrent: Server-Timing said %v, want one miss and the rest coalesced", how)
			}
		})
	}
}
