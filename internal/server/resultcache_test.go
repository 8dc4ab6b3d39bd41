package server

// Tests for the generation-fenced result cache: the bit-identity
// contract against the uncached reference path, generation fencing
// under concurrent mutation, what a coalesced request is served,
// canonicalization, and the ETag revalidation protocol. (LRU eviction
// accounting and the flight refcount are pinned in internal/cache.)

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/store"
)

// elapsedRE blanks the one legitimately nondeterministic response
// field so bodies can be compared byte-for-byte.
var elapsedRE = regexp.MustCompile(`"elapsed_ns":\d+`)

func normalizeElapsed(b []byte) []byte {
	return elapsedRE.ReplaceAll(b, []byte(`"elapsed_ns":0`))
}

// postRaw posts body and returns (status, headers, raw body).
func postRaw(t testing.TB, url, path string, body []byte, hdr http.Header) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
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
	return resp.StatusCode, resp.Header, raw
}

// TestResultCacheBitIdentical is the correctness gate: a cache-enabled
// server must answer every query — cold, warm-hit, and batch — with
// bytes identical to a cache-disabled server over the same store
// (timing field aside).
func TestResultCacheBitIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildCorpus(t, st, 30)
	uncached := httptest.NewServer(New(st, Options{}))
	defer uncached.Close()
	cached := httptest.NewServer(New(st, Options{ResultCacheBytes: 1 << 20}))
	defer cached.Close()

	minJoin := 10
	queries := [][]byte{
		mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 12}),
		mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 5}),
		mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/c01", MinJoin: &minJoin, NoCascade: true}),
	}
	for qi, q := range queries {
		for pass := 0; pass < 3; pass++ { // cold, hit, hit
			su, _, bu := postRaw(t, uncached.URL, "/v1/rank", q, nil)
			sc, hc, bc := postRaw(t, cached.URL, "/v1/rank", q, nil)
			if su != http.StatusOK || sc != http.StatusOK {
				t.Fatalf("q%d pass%d: status %d/%d: %s %s", qi, pass, su, sc, bu, bc)
			}
			nu, nc := normalizeElapsed(bu), normalizeElapsed(bc)
			if pass == 0 {
				// The cold pass differs only in probe_cached (both
				// false) and timing; it must already be identical.
				if !bytes.Equal(nu, nc) {
					t.Fatalf("q%d cold: cached body diverges:\n%s\n%s", qi, nu, nc)
				}
				continue
			}
			if !bytes.Equal(nu, nc) {
				t.Fatalf("q%d pass%d: cached hit diverges from uncached:\n%s\n%s", qi, pass, nu, nc)
			}
			if hc.Get("ETag") == "" {
				t.Fatalf("q%d pass%d: cached response missing ETag", qi, pass)
			}
		}
	}

	// Batch: two trains sharing the corpus seed.
	batch := mustJSON(t, RankBatchRequest{
		Trains: []BatchTrainRef{
			{Name: "a", Sketch: sketchBase64(t, train)},
			{Name: "b", Train: "corpus/c000"},
		},
		Prefix: "corpus/", MinJoin: &minJoin, Top: 7,
	})
	_ = batch
	for pass := 0; pass < 3; pass++ {
		su, _, bu := postRaw(t, uncached.URL, "/v1/rank/batch", batch, nil)
		sc, _, bc := postRaw(t, cached.URL, "/v1/rank/batch", batch, nil)
		if su != sc {
			t.Fatalf("batch pass%d: status %d vs %d: %s %s", pass, su, sc, bu, bc)
		}
		if su != http.StatusOK {
			// Both rejected identically (e.g. a candidate cannot be a
			// train); the bodies must still agree.
			if !bytes.Equal(bu, bc) {
				t.Fatalf("batch pass%d: error bodies diverge:\n%s\n%s", pass, bu, bc)
			}
			break
		}
		if !bytes.Equal(normalizeElapsed(bu), normalizeElapsed(bc)) {
			t.Fatalf("batch pass%d: bodies diverge:\n%s\n%s", pass, bu, bc)
		}
	}

	// The cached server must actually have been hitting.
	srvStats := statsOf(t, cached.URL)
	if srvStats.ResultHits == 0 {
		t.Fatalf("cache-enabled server recorded no hits: %+v", srvStats)
	}
	if srvStats.ResultBytes <= 0 || srvStats.ResultEntries == 0 {
		t.Fatalf("cache accounting empty after hits: %+v", srvStats)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func statsOf(t testing.TB, url string) ServerStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.Server
}

// TestResultCacheInvalidation: a Put or Delete between two identical
// queries must surface in the second answer — the generation fence
// makes the first answer unreachable.
func TestResultCacheInvalidation(t *testing.T) {
	_, ts, st, train := newTestServer(t, 12, Options{ResultCacheBytes: 1 << 20})
	minJoin := -1
	q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, Top: 0})

	_, _, first := postRaw(t, ts.URL, "/v1/rank", q, nil)
	// Mutate: drop one candidate that the first answer contained.
	var fr RankResponse
	if err := json.Unmarshal(first, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Ranked) == 0 {
		t.Fatal("first answer ranked nothing")
	}
	victim := fr.Ranked[0].Name
	if err := st.Delete(victim); err != nil {
		t.Fatal(err)
	}
	_, _, second := postRaw(t, ts.URL, "/v1/rank", q, nil)
	var sr RankResponse
	if err := json.Unmarshal(second, &sr); err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Ranked {
		if r.Name == victim {
			t.Fatalf("deleted candidate %q still ranked: stale cached answer", victim)
		}
	}
	if len(sr.Ranked) != len(fr.Ranked)-1 {
		t.Fatalf("second answer ranked %d, want %d", len(sr.Ranked), len(fr.Ranked)-1)
	}
}

// TestCoalescedWaiterGetsError: a request that joins an in-flight
// identical query is served the leader's exact status and body — an
// error included, counted against the endpoint — and one whose client
// gives up while waiting is a rejection, not a failure. The test holds
// the flight itself, so the HTTP requests are waiters by construction.
func TestCoalescedWaiterGetsError(t *testing.T) {
	srv, ts, st, train := newTestServer(t, 4, Options{ResultCacheBytes: 1 << 20})
	var raw bytes.Buffer
	if _, err := train.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 3})
	p := resolveRankParams("corpus/", nil, 0, 3, 0, false, 0, srv.opt.MaxWorkers)
	p.floors = []float64{0} // the handler digests one floor per train
	key := cacheKey{digest: canonicalRankDigest(sha256.Sum256(raw.Bytes()), p), gen: st.Gen()}

	f, leader, release := srv.flights.Join(context.Background(), key)
	defer release()
	if !leader {
		t.Fatal("test did not get to lead the flight")
	}
	awaitCoalesced := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); srv.flights.Coalesced() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never joined the flight", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A waiter whose client goes away: 503-class outcome for nobody to
	// read, one rejection, no failure.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/rank", bytes.NewReader(q))
		_, err := http.DefaultClient.Do(req)
		gone <- err
	}()
	awaitCoalesced(1)
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("cancelled waiter got an answer")
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Server.RankRejected != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("rank_rejected = %d, want 1", srv.Stats().Server.RankRejected)
		}
		time.Sleep(time.Millisecond)
	}

	// A waiter that stays: the leader's error, verbatim, without an ETag.
	type answer struct {
		status int
		hdr    http.Header
		body   []byte
	}
	got := make(chan answer, 1)
	go func() {
		status, hdr, body := postRaw(t, ts.URL, "/v1/rank", q, nil)
		got <- answer{status, hdr, body}
	}()
	awaitCoalesced(2)
	errBody := []byte(`{"error":"rank: boom"}` + "\n")
	srv.flights.Finish(key, f, Outcome{Status: http.StatusInternalServerError, Body: errBody})
	a := <-got
	if a.status != http.StatusInternalServerError || !bytes.Equal(a.body, errBody) || a.hdr.Get("ETag") != "" {
		t.Fatalf("waiter saw %d %q etag %q, want the leader's 500 body and no ETag", a.status, a.body, a.hdr.Get("ETag"))
	}
	ss := srv.Stats().Server
	if ss.RankFailures != 1 || ss.ResultCoalesced != 2 || ss.ResultEntries != 0 {
		t.Fatalf("failures %d coalesced %d entries %d, want 1, 2 and nothing cached", ss.RankFailures, ss.ResultCoalesced, ss.ResultEntries)
	}
	// The flight is spent: the same query now computes, and succeeds.
	if status, _, body := postRaw(t, ts.URL, "/v1/rank", q, nil); status != http.StatusOK {
		t.Fatalf("post-failure query: %d %s", status, body)
	}
}

// TestRankETagRevalidation: ETags revalidate for free until a mutation
// moves the generation, with or without the result cache.
func TestRankETagRevalidation(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			_, ts, st, train := newTestServer(t, 10, Options{ResultCacheBytes: cacheBytes})
			q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 5})

			status, hdr, body := postRaw(t, ts.URL, "/v1/rank", q, nil)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			etag := hdr.Get("ETag")
			if etag == "" {
				t.Fatal("no ETag on rank response")
			}

			inm := http.Header{"If-None-Match": {etag}}
			status, hdr, body = postRaw(t, ts.URL, "/v1/rank", q, inm)
			if status != http.StatusNotModified {
				t.Fatalf("revalidation: status %d, want 304: %s", status, body)
			}
			if len(body) != 0 {
				t.Fatalf("304 carried a body: %q", body)
			}
			if hdr.Get("ETag") != etag {
				t.Fatalf("304 ETag %q, want %q", hdr.Get("ETag"), etag)
			}
			// A wildcard and a multi-member list also match.
			for _, v := range []string{"*", `"nope", ` + etag, "W/" + etag} {
				status, _, _ = postRaw(t, ts.URL, "/v1/rank", q, http.Header{"If-None-Match": {v}})
				if status != http.StatusNotModified {
					t.Fatalf("If-None-Match %q: status %d, want 304", v, status)
				}
			}

			// A mutation must break revalidation and change the ETag.
			if err := st.Delete("corpus/c000"); err != nil {
				t.Fatal(err)
			}
			status, hdr, body = postRaw(t, ts.URL, "/v1/rank", q, inm)
			if status != http.StatusOK {
				t.Fatalf("post-mutation revalidation: status %d, want 200: %s", status, body)
			}
			if hdr.Get("ETag") == etag {
				t.Fatal("ETag unchanged across a mutation")
			}
		})
	}
}

// TestGenerationFencingHammer is the -race stale-read hammer: rankers
// hit a cache-enabled server while a mutator deletes and re-puts a
// sentinel candidate. Any response whose query began after a mutation
// completed — with no further mutation in flight — must reflect it.
func TestGenerationFencingHammer(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildCorpus(t, st, 8)
	// The sentinel: one more candidate, joinable like the corpus.
	sentinel := "corpus/sentinel"
	mkSentinel := func() *core.Sketch {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 64})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 90; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7))
		}
		return cb.Sketch()
	}
	if err := st.Put(sentinel, mkSentinel()); err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{ResultCacheBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	minJoin := -1
	q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, Top: 0})

	// done counts completed mutations; started counts begun ones. The
	// sentinel is present after an even number of mutations (delete on
	// odd transitions, re-put on even).
	var started, done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			started.Add(1)
			if i%2 == 0 {
				if err := st.Delete(sentinel); err != nil {
					t.Errorf("delete sentinel: %v", err)
					return
				}
			} else {
				if err := st.Put(sentinel, mkSentinel()); err != nil {
					t.Errorf("put sentinel: %v", err)
					return
				}
			}
			done.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var quiescent atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d0 := done.Load()
				status, _, body := postRaw(t, ts.URL, "/v1/rank", q, nil)
				s1 := started.Load()
				if status != http.StatusOK {
					t.Errorf("rank: status %d: %s", status, body)
					return
				}
				var rr RankResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Errorf("decoding: %v", err)
					return
				}
				present := false
				for _, r := range rr.Ranked {
					if r.Name == sentinel {
						present = true
					}
				}
				if s1 == d0 {
					// Quiescent window: the answer must reflect exactly
					// the state after d0 mutations. Present iff even.
					quiescent.Add(1)
					if want := d0%2 == 0; present != want {
						t.Errorf("stale read: %d mutations done, sentinel present=%v want %v",
							d0, present, want)
						return
					}
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if quiescent.Load() == 0 {
		t.Log("no quiescent-window queries observed; fencing unasserted this run")
	}
}

// TestCanonicalization pins the request-equivalence contract directly:
// semantically equal requests share a key, distinct ones never do.
func TestCanonicalization(t *testing.T) {
	var dig probeDigest
	dig[3] = 7
	maxW := 8
	base := resolveRankParams("p/", nil, 0, 10, 0, false, 0, maxW)

	equal := []rankParams{
		resolveRankParams("p/", intp(defaultMinJoin), 0, 10, 0, false, 0, maxW),         // explicit default min_join
		resolveRankParams("p/", nil, 5, 10, 0, false, 0, maxW),                          // k default == 5? resolved below
		resolveRankParams("p/", nil, 0, 10, maxW, false, 0, maxW),                       // workers explicit == clamp
		resolveRankParams("p/", nil, 0, 10, maxW+9, false, 0, maxW),                     // workers over-ask clamps
		resolveRankParams("p/", nil, 0, 10, 0, false, store.DefaultCascadeMargin, maxW), // explicit default margin
	}
	// Entry 1 is only equal if mi.DefaultK is 5; drop it otherwise.
	if equal[1].k != base.k {
		equal = append(equal[:1], equal[2:]...)
	}
	baseKey := canonicalRankDigest(dig, base)
	for i, p := range equal {
		if canonicalRankDigest(dig, p) != baseKey {
			t.Errorf("equivalent request %d produced a different key: %+v vs %+v", i, p, base)
		}
	}

	distinct := []rankParams{
		resolveRankParams("p/x", nil, 0, 10, 0, false, 0, maxW),
		resolveRankParams("p/", intp(0), 0, 10, 0, false, 0, maxW),
		resolveRankParams("p/", nil, 0, 11, 0, false, 0, maxW),
		resolveRankParams("p/", nil, 0, 10, 1, false, 0, maxW),
		resolveRankParams("p/", nil, 0, 10, 0, true, 0, maxW),
		resolveRankParams("p/", nil, 0, 10, 0, false, 0.9, maxW),
		resolveRankParams("p/", nil, 0, 10, 0, false, -1, maxW),
	}
	for i, p := range distinct {
		if canonicalRankDigest(dig, p) == baseKey {
			t.Errorf("distinct request %d collided with base: %+v", i, p)
		}
	}
	var dig2 probeDigest
	dig2[3] = 8
	if canonicalRankDigest(dig2, base) == baseKey {
		t.Error("different train digest collided")
	}

	// Batch: order matters, and a batch never collides with a single
	// rank even over the same train.
	a, b := dig, dig2
	k1 := canonicalBatchDigest([]string{"a", "b"}, []probeDigest{a, b}, base)
	k2 := canonicalBatchDigest([]string{"b", "a"}, []probeDigest{b, a}, base)
	if k1 == k2 {
		t.Error("reordered batch trains collided")
	}
	if canonicalBatchDigest([]string{"a"}, []probeDigest{a}, base) == canonicalRankDigest(a, base) {
		t.Error("single-train batch collided with plain rank")
	}
}

func intp(v int) *int { return &v }

// TestETagEpochDiffersAcrossServers: two server processes over the
// same catalog at the same generation must emit different ETags — the
// per-process epoch is what stops a client (or coordinator) from
// revalidating a pre-restart answer against a restarted server whose
// generation counter happens to coincide.
func TestETagEpochDiffersAcrossServers(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildCorpus(t, st, 5)
	ts1 := httptest.NewServer(New(st, Options{}))
	defer ts1.Close()
	ts2 := httptest.NewServer(New(st, Options{}))
	defer ts2.Close()

	q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 3})
	_, h1, _ := postRaw(t, ts1.URL, "/v1/rank", q, nil)
	_, h2, _ := postRaw(t, ts2.URL, "/v1/rank", q, nil)
	e1, e2 := h1.Get("ETag"), h2.Get("ETag")
	if e1 == "" || e2 == "" {
		t.Fatalf("missing ETags: %q %q", e1, e2)
	}
	if e1 == e2 {
		t.Fatal("identical ETags across two server incarnations: epoch not applied")
	}
	// Cross-incarnation revalidation must miss.
	status, _, _ := postRaw(t, ts2.URL, "/v1/rank", q, http.Header{"If-None-Match": {e1}})
	if status != http.StatusOK {
		t.Fatalf("cross-incarnation If-None-Match: status %d, want 200", status)
	}
}
