package server

// Tests for the generation-fenced result cache: the byte-identity
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
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/store"
)

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
// bytes identical to a cache-disabled server over the same store.
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
			if !bytes.Equal(bu, bc) {
				t.Fatalf("q%d pass%d: cached body diverges from uncached:\n%s\n%s", qi, pass, bu, bc)
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
		if !bytes.Equal(bu, bc) {
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

// TestResultCacheDropsStaleGenerations: entries of a generation a
// mutation has left behind, which no new query can reach, go when the
// first answer of a newer generation is cached; an answer computed under
// an older generation than the newest cached one is not kept. A digest's
// first-sight marker outlives every generation: after the Delete each
// query is kept on its first miss.
func TestResultCacheDropsStaleGenerations(t *testing.T) {
	srv, ts, st, train := newTestServer(t, 12, Options{ResultCacheBytes: 1 << 20})
	rank := func(top int) {
		t.Helper()
		q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: top})
		if status, _, body := postRaw(t, ts.URL, "/v1/rank", q, nil); status != http.StatusOK {
			t.Fatalf("top %d: status %d: %s", top, status, body)
		}
	}
	entries := func(label string, want int) {
		t.Helper()
		if s := statsOf(t, ts.URL); s.ResultEntries != want {
			t.Fatalf("%s: %d result entries, want %d", label, s.ResultEntries, want)
		}
	}
	for _, top := range []int{3, 5, 0} {
		rank(top)
	}
	entries("three markers", 3)
	for _, top := range []int{3, 5, 0} {
		rank(top)
	}
	entries("three markers and three answers of one generation", 6)
	if err := st.Delete("corpus/c000"); err != nil {
		t.Fatal(err)
	}
	entries("after a Delete, before any answer", 6)
	rank(5)
	entries("after the new generation's first answer", 4)
	rank(3)
	entries("after its second", 5)
	srv.cacheResult(cacheKey{gen: st.Gen() - 1}, []byte("{}\n"), 200)
	entries("after an older generation's answer", 5)
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
	req := RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 3}
	q := mustJSON(t, req)
	key := cacheKey{digest: rankKey(t, sha256.Sum256(raw.Bytes()), req, srv.opt.MaxWorkers), gen: st.Gen()}

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

// TestNotModifiedCountedWithoutCache: a node with no result cache still
// answers If-None-Match with 304, and result_not_modified counts each one
// on both rank endpoints.
func TestNotModifiedCountedWithoutCache(t *testing.T) {
	_, ts, _, train := newTestServer(t, 10, Options{ResultCacheBytes: 0})
	mj := 10
	for i, q := range []struct{ path, body string }{
		{"/v1/rank", string(mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &mj, Top: 5}))},
		{"/v1/rank/batch", string(mustJSON(t, RankBatchRequest{Trains: []BatchTrainRef{{Name: "q", Sketch: sketchBase64(t, train)}}, Prefix: "corpus/", MinJoin: &mj, Top: 5}))},
	} {
		_, hdr, _ := postRaw(t, ts.URL, q.path, []byte(q.body), nil)
		status, _, raw := postRaw(t, ts.URL, q.path, []byte(q.body), http.Header{"If-None-Match": {hdr.Get("ETag")}})
		if status != http.StatusNotModified || len(raw) != 0 {
			t.Fatalf("%s: status %d, body %q; want a bodyless 304", q.path, status, raw)
		}
		if s := statsOf(t, ts.URL); s.ResultNotModified != int64(i+1) || s.ResultEntries != 0 {
			t.Fatalf("%s: result_not_modified %d, %d entries; want %d and none", q.path, s.ResultNotModified, s.ResultEntries, i+1)
		}
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

// rankKey is the canonical digest the /v1/rank handler computes for req
// over a train whose content digest is dig.
func rankKey(t testing.TB, dig trainDigest, req RankRequest, maxWorkers int) [sha256.Size]byte {
	t.Helper()
	batch := req.asBatch()
	opt, err := batch.options(maxWorkers)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalDigest(rankEndpoint().what, []string{batch.Trains[0].Name}, []trainDigest{dig}, opt)
}

// TestCanonicalization pins the request-equivalence contract directly:
// semantically equal requests share a key, distinct ones never do.
func TestCanonicalization(t *testing.T) {
	var dig trainDigest
	dig[3] = 7
	maxW := 8
	base := RankRequest{Prefix: "p/", Top: 10}
	baseKey := rankKey(t, dig, base, maxW)

	equal := []RankRequest{
		{Prefix: "p/", Top: 10, MinJoin: intp(defaultMinJoin)}, // explicit default min_join
		{Prefix: "p/", Top: 10, K: mi.DefaultK},                // explicit default k
		// The worker count cannot move an answer, asked for or clamped.
		{Prefix: "p/", Top: 10, Workers: 1},
		{Prefix: "p/", Top: 10, Workers: maxW},
		{Prefix: "p/", Top: 10, Workers: maxW + 9},
		{Prefix: "p/", Top: 10, MinMI: math.Copysign(0, -1)}, // -0 is the floor 0
	}
	for i, req := range equal {
		if rankKey(t, dig, req, maxW) != baseKey {
			t.Errorf("equivalent request %d produced a different key: %+v vs %+v", i, req, base)
		}
	}

	distinct := []RankRequest{
		{Prefix: "p/x", Top: 10},
		{Prefix: "p/", Top: 10, MinJoin: intp(0)},
		{Prefix: "p/", Top: 11},
		{Prefix: "p/", Top: 10, K: mi.DefaultK + 1},
		{Prefix: "p/", Top: 10, NoCascade: true},
		{Prefix: "p/", Top: 10, Seed: true},
		{Prefix: "p/", Top: 10, MinMI: math.SmallestNonzeroFloat64},
	}
	for i, req := range distinct {
		if rankKey(t, dig, req, maxW) == baseKey {
			t.Errorf("distinct request %d collided with base: %+v", i, req)
		}
	}
	var dig2 trainDigest
	dig2[3] = 8
	if rankKey(t, dig2, base, maxW) == baseKey {
		t.Error("different train digest collided")
	}

	// Batch: order matters, and a batch never collides with a single
	// rank even over the same train under the same (empty) name.
	opt, err := base.asBatch().options(maxW)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchEndpoint().what
	a, b := dig, dig2
	k1 := canonicalDigest(batch, []string{"a", "b"}, []trainDigest{a, b}, opt)
	k2 := canonicalDigest(batch, []string{"b", "a"}, []trainDigest{b, a}, opt)
	if k1 == k2 {
		t.Error("reordered batch trains collided")
	}
	if canonicalDigest(batch, []string{""}, []trainDigest{a}, opt) == baseKey {
		t.Error("single-train batch collided with plain rank")
	}
}

// TestDigestCoversRankOptions holds the canonical digest to the options
// type by reflection: changing any field of store.RankOptions must change
// the digest, unless the field is declared here as unable to move an
// answer. A field added later lands on one side or the other in the open —
// it cannot silently merge two answers under one cache key, or split one.
func TestDigestCoversRankOptions(t *testing.T) {
	answerNeutral := map[string]bool{
		"Workers": true, // rankings are bit-identical at every fan-out
	}
	base := store.RankOptions{
		Prefix: "p/", MinJoinSize: 100, K: 3, TopK: 10, Workers: 2,
		CascadeMargin: store.DefaultCascadeMargin, MinMI: []float64{0.5},
	}
	var dig trainDigest
	key := func(opt store.RankOptions) [sha256.Size]byte {
		return canonicalDigest("rank", []string{""}, []trainDigest{dig}, opt)
	}
	typ := reflect.TypeOf(base)
	seen := 0
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		flipped := base
		switch f := reflect.ValueOf(&flipped).Elem().Field(i); f.Interface().(type) {
		case string:
			f.SetString(f.String() + "x")
		case int:
			f.SetInt(f.Int() + 1)
		case bool:
			f.SetBool(!f.Bool())
		case float64:
			f.SetFloat(f.Float() + 0.25)
		case []float64:
			f.Set(reflect.ValueOf([]float64{0.75}))
		default:
			t.Fatalf("RankOptions.%s has type %s: teach this test to flip it", name, f.Type())
		}
		if changed := key(flipped) != key(base); changed == answerNeutral[name] {
			t.Errorf("RankOptions.%s: digest changed = %v, declared answer-neutral = %v", name, changed, answerNeutral[name])
		}
		if answerNeutral[name] {
			seen++
		}
	}
	if seen != len(answerNeutral) {
		t.Errorf("answerNeutral names %d fields RankOptions does not have", len(answerNeutral)-seen)
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

// TestStrongETagMeansSameBytes: RFC 9110 §8.8.1 lets a strong ETag name
// one byte string. Every 200 of one request on one store generation
// carries the same ETag, so every one of them must carry the same bytes —
// the first computation, a replay from the result cache, a coalesced
// wait behind another request's computation, and (cache off) each repeat
// computed from scratch. What differs between them is the Server-Timing
// header, which says which of those a request was.
func TestStrongETagMeansSameBytes(t *testing.T) {
	for _, cacheBytes := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			srv, ts, _, train := newTestServer(t, 30, Options{ResultCacheBytes: cacheBytes, MaxWorkers: 2})
			b64 := sketchBase64(t, train)
			for path, bodies := range map[string][2][]byte{
				"/v1/rank": {
					mustJSON(t, RankRequest{Sketch: b64, Prefix: "corpus/", Top: 5}),
					mustJSON(t, RankRequest{Sketch: b64, Prefix: "corpus/", Top: 6}),
				},
				"/v1/rank/batch": {
					mustJSON(t, RankBatchRequest{Trains: []BatchTrainRef{{Name: "a", Sketch: b64}, {Name: "b", Sketch: b64}}, Prefix: "corpus/", Top: 5}),
					mustJSON(t, RankBatchRequest{Trains: []BatchTrainRef{{Name: "a", Sketch: b64}, {Name: "b", Sketch: b64}}, Prefix: "corpus/", Top: 6}),
				},
			} {
				// Sequential repeats: computed, computed again and kept (the
				// first sight only marks the digest), then replayed — or,
				// with the cache off, computed again on a kept plan.
				var etag string
				var first []byte
				for i, wantCache := range []string{"miss", "miss", "hit"} {
					if cacheBytes == 0 {
						wantCache = "miss"
					}
					status, hdr, body := postRaw(t, ts.URL, path, bodies[0], nil)
					if status != http.StatusOK || hdr.Get("ETag") == "" {
						t.Fatalf("%s #%d: status %d, ETag %q: %s", path, i, status, hdr.Get("ETag"), body)
					}
					if timing := hdr.Get("Server-Timing"); !strings.HasPrefix(timing, "cache;desc="+wantCache) ||
						strings.Contains(timing, "rank;dur=") != (wantCache == "miss") {
						t.Fatalf("%s #%d: Server-Timing %q, want a %s", path, i, timing, wantCache)
					}
					if i == 0 {
						etag, first = hdr.Get("ETag"), body
					} else if hdr.Get("ETag") != etag || !bytes.Equal(body, first) {
						t.Fatalf("%s #%d: ETag %q and body\n%s\nafter ETag %q and body\n%s", path, i, hdr.Get("ETag"), body, etag, first)
					}
				}
				if cacheBytes == 0 {
					continue // nothing coalesces without the flight table
				}
				// Concurrent identical misses: hold every worker slot so the
				// leader queues for capacity until the others have joined it.
				if err := srv.sem.acquire(context.Background(), srv.opt.MaxWorkers); err != nil {
					t.Fatal(err)
				}
				coalesced0 := srv.flights.Coalesced()
				type answer struct {
					hdr  http.Header
					body []byte
				}
				answers := make(chan answer, 3)
				for i := 0; i < cap(answers); i++ {
					go func() {
						status, hdr, body := postRaw(t, ts.URL, path, bodies[1], nil)
						if status != http.StatusOK {
							t.Errorf("%s concurrent: status %d: %s", path, status, body)
						}
						answers <- answer{hdr, body}
					}()
				}
				for deadline := time.Now().Add(5 * time.Second); srv.flights.Coalesced()-coalesced0 < int64(cap(answers))-1; {
					if time.Now().After(deadline) {
						t.Fatalf("%s: the concurrent requests never coalesced", path)
					}
					time.Sleep(time.Millisecond)
				}
				srv.sem.release(srv.opt.MaxWorkers)
				a := <-answers
				how := map[string]int{}
				for i := 0; i < cap(answers); i++ {
					b := a
					if i > 0 {
						b = <-answers
					}
					cache, _, _ := strings.Cut(b.hdr.Get("Server-Timing"), ",")
					how[cache]++
					if b.hdr.Get("ETag") != a.hdr.Get("ETag") || b.hdr.Get("ETag") == etag || !bytes.Equal(b.body, a.body) {
						t.Fatalf("%s concurrent: ETag %q and body\n%s\nbeside ETag %q and body\n%s", path, b.hdr.Get("ETag"), b.body, a.hdr.Get("ETag"), a.body)
					}
				}
				if how["cache;desc=miss"] != 1 || how["cache;desc=coalesced"] != cap(answers)-1 {
					t.Fatalf("%s concurrent: Server-Timing said %v, want one miss and the rest coalesced", path, how)
				}
				// The coalesced answer was its digest's first sight: the next
				// request computes it again and keeps it, the one after replays it.
				for _, want := range []string{"cache;desc=miss,", "cache;desc=hit"} {
					if _, hdr, body := postRaw(t, ts.URL, path, bodies[1], nil); !strings.HasPrefix(hdr.Get("Server-Timing"), want) || !bytes.Equal(body, a.body) {
						t.Fatalf("%s: the repeat of the coalesced answer (Server-Timing %q, want %s) differs:\n%s\n%s", path, hdr.Get("Server-Timing"), want, body, a.body)
					}
				}
			}
		})
	}
}
