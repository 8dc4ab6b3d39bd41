package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/store"
)

// buildCorpus fills st with nCand numeric candidate sketches under
// "corpus/" and returns a train sketch joinable against all of them.
func buildCorpus(t testing.TB, st *store.Store, nCand int) *core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	opt := core.Options{Method: core.TUPSK, Size: 64}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(90)), rng.NormFloat64())
	}
	train := tb.Sketch()
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 90; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
		}
		if err := st.Put(fmt.Sprintf("corpus/c%03d", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	return train
}

// newTestServer spins up a store, corpus, and HTTP test server.
func newTestServer(t testing.TB, nCand int, opt Options) (*Server, *httptest.Server, *store.Store, *core.Sketch) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildCorpus(t, st, nCand)
	srv := New(st, opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, st, train
}

// sketchBase64 serializes a sketch to the wire encoding of /v1/rank.
func sketchBase64(t testing.TB, sk *core.Sketch) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// rankViaHTTP posts a rank request and decodes the response.
func rankViaHTTP(t testing.TB, url string, req RankRequest) RankResponse {
	t.Helper()
	rr, _ := rankTimed(t, url, req)
	return rr
}

// rankTimed is rankViaHTTP plus the response's Server-Timing header.
func rankTimed(t testing.TB, url string, req RankRequest) (RankResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d: %s", resp.StatusCode, raw)
	}
	var rr RankResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("rank: decoding %q: %v", raw, err)
	}
	return rr, resp.Header.Get("Server-Timing")
}

// assertSameRanking compares an HTTP ranking to a direct RankQuery
// result bit-for-bit (names, MI values, estimators, join sizes, order).
func assertSameRanking(t testing.TB, got []RankedResult, want []store.RankedSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ranking length %d, want %d", len(got), len(want))
	}
	for i := range got {
		w := RankedResult{
			Name: want[i].Name, MI: want[i].MI,
			Estimator: string(want[i].Estimator), JoinSize: want[i].JoinSize,
		}
		if got[i] != w {
			t.Fatalf("rank[%d] = %+v, want %+v", i, got[i], w)
		}
	}
}

// TestRankMatchesDirect is the end-to-end contract: ranking through the
// HTTP service returns bit-for-bit the results of a direct
// Store.RankQuery call — same candidates, order, MI bits, estimators,
// join sizes — and both queries reuse the plan the library call left: a
// plan is keyed by the train's content, however it arrived.
func TestRankMatchesDirect(t *testing.T) {
	_, ts, st, train := newTestServer(t, 30, Options{})
	want, wantSkipped, err := st.RankQuery(context.Background(), train, store.RankOptions{
		Prefix: "corpus/", MinJoinSize: 10, K: 3, TopK: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty direct ranking")
	}

	minJoin := 10
	req := RankRequest{
		Sketch: sketchBase64(t, train), Prefix: "corpus/",
		MinJoin: &minJoin, K: 3, Top: 12,
	}
	first, timing := rankTimed(t, ts.URL, req)
	assertSameRanking(t, first.Ranked, want)
	if len(first.Skipped) != len(wantSkipped) {
		t.Fatalf("skipped %v, want %v", first.Skipped, wantSkipped)
	}
	if !strings.Contains(timing, "plan;desc=hit") {
		t.Fatalf("first query missed the library rank's plan: Server-Timing %q", timing)
	}

	second, timing := rankTimed(t, ts.URL, req)
	assertSameRanking(t, second.Ranked, want)
	if !strings.Contains(timing, "plan;desc=hit") {
		t.Fatalf("second identical query missed the plan: Server-Timing %q", timing)
	}

	// Top unset returns the full ranking, still bit-identical.
	wantAll, _, err := st.RankQuery(context.Background(), train, store.RankOptions{
		Prefix: "corpus/", MinJoinSize: 10, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	req.Top = 0
	all := rankViaHTTP(t, ts.URL, req)
	assertSameRanking(t, all.Ranked, wantAll)
}

// TestServerTimingViewBuild: the rank that builds the store's catalog
// view reports it as view;dur — the first after open, and the first after
// a Put dropped the view — and a rank that finds the view built does not.
func TestServerTimingViewBuild(t *testing.T) {
	_, ts, st, train := newTestServer(t, 12, Options{})
	minJoin := 10
	req := RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, K: 3}
	extra, err := st.Get("corpus/c000")
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		put  bool
		view bool
	}{{false, true}, {false, false}, {true, true}, {false, false}} {
		if step.put {
			if err := st.Put("corpus/extra", extra); err != nil {
				t.Fatal(err)
			}
		}
		if _, timing := rankTimed(t, ts.URL, req); strings.Contains(timing, ", view;dur=") != step.view {
			t.Fatalf("rank %d (after a put: %v): Server-Timing %q, want view;dur: %v", i, step.put, timing, step.view)
		}
	}
}

// TestServerTimingTierCounts: a cascaded rank says whether it reused its
// plan and how many of its exact-tier pairs the plan remembered, as
// plan;desc and exact;desc="remembered/exact" — a second `top` of one
// train reuses the first's plan and answers — and a rank without the
// cascade says neither.
func TestServerTimingTierCounts(t *testing.T) {
	_, ts, _, train := newTestServer(t, 30, Options{})
	minJoin := 10
	req := RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 5}
	tiers := regexp.MustCompile(`, plan;desc=(hit|miss), exact;desc="(\d+)/(\d+)"$`)
	for _, step := range []struct {
		top      int
		plan     string
		remember bool
	}{{5, "miss", false}, {8, "hit", true}} {
		req.Top = step.top
		_, timing := rankTimed(t, ts.URL, req)
		m := tiers.FindStringSubmatch(timing)
		if m == nil {
			t.Fatalf("top %d: Server-Timing %q carries no plan and exact entries", step.top, timing)
		}
		memo, _ := strconv.Atoi(m[2])
		exact, _ := strconv.Atoi(m[3])
		if m[1] != step.plan || (memo > 0) != step.remember || memo > exact || exact == 0 {
			t.Fatalf("top %d: Server-Timing %q, want plan;desc=%s and remembered answers: %v", step.top, timing, step.plan, step.remember)
		}
	}
	req.Top = 0
	if _, timing := rankTimed(t, ts.URL, req); strings.Contains(timing, "plan;") || strings.Contains(timing, "exact;") {
		t.Fatalf("rank without the cascade: Server-Timing %q", timing)
	}
}

// TestServerTimingSideHits: a rank that ran phase 1 says how many of the
// candidates it visited it answered without a load, as
// phase1;desc="hits/visited". Fresh trains on one key sample leave a
// marker, then the candidate sides, and from the third on load nothing in
// phase 1; a plan hit runs no phase 1 and says nothing of it.
func TestServerTimingSideHits(t *testing.T) {
	_, ts, st, train := newTestServer(t, 20, Options{})
	minJoin := 10
	phase1 := regexp.MustCompile(`, phase1;desc="(\d+)/(\d+)", plan;desc=miss`)
	var req RankRequest
	for i, want := range []string{"0/20", "0/20", "20/20"} {
		fresh := &core.Sketch{Method: train.Method, Role: train.Role, Seed: train.Seed, Size: train.Size, Numeric: true,
			KeyHashes: train.KeyHashes, Nums: make([]float64, len(train.Nums)), SourceRows: train.SourceRows}
		for j, v := range train.Nums {
			fresh.Nums[j] = v + float64(i)
		}
		req = RankRequest{Sketch: sketchBase64(t, fresh), Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 5}
		if _, timing := rankTimed(t, ts.URL, req); phase1.FindStringSubmatch(timing) == nil || !strings.Contains(timing, `"`+want+`"`) {
			t.Fatalf("fresh train %d: Server-Timing %q, want phase1;desc=%q", i, timing, want)
		}
	}
	if ss := st.Stats(); ss.SideHits != 20 || ss.SideFills != 20 {
		t.Fatalf("side_hits %d, side_fills %d; want 20 and 20", ss.SideHits, ss.SideFills)
	}
	req.Top = 8
	if _, timing := rankTimed(t, ts.URL, req); !strings.Contains(timing, "plan;desc=hit") || strings.Contains(timing, "phase1;") {
		t.Fatalf("a plan hit: Server-Timing %q", timing)
	}
}

// TestServerTimingPinned pins whole Server-Timing headers, each dur=
// value masked, so an entry that moves, changes shape or goes missing
// fails: a rank that built the catalog view and ran phase 1, a plan miss
// on a known key sample, a plan hit, a rank without the cascade and a
// batch of two trains. One worker keeps the exact-tier counts fixed.
func TestServerTimingPinned(t *testing.T) {
	_, ts, _, train := newTestServer(t, 20, Options{MaxWorkers: 2})
	minJoin := 10
	fresh := func(d float64) string {
		sk := &core.Sketch{Method: train.Method, Role: train.Role, Seed: train.Seed, Size: train.Size, Numeric: true,
			KeyHashes: train.KeyHashes, Nums: make([]float64, len(train.Nums)), SourceRows: train.SourceRows}
		for j, v := range train.Nums {
			sk.Nums[j] = v + d
		}
		return sketchBase64(t, sk)
	}
	base, shifted := sketchBase64(t, train), fresh(1)
	one := func(sketch string, top int, noCascade bool) RankRequest {
		return RankRequest{Sketch: sketch, Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: top, Workers: 1, NoCascade: noCascade}
	}
	dur := regexp.MustCompile(`dur=[0-9.]+`)
	for _, step := range []struct {
		label, path string
		req         any
		want        string
	}{
		{"view built", "/v1/rank", one(base, 5, false),
			`cache;desc=miss, rank;dur=#, workers;desc=1, view;dur=#, phase1;desc="0/20", plan;desc=miss, exact;desc="0/20"`},
		{"plan miss", "/v1/rank", one(shifted, 5, false),
			`cache;desc=miss, rank;dur=#, workers;desc=1, phase1;desc="0/20", plan;desc=miss, exact;desc="0/20"`},
		{"plan hit", "/v1/rank", one(shifted, 8, false),
			`cache;desc=miss, rank;dur=#, workers;desc=1, plan;desc=hit, exact;desc="20/20"`},
		{"no cascade", "/v1/rank", one(base, 5, true),
			`cache;desc=miss, rank;dur=#, workers;desc=1, phase1;desc="0/20"`},
		{"two trains", "/v1/rank/batch", RankBatchRequest{Trains: []BatchTrainRef{{Name: "a", Sketch: base}, {Name: "b", Sketch: fresh(2)}},
			Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 5, Workers: 1},
			`cache;desc=miss, rank;dur=#, workers;desc=1, phase1;desc="0/20", plan;desc=miss, exact;desc="0/40"`},
	} {
		status, hdr, raw := postRaw(t, ts.URL, step.path, mustJSON(t, step.req), nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.label, status, raw)
		}
		if got := dur.ReplaceAllString(hdr.Get("Server-Timing"), "dur=#"); got != step.want {
			t.Errorf("%s: Server-Timing\n got %s\nwant %s", step.label, got, step.want)
		}
	}
}

// TestRankByStoredTrain ranks by referencing a stored train sketch
// instead of uploading one; results must match the upload path exactly.
func TestRankByStoredTrain(t *testing.T) {
	_, ts, st, train := newTestServer(t, 12, Options{})
	if err := st.Put("query/train", train); err != nil {
		t.Fatal(err)
	}
	minJoin := 10
	byName := rankViaHTTP(t, ts.URL, RankRequest{Train: "query/train", Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 12})
	byUpload, timing := rankTimed(t, ts.URL, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 12})
	if len(byName.Ranked) == 0 {
		t.Fatal("empty ranking")
	}
	for i := range byName.Ranked {
		if byName.Ranked[i] != byUpload.Ranked[i] {
			t.Fatalf("rank[%d]: by-name %+v != by-upload %+v", i, byName.Ranked[i], byUpload.Ranked[i])
		}
	}
	// The two paths share a plan keyed by the train's content: the second
	// query, whichever it was, must have reused it.
	if !strings.Contains(timing, "plan;desc=hit") {
		t.Fatalf("upload of the bit-identical stored sketch missed the plan: Server-Timing %q", timing)
	}

	// Overwriting the stored train: the next by-name query ranks the new
	// content, planned afresh, not the old bytes' plan.
	tb2, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 800; i++ {
		tb2.AddNum(fmt.Sprintf("g%d", rng.Intn(90)), rng.NormFloat64())
	}
	if err := st.Put("query/train", tb2.Sketch()); err != nil {
		t.Fatal(err)
	}
	got, timing := rankTimed(t, ts.URL, RankRequest{Train: "query/train", Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 12})
	if !strings.Contains(timing, "plan;desc=miss") {
		t.Fatalf("overwritten stored train reused a plan: Server-Timing %q", timing)
	}
	want, _, err := st.RankQuery(context.Background(), tb2.Sketch(), store.RankOptions{Prefix: "corpus/", MinJoinSize: minJoin, K: 3, TopK: 12})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, got.Ranked, want)
}

// TestSketchPutLsRankRoundTrip drives the full API surface the way a
// client would: build sketches from CSV via /v1/sketch, ingest the
// candidate via /v1/put, list it via /v1/ls, rank via /v1/rank, and
// check /healthz and /v1/stats along the way.
func TestSketchPutLsRankRoundTrip(t *testing.T) {
	_, ts, st, _ := newTestServer(t, 0, Options{})

	var trainCSV, candCSV strings.Builder
	trainCSV.WriteString("zip,target\n")
	candCSV.WriteString("zip,feature\n")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 900; i++ {
		g := rng.Intn(60)
		fmt.Fprintf(&trainCSV, "z%d,%g\n", g, float64(g%4)+rng.NormFloat64())
	}
	for g := 0; g < 60; g++ {
		fmt.Fprintf(&candCSV, "z%d,%g\n", g, float64(g%4)+0.1*rng.NormFloat64())
	}

	postSketch := func(params, csv string) SketchResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sketch?"+params, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sketch: status %d: %s", resp.StatusCode, raw)
		}
		var sr SketchResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	trainResp := postSketch("key=zip&value=target&role=train&size=128", trainCSV.String())
	candResp := postSketch("key=zip&value=feature&role=candidate&size=128", candCSV.String())
	if !trainResp.Numeric || trainResp.Entries == 0 {
		t.Fatalf("bad train sketch response: %+v", trainResp)
	}

	candBytes, err := base64.StdEncoding.DecodeString(candResp.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.Post(ts.URL+"/v1/put?name=csv/cand%23feature", "application/octet-stream", bytes.NewReader(candBytes))
	if err != nil {
		t.Fatal(err)
	}
	putRaw, _ := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d: %s", putResp.StatusCode, putRaw)
	}

	lsResp, err := http.Get(ts.URL + "/v1/ls?prefix=csv/")
	if err != nil {
		t.Fatal(err)
	}
	var ls LsResponse
	if err := json.NewDecoder(lsResp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	lsResp.Body.Close()
	if ls.Count != 1 || ls.Sketches[0].Name != "csv/cand#feature" || ls.Sketches[0].Role != "candidate" {
		t.Fatalf("ls: %+v", ls)
	}

	minJoin := 10
	rank := rankViaHTTP(t, ts.URL, RankRequest{Sketch: trainResp.Sketch, Prefix: "csv/", MinJoin: &minJoin, K: 3})
	if len(rank.Ranked) != 1 || rank.Ranked[0].Name != "csv/cand#feature" {
		t.Fatalf("rank over ingested candidate: %+v", rank.Ranked)
	}
	// The strongly key-dependent candidate must carry real signal.
	if rank.Ranked[0].MI <= 0 {
		t.Fatalf("expected positive MI, got %v", rank.Ranked[0].MI)
	}

	// Cross-check against the direct path on the same stored bytes.
	trainRaw, err := base64.StdEncoding.DecodeString(trainResp.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	trainSk, err := core.ReadSketch(bytes.NewReader(trainRaw))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := st.RankQuery(context.Background(), trainSk, store.RankOptions{Prefix: "csv/", MinJoinSize: 10, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, rank.Ranked, want)

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hz.StatusCode)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Server.SketchRequests != 2 || stats.Server.PutRequests != 1 || stats.Server.RankRequests != 1 {
		t.Fatalf("server counters: %+v", stats.Server)
	}
	if stats.Store.Puts != 1 || stats.Store.RankQueries == 0 {
		t.Fatalf("store counters: %+v", stats.Store)
	}
}

// TestRankErrors covers the request-validation surface.
func TestRankErrors(t *testing.T) {
	_, ts, _, train := newTestServer(t, 2, Options{})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"neither side", `{}`, http.StatusBadRequest},
		{"both sides", `{"sketch":"AAAA","train":"x"}`, http.StatusBadRequest},
		{"unknown field", `{"train":"x","bogus":1}`, http.StatusBadRequest},
		{"bad base64", `{"sketch":"!!!"}`, http.StatusBadRequest},
		{"corrupt sketch", `{"sketch":"` + base64.StdEncoding.EncodeToString([]byte("MISKJUNK")) + `"}`, http.StatusBadRequest},
		{"unknown stored train", `{"train":"no/such"}`, http.StatusNotFound},
		{"negative top", `{"train":"x","top":-1}`, http.StatusBadRequest},
		{"min_join too negative", `{"train":"x","min_join":-2}`, http.StatusBadRequest},
		{"trailing data", `{"train":"x"} {"train":"y"}`, http.StatusBadRequest},
	} {
		status, body := post(tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not structured: %s", tc.name, body)
		}
	}
	// A candidate-role sketch cannot be the train side.
	candB64 := func() string {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 16})
		if err != nil {
			t.Fatal(err)
		}
		cb.AddNum("k", 1)
		return sketchBase64(t, cb.Sketch())
	}()
	if status, body := post(`{"sketch":"` + candB64 + `"}`); status != http.StatusBadRequest {
		t.Errorf("candidate-role train: status %d: %s", status, body)
	}
	_ = train
}

// TestBodyCapReturns413 distinguishes an oversized body (413, retryable
// smaller) from a malformed one (400).
func TestBodyCapReturns413(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 0, Options{MaxBodyBytes: 64})
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(strings.Repeat("x", 256)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized rank body: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/sketch?key=a&value=b", "text/csv", strings.NewReader(strings.Repeat("a,b\n", 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized CSV body: status %d, want 413", resp.StatusCode)
	}
}

// TestOverLimitBodyDoesNotLeakCapacity pins the 413 path on the rank
// endpoints: an over-limit body — syntactically valid JSON or not — must
// return 413 before any estimation capacity is acquired, hold zero
// workers afterwards, and leave the server able to serve a real query.
// MaxWorkers is 1, so a single leaked acquisition would deadlock the
// follow-up rank.
func TestOverLimitBodyDoesNotLeakCapacity(t *testing.T) {
	srv, ts, _, train := newTestServer(t, 4, Options{MaxWorkers: 1, MaxBodyBytes: 256})
	trainB64 := sketchBase64(t, train) // far over the 256-byte cap
	for _, tc := range []struct {
		name, path, body string
	}{
		{"rank junk", "/v1/rank", strings.Repeat("x", 512)},
		{"rank valid json", "/v1/rank", `{"sketch":"` + trainB64 + `"}`},
		{"batch junk", "/v1/rank/batch", strings.Repeat("x", 512)},
		{"batch valid json", "/v1/rank/batch", `{"sketches":["` + trainB64 + `"]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", tc.name, resp.StatusCode, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not structured: %s", tc.name, raw)
		}
		if held, waiting := srv.sem.inFlight(); held != 0 || waiting != 0 {
			t.Fatalf("%s: %d workers held, %d waiting after 413", tc.name, held, waiting)
		}
	}
	// The single worker is still available: an under-cap rank request
	// must acquire it and complete — a leaked acquisition would hang
	// here forever.
	tiny, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		tiny.AddNum(fmt.Sprintf("g%d", g), float64(g))
	}
	minJoin := 0
	body, _ := json.Marshal(RankRequest{Sketch: sketchBase64(t, tiny.Sketch()), Prefix: "corpus/", MinJoin: &minJoin, K: 3})
	if int64(len(body)) > 256 {
		t.Fatalf("follow-up body %d bytes exceeds the cap; shrink the tiny train", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("follow-up rank after 413s: status %d: %s", resp.StatusCode, raw)
	}
	if held, waiting := srv.sem.inFlight(); held != 0 || waiting != 0 {
		t.Fatalf("%d workers held, %d waiting after the follow-up rank", held, waiting)
	}
}

// TestStalledRequestReaped is the slowloris regression test: a
// connection that sends half a request and stalls must be reaped by
// ReadHeaderTimeout, not pinned forever. Runs against ServeListener —
// the path that wires Options timeouts into the http.Server (httptest
// bypasses it).
func TestStalledRequestReaped(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{ReadHeaderTimeout: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence: the header never completes.
	if _, err := conn.Write([]byte("POST /v1/rank HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The server reaps the connection — an error response (the exact
	// status depends on where the deadline lands in the header read)
	// followed by a close, or a bare close. Without ReadHeaderTimeout
	// nothing ever arrives and this read blocks until our local 5s
	// deadline errors out. Reading to EOF promptly is the regression
	// signal.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not reaped after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled connection reaped only after %v", elapsed)
	}
}

// TestRankWhilePutUnderLoad hammers /v1/rank from many goroutines while
// /v1/put concurrently ingests fresh sketches into a separate prefix.
// Every response must be bit-identical to the precomputed direct ranking
// of the stable prefix (no torn manifests, no scratch cross-
// contamination from the shared pool), and the store must end with every
// put visible. Run under -race in CI.
func TestRankWhilePutUnderLoad(t *testing.T) {
	_, ts, st, train := newTestServer(t, 20, Options{})
	want, _, err := st.RankQuery(context.Background(), train, store.RankOptions{
		Prefix: "corpus/", MinJoinSize: 10, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainB64 := sketchBase64(t, train)

	const (
		rankers  = 8
		ranksPer = 10
		puts     = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, rankers+1)
	for g := 0; g < rankers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			minJoin := 10
			for i := 0; i < ranksPer; i++ {
				body, _ := json.Marshal(RankRequest{
					Sketch: trainB64, Prefix: "corpus/", MinJoin: &minJoin, K: 3,
					Workers: 1 + (g+i)%4,
				})
				resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("rank status %d: %s", resp.StatusCode, raw)
					return
				}
				var rr RankResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					errc <- err
					return
				}
				if len(rr.Ranked) != len(want) {
					errc <- fmt.Errorf("ranker %d: %d results, want %d", g, len(rr.Ranked), len(want))
					return
				}
				for j := range rr.Ranked {
					w := RankedResult{Name: want[j].Name, MI: want[j].MI, Estimator: string(want[j].Estimator), JoinSize: want[j].JoinSize}
					if rr.Ranked[j] != w {
						errc <- fmt.Errorf("ranker %d: rank[%d] = %+v, want %+v", g, j, rr.Ranked[j], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < puts; i++ {
			cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 64})
			if err != nil {
				errc <- err
				return
			}
			for g := 0; g < 90; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), rng.NormFloat64())
			}
			var buf bytes.Buffer
			if _, err := cb.Sketch().WriteTo(&buf); err != nil {
				errc <- err
				return
			}
			resp, err := http.Post(fmt.Sprintf("%s/v1/put?name=ingest/n%03d", ts.URL, i), "application/octet-stream", &buf)
			if err != nil {
				errc <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("put status %d: %s", resp.StatusCode, raw)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var ingested int
	for _, n := range names {
		if strings.HasPrefix(n, "ingest/") {
			ingested++
		}
	}
	if ingested != puts {
		t.Fatalf("%d ingested sketches visible, want %d", ingested, puts)
	}
}

// TestCancelledRequestsReleaseCapacity fires rank requests whose clients
// vanish mid-flight and asserts the semaphore ends fully released — no
// leaked workers, no wedged queue — and that the server still answers.
func TestCancelledRequestsReleaseCapacity(t *testing.T) {
	srv, ts, _, train := newTestServer(t, 20, Options{MaxWorkers: 2})
	trainB64 := sketchBase64(t, train)
	minJoin := 10

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
			defer cancel()
			body, _ := json.Marshal(RankRequest{Sketch: trainB64, Prefix: "corpus/", MinJoin: &minJoin, K: 3, Workers: 2})
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/rank", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			// Context errors are the point; both outcomes are fine.
		}(i)
	}
	wg.Wait()

	// All cancelled work must have drained its semaphore units.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held, waiting := srv.sem.inFlight()
		if held == 0 && waiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("semaphore not drained: %d held, %d waiting", held, waiting)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server must still have full capacity for real queries.
	rr := rankViaHTTP(t, ts.URL, RankRequest{Sketch: trainB64, Prefix: "corpus/", MinJoin: &minJoin, K: 3})
	if len(rr.Ranked) == 0 {
		t.Fatal("post-cancellation rank returned nothing")
	}
}

// TestGracefulShutdown boots the real listener path, ingests through it,
// cancels the serve context, and verifies the shutdown drained cleanly
// and persisted the manifest (a fresh store handle sees the sketch
// without any rebuild).
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, st, 3)
	srv := New(st, Options{ShutdownTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Wait until the server answers.
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	cb.AddNum("k", 1)
	var buf bytes.Buffer
	if _, err := cb.Sketch().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/put?name=shutdown/probe", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never completed")
	}

	// The manifest must have been flushed: a fresh handle loads it
	// directly and already knows the sketch ingested over HTTP.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Meta("shutdown/probe"); !ok {
		t.Fatal("manifest not persisted on graceful shutdown")
	}
}

// TestServeDiskless runs the whole HTTP service the way a user without a
// store directory does, on a store in a temporary directory: rankings
// bit-for-bit equal to the same corpus in a second store, and /v1/stats
// reporting the deprecated "backend" as "fs".
func TestServeDiskless(t *testing.T) {
	tmp, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tmp.Close() })
	train := buildCorpus(t, tmp, 20)
	srv := New(tmp, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	fsStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, fsStore, 20)
	want, _, err := fsStore.RankQuery(context.Background(), train, store.RankOptions{
		Prefix: "corpus/", MinJoinSize: 10, K: mi.DefaultK, TopK: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	minJoin := 10
	rr := rankViaHTTP(t, ts.URL, RankRequest{
		Sketch: sketchBase64(t, train),
		Prefix: "corpus/", MinJoin: &minJoin, Top: 5,
	})
	assertSameRanking(t, rr.Ranked, want)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store.Backend != "fs" || stats.Store.Segments != 1 {
		t.Errorf("diskless stats = %+v", stats.Store)
	}
	if stats.Store.Sketches != 20 {
		t.Errorf("sketches = %d", stats.Store.Sketches)
	}
}
