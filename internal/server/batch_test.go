package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"misketch/internal/core"
	"misketch/internal/store"
)

// newHTTPServer wraps srv in an httptest server torn down with the test.
func newHTTPServer(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// buildBatchCorpus fills st with candidates over sliding key windows so
// a batch of trains (staggered windows of the same universe) exercises
// every prefilter regime, and returns the trains.
func buildBatchCorpus(t testing.TB, st *store.Store, nCand, nTrains int) []*core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	opt := core.Options{Method: core.TUPSK, Size: 96}
	trains := make([]*core.Sketch, nTrains)
	for q := range trains {
		tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1500; i++ {
			tb.AddNum(fmt.Sprintf("g%d", q*50+rng.Intn(130)), rng.NormFloat64())
		}
		trains[q] = tb.Sketch()
	}
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo := (c * 17) % 350
		for g := lo; g < lo+70; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
		}
		if err := st.Put(fmt.Sprintf("corpus/c%03d", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	return trains
}

// rankBatchViaHTTP posts a batch rank request and decodes the response.
func rankBatchViaHTTP(t testing.TB, url string, req RankBatchRequest) RankBatchResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/rank/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank batch: status %d: %s", resp.StatusCode, raw)
	}
	var rr RankBatchResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("rank batch: decoding %q: %v", raw, err)
	}
	return rr
}

// TestRankBatchMatchesDirect is the batch endpoint's end-to-end
// contract: every query in a batch returns bit-for-bit the results of
// an independent direct Store.RankQuery — same candidates, order, MI
// bits — the prefilter visibly prunes dead pairs, and repeating the
// batch reuses the plan the first one left.
func TestRankBatchMatchesDirect(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trains := buildBatchCorpus(t, st, 40, 4)
	srv := New(st, Options{})
	ts := newHTTPServer(t, srv)

	minJoin := 15
	req := RankBatchRequest{Prefix: "corpus/", MinJoin: &minJoin, Top: 8}
	for q, tr := range trains {
		req.Trains = append(req.Trains, BatchTrainRef{
			Name: fmt.Sprintf("q%d", q), Sketch: sketchBase64(t, tr),
		})
	}
	cold := rankBatchViaHTTP(t, ts.URL, req)
	if ss := srv.Stats().Store; ss.PlanHits != 0 || ss.PlanMisses != 1 {
		t.Fatalf("cold batch: %d plan hits, %d misses", ss.PlanHits, ss.PlanMisses)
	}
	warm := rankBatchViaHTTP(t, ts.URL, req)
	if ss := srv.Stats().Store; ss.PlanHits != 1 {
		t.Fatalf("warm batch: %d plan hits, want 1", ss.PlanHits)
	}

	prunedTotal := 0
	for _, rr := range []RankBatchResponse{cold, warm} {
		if len(rr.Queries) != len(trains) {
			t.Fatalf("batch returned %d queries for %d trains", len(rr.Queries), len(trains))
		}
		for q, tr := range trains {
			if rr.Queries[q].Name != fmt.Sprintf("q%d", q) {
				t.Fatalf("query %d labeled %q", q, rr.Queries[q].Name)
			}
			want, _, err := st.RankQuery(context.Background(), tr, store.RankOptions{
				Prefix: "corpus/", MinJoinSize: minJoin, K: 3, TopK: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, rr.Queries[q].Ranked, want)
			prunedTotal += rr.Queries[q].Pruned
		}
	}
	if prunedTotal == 0 {
		t.Fatal("prefilter never fired across the batch")
	}

	stats := srv.Stats()
	if stats.Server.BatchRequests != 2 || stats.Server.BatchFailures != 0 {
		t.Fatalf("server batch counters: %+v", stats.Server)
	}
	if stats.Store.RankBatches != 2 || stats.Store.PrunedPairs == 0 {
		t.Fatalf("store batch counters: %+v", stats.Store)
	}
}

// TestStatsCountWhatAPlanHitPruned: a rank that reuses its plan runs no
// phase 1, yet /v1/stats moves pruned_pairs by the pairs its answer says
// the prefilter pruned, as the rank that planned it did.
func TestStatsCountWhatAPlanHitPruned(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trains := buildBatchCorpus(t, st, 40, 1)
	ts := newHTTPServer(t, New(st, Options{}))
	minJoin := 15
	body := mustJSON(t, RankBatchRequest{Trains: []BatchTrainRef{{Name: "q", Sketch: sketchBase64(t, trains[0])}},
		Prefix: "corpus/", MinJoin: &minJoin, Top: 8})
	prunedPairs := func() int64 {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.Store.PrunedPairs
	}
	for _, plan := range []string{"miss", "hit"} {
		before := prunedPairs()
		status, hdr, raw := postRaw(t, ts.URL, "/v1/rank/batch", body, nil)
		if status != http.StatusOK {
			t.Fatalf("plan %s: status %d: %s", plan, status, raw)
		}
		var rr RankBatchResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		timing := hdr.Get("Server-Timing")
		if moved, pruned := prunedPairs()-before, rr.Queries[0].Pruned; !strings.Contains(timing, "plan;desc="+plan) || pruned == 0 || moved != int64(pruned) {
			t.Fatalf("plan %s: pruned_pairs moved %d, the answer pruned %d; Server-Timing %q", plan, moved, pruned, timing)
		}
	}
}

// TestRankBatchByStoredTrain mixes stored-name and inline trains in one
// batch: the stored ref defaults its label to the stored name, and both
// resolve to the same rankings as direct queries.
func TestRankBatchByStoredTrain(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trains := buildBatchCorpus(t, st, 12, 2)
	if err := st.Put("trains/stored", trains[0]); err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	ts := newHTTPServer(t, srv)

	minJoin := 10
	rr := rankBatchViaHTTP(t, ts.URL, RankBatchRequest{
		Trains: []BatchTrainRef{
			{Train: "trains/stored"},
			{Name: "inline", Sketch: sketchBase64(t, trains[1])},
		},
		Prefix: "corpus/", MinJoin: &minJoin,
	})
	if rr.Queries[0].Name != "trains/stored" || rr.Queries[1].Name != "inline" {
		t.Fatalf("query labels: %q, %q", rr.Queries[0].Name, rr.Queries[1].Name)
	}
	for q, tr := range trains {
		want, _, err := st.RankQuery(context.Background(), tr, store.RankOptions{
			Prefix: "corpus/", MinJoinSize: minJoin, K: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, rr.Queries[q].Ranked, want)
	}
}

// TestRankBatchErrors walks the endpoint's failure modes: every
// malformed batch must come back 4xx with a structured error, and a
// missing stored train 404s.
func TestRankBatchErrors(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trains := buildBatchCorpus(t, st, 2, 1)
	srv := New(st, Options{})
	ts := newHTTPServer(t, srv)
	b64 := sketchBase64(t, trains[0])

	tooMany := `{"trains":[`
	for i := 0; i <= MaxBatchTrains; i++ {
		if i > 0 {
			tooMany += ","
		}
		tooMany += fmt.Sprintf(`{"name":"q%d","sketch":"%s"}`, i, b64)
	}
	tooMany += `]}`

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"zero trains", `{"trains":[]}`, http.StatusBadRequest},
		{"no trains field", `{}`, http.StatusBadRequest},
		{"both sketch and train", `{"trains":[{"name":"q","sketch":"` + b64 + `","train":"x"}]}`, http.StatusBadRequest},
		{"neither sketch nor train", `{"trains":[{"name":"q"}]}`, http.StatusBadRequest},
		{"inline without name", `{"trains":[{"sketch":"` + b64 + `"}]}`, http.StatusBadRequest},
		{"duplicate names", `{"trains":[{"name":"q","sketch":"` + b64 + `"},{"name":"q","sketch":"` + b64 + `"}]}`, http.StatusBadRequest},
		{"malformed base64", `{"trains":[{"name":"q","sketch":"!!!"}]}`, http.StatusBadRequest},
		{"negative top", `{"trains":[{"name":"q","sketch":"` + b64 + `"}],"top":-1}`, http.StatusBadRequest},
		{"min_join below -1", `{"trains":[{"name":"q","sketch":"` + b64 + `"}],"min_join":-2}`, http.StatusBadRequest},
		{"unknown field", `{"trains":[],"bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"trains":[{"name":"q","sketch":"` + b64 + `"}]}{}`, http.StatusBadRequest},
		{"missing stored train", `{"trains":[{"train":"no/such"}]}`, http.StatusNotFound},
		{"too many trains", tooMany, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/rank/batch", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("unstructured error response: %s", raw)
			}
		})
	}

	// A candidate-role sketch cannot be a train.
	candB64 := func() string {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 8})
		if err != nil {
			t.Fatal(err)
		}
		cb.AddNum("k", 1)
		return sketchBase64(t, cb.Sketch())
	}()
	resp, err := http.Post(ts.URL+"/v1/rank/batch", "application/json",
		bytes.NewReader([]byte(`{"trains":[{"name":"q","sketch":"`+candB64+`"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("candidate-role train: status %d", resp.StatusCode)
	}

	// Mixed seeds across the batch fail up front.
	oddOpt := core.Options{Method: core.TUPSK, Size: 8, Seed: 99}
	ob, err := core.NewStreamBuilder(core.RoleTrain, true, oddOpt)
	if err != nil {
		t.Fatal(err)
	}
	ob.AddNum("k", 1)
	mixed, _ := json.Marshal(RankBatchRequest{Trains: []BatchTrainRef{
		{Name: "a", Sketch: b64},
		{Name: "b", Sketch: sketchBase64(t, ob.Sketch())},
	}})
	resp2, err := http.Post(ts.URL+"/v1/rank/batch", "application/json", bytes.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-seed batch: status %d", resp2.StatusCode)
	}
}
