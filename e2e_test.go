package misketch

// e2e_test.go drives the whole stack the way a deployment would: a
// synthetic corpus is ingested into an on-disk store through the HTTP
// service (CSV → /v1/sketch → /v1/put), a discovery query is answered
// over /v1/rank, and the response is asserted bit-for-bit against a
// direct Store.RankQuery call on the same store — the service layer must
// add transport, caching, and admission control without perturbing a
// single bit of the ranking.

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
	"strings"
	"testing"
)

// e2eCSV synthesizes a CSV over 80 join keys whose value column depends
// on the key with the given strength (0 = pure noise).
func e2eCSV(rng *rand.Rand, rows int, strength float64) string {
	var b strings.Builder
	b.WriteString("key,val\n")
	for i := 0; i < rows; i++ {
		g := rng.Intn(80)
		fmt.Fprintf(&b, "k%d,%g\n", g, strength*float64(g%6)+rng.NormFloat64())
	}
	return b.String()
}

func TestE2EServiceMatchesDirectRanking(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Ingest a 25-table corpus entirely through the API.
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 25; i++ {
		csv := e2eCSV(rng, 200, float64(i%5))
		resp, err := http.Post(ts.URL+"/v1/sketch?key=key&value=val&role=candidate&size=128", "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sketch %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var sr SketchReply
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		skBytes, err := base64.StdEncoding.DecodeString(sr.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		putURL := fmt.Sprintf("%s/v1/put?name=e2e/t%02d%%23val", ts.URL, i)
		presp, err := http.Post(putURL, "application/octet-stream", bytes.NewReader(skBytes))
		if err != nil {
			t.Fatal(err)
		}
		praw, _ := io.ReadAll(presp.Body)
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: status %d: %s", i, presp.StatusCode, praw)
		}
	}

	// Build the query-side train sketch through the API too.
	trainCSV := e2eCSV(rng, 1200, 3)
	resp, err := http.Post(ts.URL+"/v1/sketch?key=key&value=val&role=train&size=128", "text/csv", strings.NewReader(trainCSV))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train sketch: status %d: %s", resp.StatusCode, raw)
	}
	var trainReply SketchReply
	if err := json.Unmarshal(raw, &trainReply); err != nil {
		t.Fatal(err)
	}

	// Rank over HTTP (top-10), twice: the repeat must reuse the first's
	// plan, which only its Server-Timing header tells — the bodies are the
	// answer.
	minJoin := 10
	rank := func() (RankResponse, string) {
		t.Helper()
		body, _ := json.Marshal(RankRequest{
			Sketch: trainReply.Sketch, Prefix: "e2e/", MinJoin: &minJoin, K: DefaultK, Top: 10,
		})
		resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
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
			t.Fatal(err)
		}
		return rr, resp.Header.Get("Server-Timing")
	}
	cold, coldTiming := rank()
	warm, warmTiming := rank()
	if !strings.Contains(coldTiming, "plan;desc=miss") {
		t.Fatalf("first query claims a kept plan: Server-Timing %q", coldTiming)
	}
	if !strings.Contains(warmTiming, "plan;desc=hit") {
		t.Fatalf("repeat query missed the plan: Server-Timing %q", warmTiming)
	}

	// Direct path on the same store and the same sketch bytes.
	trainRaw, err := base64.StdEncoding.DecodeString(trainReply.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	trainSk, err := ReadSketch(bytes.NewReader(trainRaw))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := st.RankQuery(context.Background(), trainSk, RankOptions{
		Prefix: "e2e/", MinJoinSize: 10, K: DefaultK, TopK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("direct ranking is empty")
	}
	for _, rr := range []RankResponse{cold, warm} {
		if len(rr.Ranked) != len(want) {
			t.Fatalf("service returned %d results, direct %d", len(rr.Ranked), len(want))
		}
		for i := range want {
			got := rr.Ranked[i]
			if got.Name != want[i].Name || got.MI != want[i].MI ||
				got.Estimator != string(want[i].Estimator) || got.JoinSize != want[i].JoinSize {
				t.Fatalf("rank[%d]: service %+v != direct %+v", i, got, want[i])
			}
		}
	}

	// Batch the same query together with a second target over
	// /v1/rank/batch: each slice of the batch must be bit-for-bit the
	// corresponding direct Store.RankQuery result, and the key-overlap
	// prefilter must report its pruning.
	train2CSV := e2eCSV(rng, 900, 1)
	resp2, err := http.Post(ts.URL+"/v1/sketch?key=key&value=val&role=train&size=128", "text/csv", strings.NewReader(train2CSV))
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("train2 sketch: status %d: %s", resp2.StatusCode, raw2)
	}
	var train2Reply SketchReply
	if err := json.Unmarshal(raw2, &train2Reply); err != nil {
		t.Fatal(err)
	}
	batchBody, _ := json.Marshal(RankBatchRequest{
		Trains: []BatchTrainRef{
			{Name: "t1", Sketch: trainReply.Sketch},
			{Name: "t2", Sketch: train2Reply.Sketch},
		},
		Prefix: "e2e/", MinJoin: &minJoin, K: DefaultK, Top: 10,
	})
	bresp, err := http.Post(ts.URL+"/v1/rank/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	braw, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("rank batch: status %d: %s", bresp.StatusCode, braw)
	}
	var br RankBatchResponse
	if err := json.Unmarshal(braw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Queries) != 2 || br.Queries[0].Name != "t1" || br.Queries[1].Name != "t2" {
		t.Fatalf("batch queries: %+v", br.Queries)
	}
	if timing := bresp.Header.Get("Server-Timing"); !strings.Contains(timing, "plan;desc=miss") {
		t.Fatalf("batch Server-Timing %q; a batch's trains are a plan key of their own", timing)
	}
	for q, b64 := range []string{trainReply.Sketch, train2Reply.Sketch} {
		skRaw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ReadSketch(bytes.NewReader(skRaw))
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err := st.RankQuery(context.Background(), sk, RankOptions{
			Prefix: "e2e/", MinJoinSize: 10, K: DefaultK, TopK: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := br.Queries[q].Ranked
		if len(got) != len(direct) {
			t.Fatalf("batch query %d: %d results, direct %d", q, len(got), len(direct))
		}
		for i := range direct {
			if got[i].Name != direct[i].Name || got[i].MI != direct[i].MI ||
				got[i].Estimator != string(direct[i].Estimator) || got[i].JoinSize != direct[i].JoinSize {
				t.Fatalf("batch query %d rank[%d]: %+v != direct %+v", q, i, got[i], direct[i])
			}
		}
	}

	// The ingested corpus is visible through /v1/ls and the root store.
	lsResp, err := http.Get(ts.URL + "/v1/ls?prefix=e2e/")
	if err != nil {
		t.Fatal(err)
	}
	var ls struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(lsResp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	lsResp.Body.Close()
	if ls.Count != 25 {
		t.Fatalf("ls count = %d, want 25", ls.Count)
	}

	// Server stats surface both layers' counters.
	stResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(stResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if stats.Store.Sketches != 25 || stats.Store.Puts != 25 {
		t.Fatalf("store stats: %+v", stats.Store)
	}
	// Three plan hits: the warm single rank, and both library ranks of t1,
	// which reuse the plan the service's first rank kept.
	if stats.Server.RankRequests != 2 || stats.Server.BatchRequests != 1 ||
		stats.Store.PlanHits != 3 || stats.Store.RankBatches != 1 {
		t.Fatalf("server stats: %+v / %+v", stats.Server, stats.Store)
	}
}
