package cluster

// A single rank is a batch of one train. Both tiers serve the two
// endpoints from one path, and this file pins what that must mean on
// the wire: POST /v1/rank and a one-train POST /v1/rank/batch agree on
// rows, skipped list and status — on a Server and through a 2-shard
// Coordinator — and an input one endpoint rejects, the other rejects
// with the same status. It also pins the /v1/stats key sets and the
// coordinator's request body cap.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"misketch/internal/core"
	"misketch/internal/server"
	"misketch/internal/store"
)

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestSingleVsBatchEquivalence(t *testing.T) {
	tc := newTestCluster(t, 2, 20)
	// A second train over other keys, a stored train (on one shard only),
	// and two sketches every query must skip: a candidate under another
	// seed and, for unprefixed queries, the stored train itself.
	rng := rand.New(rand.NewSource(11))
	opt := core.Options{Method: core.TUPSK, Size: 64}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(60)), rng.NormFloat64())
	}
	otherTrain := tb.Sketch()
	odd, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 64, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	odd.AddNum("g1", 1)
	for name, sk := range map[string]*core.Sketch{"query/train": tc.train, "corpus/odd-seed": odd.Sketch()} {
		if err := tc.unionSt.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		if err := tc.shardSts[1].Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	candidate, err := tc.unionSt.Get("corpus/c000")
	if err != nil {
		t.Fatal(err)
	}

	coord := httptest.NewServer(tc.coordinator(t, Options{}))
	defer coord.Close()
	tiers := []struct{ name, url string }{{"server", tc.union.URL}, {"coordinator", coord.URL}}

	type knobs struct {
		Prefix  string `json:"prefix,omitempty"`
		MinJoin *int   `json:"min_join,omitempty"`
		K       int    `json:"k,omitempty"`
		Top     int    `json:"top,omitempty"`
	}
	mj := func(v int) *int { return &v }
	cases := []struct {
		name          string
		sketch, train string // the train side, inline or by name
		knobs         knobs
		status        int // expected on both endpoints and both tiers
	}{
		{name: "inline top5", sketch: sketchBase64(t, tc.train), knobs: knobs{"corpus/", mj(10), 3, 5}, status: 200},
		{name: "inline all", sketch: sketchBase64(t, tc.train), knobs: knobs{"corpus/", mj(10), 3, 0}, status: 200},
		{name: "other train defaults", sketch: sketchBase64(t, otherTrain), knobs: knobs{Prefix: "corpus/", MinJoin: mj(5)}, status: 200},
		{name: "by name", train: "query/train", knobs: knobs{"corpus/", mj(10), 3, 6}, status: 200},
		{name: "by name unprefixed", train: "query/train", knobs: knobs{MinJoin: mj(-1), Top: 4}, status: 200},
		{name: "bad base64", sketch: "!!!not-base64!!!", knobs: knobs{Prefix: "corpus/"}, status: 400},
		{name: "wrong role", sketch: sketchBase64(t, candidate), knobs: knobs{Prefix: "corpus/"}, status: 400},
		{name: "unknown by-name train", train: "no/such", knobs: knobs{Prefix: "corpus/"}, status: 404},
		{name: "min_join below -1", sketch: sketchBase64(t, tc.train), knobs: knobs{MinJoin: mj(-2)}, status: 400},
	}
	for _, tier := range tiers {
		for _, c := range cases {
			t.Run(tier.name+"/"+c.name, func(t *testing.T) {
				single, _ := json.Marshal(struct {
					Sketch string `json:"sketch,omitempty"`
					Train  string `json:"train,omitempty"`
					knobs
				}{c.sketch, c.train, c.knobs})
				batch, _ := json.Marshal(struct {
					Trains []server.BatchTrainRef `json:"trains"`
					knobs
				}{[]server.BatchTrainRef{{Name: "q", Sketch: c.sketch, Train: c.train}}, c.knobs})

				sStatus, sRaw := post(t, tier.url+"/v1/rank", single)
				bStatus, bRaw := post(t, tier.url+"/v1/rank/batch", batch)
				if sStatus != c.status || bStatus != c.status {
					t.Fatalf("status single %d batch %d, want %d\nsingle: %s\nbatch: %s", sStatus, bStatus, c.status, sRaw, bRaw)
				}
				if c.status != http.StatusOK {
					for _, raw := range [][]byte{sRaw, bRaw} {
						var er server.ErrorResponse
						if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
							t.Fatalf("error body %q is not an error object", raw)
						}
					}
					// A coordinator asks its shards in the batch shape, so
					// the 400 it forwards for a single rank names the one
					// train as a batch's; a single node names it as its own.
					want := `"train sketch: `
					if tier.name == "coordinator" {
						want = `"rank: trains[0] \"train\": `
					}
					if c.name == "wrong role" && !bytes.Contains(sRaw, []byte(want)) {
						t.Fatalf("single wrong-role error %s, want it to contain %s", sRaw, want)
					}
					return
				}
				var sr RankResponse
				var br RankBatchResponse
				if err := json.Unmarshal(sRaw, &sr); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(bRaw, &br); err != nil {
					t.Fatal(err)
				}
				if len(br.Queries) != 1 || br.Queries[0].Name != "q" {
					t.Fatalf("batch of one answered %+v", br.Queries)
				}
				if len(sr.Ranked) == 0 || (c.knobs.Top > 0 && len(sr.Ranked) != c.knobs.Top) {
					t.Fatalf("single ranked %d rows at top %d", len(sr.Ranked), c.knobs.Top)
				}
				assertIdenticalRanked(t, br.Queries[0].Ranked, sr.Ranked)
				if !reflect.DeepEqual(sr.Skipped, br.Skipped) {
					t.Fatalf("skipped: single %v, batch %v", sr.Skipped, br.Skipped)
				}
				if !slices.Contains(sr.Skipped, "corpus/odd-seed") || slices.Contains(sr.Skipped, "query/train") != (c.knobs.Prefix == "") {
					t.Fatalf("skipped %v: want the odd-seed candidate, and the stored train iff unprefixed", sr.Skipped)
				}
				if sr.Partial || br.Partial {
					t.Fatalf("partial %v/%v", sr.Partial, br.Partial)
				}
			})
		}
	}

	// Whichever endpoint the coordinator was called on, its shards were
	// asked in one shape: /v1/rank/batch.
	for i, sh := range tc.shards {
		resp, err := http.Get(sh.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil || stats.Server.RankRequests != 0 || stats.Server.BatchRequests == 0 {
			t.Fatalf("shard %d served %d /v1/rank and %d /v1/rank/batch requests (%v), want 0 and some",
				i, stats.Server.RankRequests, stats.Server.BatchRequests, err)
		}
	}

	// Under the wire the store's two entry points are one path as well:
	// RankQuery and a one-train RankBatch take the same options value and
	// agree on rows, skipped list and — NoIndex meaning only "no
	// index-driven selection" at both — on what the probe's overlap cut
	// pruned. Narrower candidates join the corpus first, so join sizes
	// vary; the cutoff is a middle one, pruning some pairs and not others.
	t.Run("store/NoIndex", func(t *testing.T) {
		ctx, st := context.Background(), tc.unionSt
		for j := 0; j < 8; j++ {
			cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < 10+10*j; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), rng.NormFloat64())
			}
			if err := st.Put(fmt.Sprintf("corpus/narrow-%d", j), cb.Sketch()); err != nil {
				t.Fatal(err)
			}
		}
		all, _, err := st.RankQuery(ctx, tc.train, store.RankOptions{Prefix: "corpus/", MinJoinSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, len(all))
		for i, r := range all {
			sizes[i] = r.JoinSize
		}
		sort.Ints(sizes)
		cut, wantPruned := sizes[4], 0
		for _, n := range sizes {
			if n <= cut {
				wantPruned++
			}
		}
		opt := store.RankOptions{Prefix: "corpus/", MinJoinSize: cut, TopK: 5, NoIndex: true}
		s0 := st.Stats()
		ranked, skipped, err := st.RankQuery(ctx, tc.train, opt)
		if err != nil {
			t.Fatal(err)
		}
		s1 := st.Stats()
		res, err := st.RankBatch(ctx, []*core.Sketch{tc.train}, opt)
		if err != nil {
			t.Fatal(err)
		}
		s2 := st.Stats()
		if len(ranked) == 0 || !reflect.DeepEqual(res.Queries[0].Ranked, ranked) || !reflect.DeepEqual(res.Skipped, skipped) {
			t.Fatalf("RankQuery %v (skipped %v), one-train RankBatch %v (skipped %v)", ranked, skipped, res.Queries[0].Ranked, res.Skipped)
		}
		queryPruned, batchPruned := s1.PrunedPairs-s0.PrunedPairs, s2.PrunedPairs-s1.PrunedPairs
		if queryPruned != int64(wantPruned) || batchPruned != int64(wantPruned) || res.Queries[0].Pruned != wantPruned {
			t.Fatalf("pruned pairs: RankQuery %d, RankBatch %d (its Pruned %d), want %d at min join %d",
				queryPruned, batchPruned, res.Queries[0].Pruned, wantPruned, cut)
		}
		if q, b := s2.RankQueries-s0.RankQueries, s2.RankBatches-s0.RankBatches; q != 2 || b != 0 {
			t.Fatalf("two one-train ranks counted as %d queries and %d batches", q, b)
		}
	})
}

// TestClusterBodyCapReturns413: the coordinator caps request bodies as
// a single node does and classifies the overflow the same way — 413,
// not 400 — on both rank endpoints, without counting a request.
func TestClusterBodyCapReturns413(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	c := tc.coordinator(t, Options{})
	c.maxBody = 1 << 10
	coord := httptest.NewServer(c)
	defer coord.Close()
	big := []byte(`{"sketch":"` + strings.Repeat("A", 4<<10) + `"}`)
	for _, path := range []string{"/v1/rank", "/v1/rank/batch"} {
		status, raw := post(t, coord.URL+path, big)
		var er server.ErrorResponse
		if err := json.Unmarshal(raw, &er); status != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(er.Error, "reading body") {
			t.Errorf("%s over the cap: %d %s, want 413 reading body", path, status, raw)
		}
		if status, raw := post(t, coord.URL+path, []byte(`{"sketch":`)); status != http.StatusBadRequest {
			t.Errorf("%s malformed: %d %s, want 400", path, status, raw)
		}
	}
	if cs := c.Stats().Coordinator; cs.RankRequests != 1 || cs.BatchRequests != 1 || cs.RankFailures != 1 || cs.BatchFailures != 1 {
		t.Errorf("counters %+v: want only the two malformed requests counted, as failures", cs)
	}
}

// TestStatsKeySets pins the /v1/stats wire surface of both tiers. The
// numbers come from several places (the store, internal/cache, the
// handlers' own counters); no key may appear, vanish or change name
// unnoticed.
func TestStatsKeySets(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	coord := httptest.NewServer(tc.coordinator(t, Options{}))
	defer coord.Close()
	keys := func(url string, section string) []string {
		t.Helper()
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		v := doc[section]
		if list, ok := v.([]any); ok {
			v = list[0]
		}
		var out []string
		for k := range v.(map[string]any) {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	want := map[string][]string{
		tc.union.URL + " server": {
			"batch_failures", "batch_requests", "max_workers", "probe_hits", "probe_misses",
			"put_requests", "rank_failures", "rank_rejected", "rank_requests", "ranks_queued",
			"result_bytes", "result_coalesced", "result_entries", "result_evictions", "result_hits",
			"result_misses", "result_not_modified", "sketch_requests", "workers_held",
		},
		tc.union.URL + " store": {
			"backend", "cache_budget_bytes", "cache_bytes", "cache_entries", "cache_hits", "cache_misses", "candidate_loads", "candidates_skipped_no_decode",
			"candidates_visited", "cascade_cheap_only", "cascade_exact", "cascade_margin_rescues", "compactions",
			"compressed_bytes", "compressed_segments", "deletes", "disk_reads", "evictions", "exact_memo_hits",
			"indexed_segments", "live_bytes", "plan_hits", "plan_misses", "posting_bytes", "pruned_pairs", "puts", "rank_batches", "rank_panics",
			"rank_queries", "raw_bytes", "segment_bytes", "segments", "select_hits", "select_misses", "side_fills", "side_hits", "sketches",
			"view_build_ns",
		},
		coord.URL + " coordinator": {
			"batch_failures", "batch_partial", "batch_requests", "floor_fallbacks", "floor_queries",
			"rank_failures", "rank_partial", "rank_requests", "result_not_modified", "round2_requests", "round2_skipped",
		},
		// last_error is omitempty and absent on a healthy shard.
		coord.URL + " shards": {"errors", "mean_latency_ns", "requests", "retries", "total_latency_ns", "url"},
	}
	for where, wantKeys := range want {
		url, section, _ := strings.Cut(where, " ")
		if got := keys(url, section); !reflect.DeepEqual(got, wantKeys) {
			t.Errorf("%s stats keys:\n got %v\nwant %v", section, got, wantKeys)
		}
	}
}
