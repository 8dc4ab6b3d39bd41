package server

// The wire side of the two-round scatter: min_mi as a public filter on
// both rank endpoints, the seed flag and its seed_bound, and their place
// in the canonical digest.

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"misketch/internal/store"
	"misketch/internal/synth"
)

func TestRankMinMIIsAFilter(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trains := buildBatchCorpus(t, st, 40, 2)
	ts := newHTTPServer(t, New(st, Options{ResultCacheBytes: 1 << 20}))
	sk := []string{sketchBase64(t, trains[0]), sketchBase64(t, trains[1])}
	mj := 5
	filtered := func(rows []RankedResult, floor float64, top int) []RankedResult {
		out := []RankedResult{}
		for _, r := range rows {
			if r.MI >= floor && len(out) < top {
				out = append(out, r)
			}
		}
		return out
	}
	same := func(label string, got, want []RankedResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}

	full := rankBatchViaHTTP(t, ts.URL, RankBatchRequest{
		Trains:  []BatchTrainRef{{Name: "a", Sketch: sk[0]}, {Name: "b", Sketch: sk[1]}},
		MinJoin: &mj, NoCascade: true,
	})
	a, b := full.Queries[0].Ranked, full.Queries[1].Ranked
	if len(a) < 8 || len(b) < 8 {
		t.Fatalf("corpus too thin: %d and %d rows", len(a), len(b))
	}
	// Floors exactly at a row's score: the row stays.
	fa, fb := a[3].MI, b[5].MI
	single := rankViaHTTP(t, ts.URL, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 6, MinMI: fa})
	same("/v1/rank min_mi", single.Ranked, filtered(a, fa, 6))
	if single.SeedBound != nil {
		t.Fatalf("unseeded answer carries seed_bound %v", *single.SeedBound)
	}
	batch := rankBatchViaHTTP(t, ts.URL, RankBatchRequest{
		Trains:  []BatchTrainRef{{Name: "a", Sketch: sk[0], MinMI: fa}, {Name: "b", Sketch: sk[1], MinMI: fb}},
		MinJoin: &mj, Top: 4,
	})
	same("/v1/rank/batch trains[0].min_mi", batch.Queries[0].Ranked, filtered(a, fa, 4))
	same("/v1/rank/batch trains[1].min_mi", batch.Queries[1].Ranked, filtered(b, fb, 4))
	// top 0 and no_cascade take the floor as well.
	all := rankViaHTTP(t, ts.URL, RankRequest{Sketch: sk[0], MinJoin: &mj, MinMI: fa})
	same("/v1/rank min_mi top 0", all.Ranked, filtered(a, fa, len(a)))

	// Two floors one bit apart are two requests: two ETags, two entries.
	etags := map[string]bool{}
	for _, floor := range []float64{fa, math.Nextafter(fa, 0), math.Nextafter(fa, 4)} {
		body := mustJSON(t, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 6, MinMI: floor})
		status, hdr, raw := postRaw(t, ts.URL, "/v1/rank", body, nil)
		if status != http.StatusOK || hdr.Get("ETag") == "" {
			t.Fatalf("floor %v: status %d etag %q: %s", floor, status, hdr.Get("ETag"), raw)
		}
		etags[hdr.Get("ETag")] = true
		// The same floor revalidates against its own ETag only.
		if status, _, _ := postRaw(t, ts.URL, "/v1/rank", body, http.Header{"If-None-Match": {hdr.Get("ETag")}}); status != http.StatusNotModified {
			t.Fatalf("floor %v: revalidation status %d, want 304", floor, status)
		}
	}
	if len(etags) != 3 {
		t.Fatalf("3 floors one bit apart share ETags: %v", etags)
	}
	// -0 is 0: the same request as no floor at all.
	_, h0, _ := postRaw(t, ts.URL, "/v1/rank", []byte(`{"sketch":"`+sk[0]+`","top":3}`), nil)
	_, hNeg, _ := postRaw(t, ts.URL, "/v1/rank", []byte(`{"sketch":"`+sk[0]+`","top":3,"min_mi":-0.0}`), nil)
	if h0.Get("ETag") != hNeg.Get("ETag") {
		t.Fatalf("min_mi -0 and no min_mi got ETags %q and %q", hNeg.Get("ETag"), h0.Get("ETag"))
	}

	for _, bad := range []string{
		`{"sketch":"` + sk[0] + `","min_mi":-0.5}`,
		`{"sketch":"` + sk[0] + `","min_mi":1e999}`,
		`{"sketch":"` + sk[0] + `","min_mi":"high"}`,
	} {
		if status, _, raw := postRaw(t, ts.URL, "/v1/rank", []byte(bad), nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", bad, status, raw)
		}
	}
	badBatch := `{"trains":[{"name":"a","sketch":"` + sk[0] + `"},{"name":"b","sketch":"` + sk[1] + `","min_mi":-1}]}`
	if status, _, raw := postRaw(t, ts.URL, "/v1/rank/batch", []byte(badBatch), nil); status != http.StatusBadRequest {
		t.Errorf("batch with a negative floor: status %d, want 400: %s", status, raw)
	}
	// No JSON carries these two; a request built in process could.
	for _, f := range []float64{math.Inf(1), math.NaN()} {
		if err := (&RankBatchRequest{Trains: []BatchTrainRef{{MinMI: f}}}).validateKnobs(); err == nil {
			t.Errorf("min_mi %v validated", f)
		}
	}
}

func TestRankSeedAnswer(t *testing.T) {
	// synth.PlantedCohort(130): three strong candidates and a straggler
	// after each over joinable noise, so a seed answer of four leaves
	// nothing the cheap tier cannot bound.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	train, cands := synth.PlantedCohort(130)
	for c, cand := range cands {
		if err := st.Put(fmt.Sprintf("bench/c%04d", c), cand); err != nil {
			t.Fatal(err)
		}
	}
	ts := newHTTPServer(t, New(st, Options{}))
	sk := []string{sketchBase64(t, train), sketchBase64(t, train)}
	mj := 100
	full := rankViaHTTP(t, ts.URL, RankRequest{Sketch: sk[0], MinJoin: &mj, NoCascade: true})
	exact := map[string]RankedResult{}
	for _, r := range full.Ranked {
		exact[r.Name] = r
	}

	check := func(label string, rows []RankedResult, bound *float64, top int) {
		t.Helper()
		if len(rows) != top {
			t.Fatalf("%s: %d seed rows, want %d", label, len(rows), top)
		}
		shown := map[string]bool{}
		for _, r := range rows {
			if r != exact[r.Name] {
				t.Fatalf("%s: seed row %+v, exact %+v", label, r, exact[r.Name])
			}
			shown[r.Name] = true
		}
		if bound == nil {
			return // nothing certified
		}
		for _, r := range full.Ranked {
			if !shown[r.Name] && r.MI > *bound {
				t.Fatalf("%s: %s scores %v above seed_bound %v", label, r.Name, r.MI, *bound)
			}
		}
	}
	single := rankViaHTTP(t, ts.URL, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 4, Seed: true})
	check("/v1/rank", single.Ranked, single.SeedBound, 4)
	batch := rankBatchViaHTTP(t, ts.URL, RankBatchRequest{
		Trains:  []BatchTrainRef{{Name: "a", Sketch: sk[0]}, {Name: "b", Sketch: sk[1]}},
		MinJoin: &mj, Top: 4, Seed: true,
	})
	check("/v1/rank/batch trains[0]", batch.Queries[0].Ranked, batch.Queries[0].SeedBound, 4)
	check("/v1/rank/batch trains[1]", batch.Queries[1].Ranked, batch.Queries[1].SeedBound, 4)
	if single.SeedBound == nil || batch.Queries[0].SeedBound == nil || *single.SeedBound != *batch.Queries[0].SeedBound {
		t.Fatalf("seed_bound: single %v, batch %v — want one number", single.SeedBound, batch.Queries[0].SeedBound)
	}
	// Every candidate shown: nothing is left to bound.
	if everything := rankViaHTTP(t, ts.URL, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 500, Seed: true}); len(everything.Ranked) != len(full.Ranked) ||
		everything.SeedBound == nil || *everything.SeedBound != -1 {
		t.Fatalf("top beyond the catalog: %d rows of %d, seed_bound %v, want all and -1", len(everything.Ranked), len(full.Ranked), everything.SeedBound)
	}
	// No cascade, no seeds: the full answer, certifying nothing.
	for _, req := range []RankRequest{{Seed: true}, {Seed: true, Top: 4, NoCascade: true}} {
		req.Sketch, req.MinJoin = sk[0], &mj
		if got := rankViaHTTP(t, ts.URL, req); got.SeedBound != nil || (req.Top == 0 && len(got.Ranked) != len(full.Ranked)) {
			t.Fatalf("seed without the cascade (%+v): %d rows, seed_bound %v", req, len(got.Ranked), got.SeedBound)
		}
	}
	// The seed flag is part of the request's identity.
	_, plain, _ := postRaw(t, ts.URL, "/v1/rank", mustJSON(t, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 3}), nil)
	_, seeded, _ := postRaw(t, ts.URL, "/v1/rank", mustJSON(t, RankRequest{Sketch: sk[0], MinJoin: &mj, Top: 3, Seed: true}), nil)
	if plain.Get("ETag") == seeded.Get("ETag") {
		t.Fatal("a seed request and the plain one share an ETag")
	}
}
