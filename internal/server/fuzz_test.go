package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"misketch/internal/core"
	"misketch/internal/store"
)

// fuzzServer is shared across fuzz iterations: request decoding must be
// hardened independently of store contents, so one tiny store suffices.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler(f *testing.F) *Server {
	fuzzOnce.Do(func() {
		st, err := store.Open(f.TempDir())
		if err != nil {
			panic(err)
		}
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 8})
		if err != nil {
			panic(err)
		}
		cb.AddNum("k", 1)
		if err := st.Put("fuzz/c", cb.Sketch()); err != nil {
			panic(err)
		}
		fuzzSrv = New(st, Options{MaxWorkers: 1})
	})
	return fuzzSrv
}

// FuzzRankRequest throws arbitrary bytes at the /v1/rank decode path and
// the full handler: the server must never panic, and every response must
// be a well-formed JSON object — either a ranking or a structured error,
// with 5xx reserved for genuine server faults (which a malformed request
// can never cause).
func FuzzRankRequest(f *testing.F) {
	srv := fuzzHandler(f)

	// Seed corpus: valid requests, near-valid mutations, garbage.
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 8})
	if err != nil {
		f.Fatal(err)
	}
	tb.AddNum("k", 2)
	var buf bytes.Buffer
	if _, err := tb.Sketch().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid, _ := json.Marshal(RankRequest{Sketch: base64.StdEncoding.EncodeToString(buf.Bytes())})
	f.Add(valid)
	f.Add([]byte(`{"train":"fuzz/c"}`))
	f.Add([]byte(`{"sketch":"` + base64.StdEncoding.EncodeToString([]byte("MISK\x01")) + `"}`))
	f.Add([]byte(`{"sketch":"!!!","min_join":-5,"workers":-1}`))
	f.Add([]byte(`{"train":"x","top":999999999,"k":-3}`))
	f.Add([]byte(`{"train":"fuzz/c","top":5,"no_cascade":true}`))
	f.Add([]byte(`{"train":"fuzz/c","top":5,"cascade_margin":-1}`))
	f.Add([]byte(`{"train":"fuzz/c","cascade_margin":1e308}`))
	f.Add([]byte(`{"train":"fuzz/c","no_cascade":"yes","cascade_margin":"wide"}`))
	f.Add([]byte(`{"train":"fuzz/c","top":5,"min_mi":0.25,"seed":true}`))
	f.Add([]byte(`{"train":"fuzz/c","min_mi":-0.25}`))
	f.Add([]byte(`{"train":"fuzz/c","min_mi":1e999,"seed":1}`))
	f.Add([]byte(`{"train":"fuzz/c","min_mi":-0.0,"seed":true}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"train":1e999}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/rank", body)
		// A floor the decoder lets through is one a ranking can take.
		if req, err := DecodeRankRequest(body); err == nil && !(req.Trains[0].MinMI >= 0 && req.Trains[0].MinMI <= math.MaxFloat64) {
			t.Fatalf("body %q decoded with min_mi %v", body, req.Trains[0].MinMI)
		}
	})
}

// fuzzPost drives one handler invocation and asserts the shared
// contract: no panic, no 5xx for client-supplied garbage, and every
// response is a JSON object (with an "error" field on non-200s).
func fuzzPost(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req) // must not panic
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		t.Fatalf("request body %q produced status %d", body, resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("non-JSON response for body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusOK {
		if _, ok := v["error"].(string); !ok {
			t.Fatalf("error response without error field: %v", v)
		}
	}
}

// FuzzRankBatchRequest throws arbitrary bytes at the /v1/rank/batch
// decode path and the full handler. The batch-specific hazards the seed
// corpus encodes: zero trains, duplicate names, refs setting both or
// neither train source, malformed base64, oversized batches, and
// mixed-seed trains — all must come back as structured 4xx errors,
// never a panic or a 5xx.
func FuzzRankBatchRequest(f *testing.F) {
	srv := fuzzHandler(f)

	tb, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 8})
	if err != nil {
		f.Fatal(err)
	}
	tb.AddNum("k", 2)
	var buf bytes.Buffer
	if _, err := tb.Sketch().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(buf.Bytes())
	valid, _ := json.Marshal(RankBatchRequest{Trains: []BatchTrainRef{
		{Name: "a", Sketch: b64},
		{Name: "b", Sketch: b64},
	}})
	f.Add(valid)
	f.Add([]byte(`{"trains":[]}`))
	f.Add([]byte(`{"trains":[{"name":"a","sketch":"` + b64 + `"},{"name":"a","sketch":"` + b64 + `"}]}`))
	f.Add([]byte(`{"trains":[{"name":"a","sketch":"!!!not-base64!!!"}]}`))
	f.Add([]byte(`{"trains":[{"sketch":"` + b64 + `"}]}`))
	f.Add([]byte(`{"trains":[{"name":"a","sketch":"` + b64 + `","train":"x"}]}`))
	f.Add([]byte(`{"trains":[{"name":"a"}]}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c"}]}`))
	f.Add([]byte(`{"trains":[{"train":"no/such"}],"min_join":-2,"workers":-1}`))
	f.Add([]byte(`{"trains":[{"name":"a","sketch":"` + b64 + `"}],"top":999999999,"k":-3}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c"}],"top":5,"no_cascade":true,"cascade_margin":-0.5}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c"}],"cascade_margin":1e999}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c","min_mi":0.5},{"name":"b","sketch":"` + b64 + `","min_mi":0}],"top":2,"seed":true}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c","min_mi":-1}]}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c","min_mi":1e999}],"seed":"yes"}`))
	f.Add([]byte(`{"trains":[{"train":"fuzz/c"}],"min_mi":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"trains":1e999}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/rank/batch", body)
		if req, err := DecodeRankBatchRequest(body); err == nil {
			for i, tr := range req.Trains {
				if !(tr.MinMI >= 0 && tr.MinMI <= math.MaxFloat64) {
					t.Fatalf("body %q decoded with trains[%d].min_mi %v", body, i, tr.MinMI)
				}
			}
		}
	})
}

// FuzzCanonicalization is the result-cache key differential: two
// semantically equal rank requests — one spelling its knobs implicitly,
// one spelling the resolved defaults explicitly, or asking for another
// worker count — MUST land on the same canonical digest, and any change
// to a resolved knob that can move the answer, the seed flag, a floor
// (down to its last bit), the train content, or the order of a batch's
// trains MUST change it. A collision in either direction is a
// correctness bug: the cache would silently serve one query's answer to
// a different query.
func FuzzCanonicalization(f *testing.F) {
	f.Add("bench/", 100, true, 4, 10, 2, false, 4, uint64(1), 0.0, false)
	f.Add("", -3, false, 0, 0, 0, true, 8, uint64(2), 2.37, true)
	f.Add("p", 7, true, 1, 1, 99, false, 3, uint64(3), math.SmallestNonzeroFloat64, false)
	f.Add("corpus/", 50, true, 6, 25, 1, false, 1, uint64(4), math.MaxFloat64, true)
	f.Fuzz(func(t *testing.T, prefix string, minJoin int, hasMinJoin bool,
		k, top, workers int, noCascade bool, maxWorkers int, seed uint64,
		floor float64, seedFlag bool) {
		if maxWorkers < 1 {
			maxWorkers = 1
		}
		if !(floor >= 0 && floor <= math.MaxFloat64) {
			floor = 0 // the decoder admits nothing else
		}
		req := RankRequest{Prefix: prefix, K: k, Top: top, Workers: workers, NoCascade: noCascade, MinMI: floor, Seed: seedFlag}
		if hasMinJoin {
			req.MinJoin = &minJoin
		}
		if req.asBatch().validateKnobs() != nil {
			return // a negative k, top or workers, or min_join under -1: a 400
		}
		opt, err := req.asBatch().options(maxWorkers)
		if err != nil {
			t.Fatalf("a request the decoder admits does not resolve: %v", err)
		}
		train := trainDigest(sha256.Sum256([]byte(fmt.Sprintf("train-%d", seed))))
		digest := func(o store.RankOptions) [sha256.Size]byte {
			return canonicalDigest("rank", []string{""}, []trainDigest{train}, o)
		}
		key := digest(opt)

		// Differential 1: respelling every resolved default explicitly
		// is the same request and must collide with the implicit form,
		// as must any other worker count.
		explicit := req
		explicit.MinJoin, explicit.K, explicit.Workers = &opt.MinJoinSize, opt.K, opt.Workers
		opt2, err := explicit.asBatch().options(maxWorkers)
		if err != nil || !reflect.DeepEqual(opt2, opt) {
			t.Fatalf("resolution is not idempotent: %+v -> %+v (%v)", opt, opt2, err)
		}
		if digest(opt2) != key {
			t.Fatalf("explicit defaults changed the cache key for %+v", opt)
		}
		fanout := opt
		fanout.Workers++
		if digest(fanout) != key {
			t.Fatalf("the worker count changed the cache key for %+v", opt)
		}

		// Differential 2: every single-knob change to the resolved
		// options must change the key (injectivity of the digest).
		perturbed := []store.RankOptions{opt, opt, opt, opt, opt, opt, opt, opt, opt}
		perturbed[0].Prefix += "x"
		perturbed[1].MinJoinSize++
		perturbed[2].K++
		perturbed[3].TopK++
		perturbed[4].NoCascade = !opt.NoCascade
		perturbed[5].Seed = !opt.Seed
		// One bit up, one bit down (or, from 0, the smallest floor there
		// is), and one floor more.
		f0 := opt.MinMI[0]
		perturbed[6].MinMI = []float64{math.Nextafter(f0, math.Inf(1))}
		perturbed[7].MinMI = []float64{math.Nextafter(f0, -1)}
		if f0 == 0 {
			perturbed[7].MinMI = []float64{math.SmallestNonzeroFloat64 * 2}
		}
		perturbed[8].MinMI = []float64{f0, f0}
		for i, q := range perturbed {
			if digest(q) == key {
				t.Fatalf("perturbation %d collided: %+v vs %+v", i, opt, q)
			}
		}
		other := trainDigest(sha256.Sum256([]byte(fmt.Sprintf("train-%d'", seed))))
		if canonicalDigest("rank", []string{""}, []trainDigest{other}, opt) == key {
			t.Fatal("different train content collided with the original key")
		}

		// Differential 3 (batch): the same trains reordered are a
		// different request — the response lists queries in request
		// order — so the keys must NOT collide. Nor may a one-train
		// batch collide with the equivalent single rank query.
		names := []string{"a", "b"}
		alt := 1.0
		if f0 == alt {
			alt = 2
		}
		if one := canonicalDigest("rank batch", []string{""}, []trainDigest{train}, opt); one == key {
			t.Fatalf("one-train batch collided with the single rank key for %+v", opt)
		}
		opt.MinMI = []float64{f0, alt}
		swapped := opt
		swapped.MinMI = []float64{alt, f0}
		both := []trainDigest{train, other}
		ab := canonicalDigest("rank batch", names, both, opt)
		if ab == canonicalDigest("rank batch", names, both, swapped) {
			t.Fatalf("two trains trading floors collided for %+v", opt)
		}
		if ab == canonicalDigest("rank batch", []string{"b", "a"}, []trainDigest{other, train}, opt) {
			t.Fatalf("reordered batch trains collided for %+v", opt)
		}
		if again := canonicalDigest("rank batch", names, both, opt); again != ab {
			t.Fatal("batch digest is not deterministic")
		}
	})
}
