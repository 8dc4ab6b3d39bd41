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
	"os"
	"strings"
	"sync"
	"testing"

	"misketch/internal/core"
	"misketch/internal/store"
)

// The service acceptance benchmark: a warm /v1/rank against a
// 1000-sketch store must stay within 1.5x of a direct Store.RankQuery
// call — the HTTP hop, JSON codec, train decode and probe compile, and
// semaphore admission are all the service adds on the warm path. The workload
// mirrors the repo's BenchmarkStoreRank (400-key numeric candidates,
// 256-entry train sketch over 4000 rows).
var (
	benchOnce  sync.Once
	benchStore *store.Store
	benchTrain *core.Sketch
	benchB64   string
	benchHTTP  *httptest.Server
	benchErr   error
)

func benchSetup() {
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "misketch-server-bench-*")
		if err != nil {
			benchErr = err
			return
		}
		benchStore, benchErr = store.Open(dir)
		if benchErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(17))
		opt := core.Options{Method: core.TUPSK, Size: 256}
		tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
		if err != nil {
			benchErr = err
			return
		}
		for i := 0; i < 4000; i++ {
			tb.AddNum(fmt.Sprintf("g%d", rng.Intn(400)), rng.NormFloat64())
		}
		benchTrain = tb.Sketch()
		var buf bytes.Buffer
		if _, err := benchTrain.WriteTo(&buf); err != nil {
			benchErr = err
			return
		}
		benchB64 = sketchB64(buf.Bytes())
		for c := 0; c < 1000; c++ {
			cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
			if err != nil {
				benchErr = err
				return
			}
			for g := 0; g < 400; g++ {
				cb.AddNum(fmt.Sprintf("g%d", g), float64(g%7)+rng.NormFloat64())
			}
			if err := benchStore.Put(fmt.Sprintf("bench/t%04d#x", c), cb.Sketch()); err != nil {
				benchErr = err
				return
			}
		}
		benchHTTP = httptest.NewServer(New(benchStore, Options{}))
	})
}

func sketchB64(raw []byte) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	_ = enc.Encode(raw) // []byte marshals to std base64
	return string(bytes.Trim(b.Bytes(), "\"\n"))
}

// BenchmarkServerRank/direct is the library floor: Store.RankQuery on a
// warm store handle, probe compiled per call, phase 1's plan reused.
// BenchmarkServerRank/http is the same query through the running service,
// which reuses the same plan.
func BenchmarkServerRank(b *testing.B) {
	benchSetup()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	ctx := context.Background()
	opts := store.RankOptions{Prefix: "bench/", MinJoinSize: 50, K: 3, TopK: 10}

	b.Run("direct", func(b *testing.B) {
		// Warm the sketch cache.
		if _, _, err := benchStore.RankQuery(ctx, benchTrain, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ranked, _, err := benchStore.RankQuery(ctx, benchTrain, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(ranked) != 10 {
				b.Fatalf("%d results", len(ranked))
			}
		}
	})

	b.Run("http", func(b *testing.B) {
		minJoin := 50
		body, err := json.Marshal(RankRequest{
			Sketch: benchB64, Prefix: "bench/", MinJoin: &minJoin, K: 3, Top: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		post := func() (RankResponse, string) {
			resp, err := http.Post(benchHTTP.URL+"/v1/rank", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var rr RankResponse
			if err := json.Unmarshal(raw, &rr); err != nil {
				b.Fatal(err)
			}
			return rr, resp.Header.Get("Server-Timing")
		}
		if warm, _ := post(); len(warm.Ranked) != 10 { // warm cache + plan
			b.Fatalf("%d results", len(warm.Ranked))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rr, timing := post()
			if len(rr.Ranked) != 10 || !strings.Contains(timing, "plan;desc=hit") {
				b.Fatalf("%d results, Server-Timing %q", len(rr.Ranked), timing)
			}
		}
	})
}

// BenchmarkServeRankCached is the result-cache hit path: the same warm
// query through a server with the cache on. Before the clock starts it
// asserts the acceptance contract — the cached body is byte-identical
// to the uncached server's answer — then times pure
// hits, which skip probe compilation, semaphore admission, estimation,
// and encoding entirely. Compare against BenchmarkServerRank/http.
func BenchmarkServeRankCached(b *testing.B) {
	benchSetup()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	cached := httptest.NewServer(New(benchStore, Options{ResultCacheBytes: 1 << 20}))
	defer cached.Close()
	minJoin := 50
	body, err := json.Marshal(RankRequest{
		Sketch: benchB64, Prefix: "bench/", MinJoin: &minJoin, K: 3, Top: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func(url string) []byte {
		resp, err := http.Post(url+"/v1/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}

	// Fill the result cache and assert byte-identity with the uncached
	// server's answer before any timing happens.
	uncachedBody := post(benchHTTP.URL)
	post(cached.URL)
	hit := post(cached.URL)
	if !bytes.Equal(hit, uncachedBody) {
		b.Fatalf("cached answer is not bit-identical to uncached:\n%s\n%s", hit, uncachedBody)
	}
	var rr RankResponse
	if err := json.Unmarshal(hit, &rr); err != nil || len(rr.Ranked) != 10 {
		b.Fatalf("cached answer malformed (%v): %s", err, hit)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if raw := post(cached.URL); !bytes.Equal(raw, hit) {
			b.Fatalf("hit replay diverged:\n%s\n%s", raw, hit)
		}
	}
}
