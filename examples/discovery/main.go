// Discovery at repository scale: rank every table of a simulated
// open-data repository by the estimated MI between its value column and a
// query table's target — the paper's data-discovery workload (Section
// V-C), run against the on-disk sketch store. All candidate sketches are
// built once ("offline") into a sharded, manifest-indexed store;
// answering the query reads the manifest plus only the sketches that
// survive its filters, bounded to the top K by a ranking heap.
//
// Run with: go run ./examples/discovery
//
// With -client local, the query phase instead goes through the HTTP
// discovery service (`misketch serve`): an in-process server is started
// over the same store and the ranking is requested twice over
// /v1/rank, demonstrating plan reuse: the second query finds the first's
// phase 1 on the catalog view and runs only the exact tier. Pass
// -client host:port to hit an already-running server instead.
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"misketch"
	"misketch/internal/corpus"
)

func main() {
	client := flag.String("client", "", `rank through a discovery server: "local" starts one in-process, host:port hits a running one (default: direct store API)`)
	flag.Parse()
	// Generate a small open-data repository (the WBF stand-in).
	cfg := corpus.WBFConfig()
	cfg.NumTables = 40
	repo := corpus.Generate(cfg, 2024)

	// The user's query table: pick one whose value column actually
	// depends on its keys, so there is something to discover.
	query := repo.Tables[0]
	for _, t := range repo.Tables {
		if t.Dependence > query.Dependence {
			query = t
		}
	}

	dir, err := os.MkdirTemp("", "misketch-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Offline phase: sketch every other table's (key, value) pair once
	// into the store, then persist the manifest.
	opts := misketch.Options{Size: 1024}
	st, err := misketch.OpenStoreWithOptions(dir, misketch.OpenStoreOptions{
		CacheBytes: 16 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	indexed := 0
	for _, t := range repo.Tables {
		if t.ID == query.ID {
			continue
		}
		s, err := misketch.SketchCandidate(t.T, corpus.KeyCol, corpus.ValCol, opts)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("wbf/table-%03d#%s@%s", t.ID, corpus.ValCol, corpus.KeyCol)
		if err := st.Put(name, s); err != nil {
			log.Fatal(err)
		}
		indexed++
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d tables into a sharded store in %v\n\n",
		indexed, time.Since(start).Round(time.Millisecond))

	// Query phase, against a cold handle: nothing cached, every
	// candidate admitted by the manifest is read exactly once.
	cold, err := misketch.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	trainSk, err := misketch.SketchTrain(query.T, corpus.KeyCol, corpus.ValCol, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *client != "" {
		runClient(*client, cold, query, trainSk)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start = time.Now()
	const topK = 10
	ranked, skipped, err := cold.RankQuery(ctx, trainSk, misketch.RankOptions{Prefix: "wbf/", MinJoinSize: 100, K: misketch.DefaultK, TopK: topK})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query: table-%03d (domain %d, key-dependence %.2f)\n",
		query.ID, query.Domain, query.Dependence)
	fmt.Printf("%-36s %10s %10s %10s\n", "candidate", "MI (nats)", "estimator", "join size")
	for _, r := range ranked {
		fmt.Printf("%-36s %10.3f %10s %10d\n", r.Name, r.MI, r.Estimator, r.JoinSize)
	}
	stats := cold.Stats()
	fmt.Printf("\ntop %d of %d stored sketches in %v — %d sketch reads, %d skipped by manifest filters\n",
		len(ranked), stats.Sketches, elapsed.Round(time.Microsecond), stats.DiskReads, len(skipped))
	fmt.Println("(no join was materialized, and no excluded sketch was deserialized)")

	// Batch sweep: an analyst rarely stops at one target. Treat the four
	// most key-dependent tables as a sweep of query targets and rank them
	// all in ONE corpus pass — candidates load once, and the key-overlap
	// prefilter skips every (target, candidate) pair whose coordinated
	// key intersection proves the join too small to rank.
	var sweep []*misketch.Sketch
	var labels []string
	for _, t := range repo.Tables {
		if t.Dependence >= 0.5 && len(sweep) < 4 {
			sk, err := misketch.SketchTrain(t.T, corpus.KeyCol, corpus.ValCol, opts)
			if err != nil {
				log.Fatal(err)
			}
			sweep = append(sweep, sk)
			labels = append(labels, fmt.Sprintf("table-%03d", t.ID))
		}
	}
	if len(sweep) == 0 {
		return
	}
	start = time.Now()
	batch, err := misketch.RankBatch(ctx, cold, sweep, misketch.RankOptions{
		Prefix: "wbf/", MinJoinSize: 100, K: misketch.DefaultK, TopK: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch sweep: %d targets in one corpus pass (%v)\n",
		len(sweep), time.Since(start).Round(time.Microsecond))
	for q, label := range labels {
		best := "-"
		if rs := batch.Queries[q].Ranked; len(rs) > 0 {
			best = fmt.Sprintf("%s (MI %.3f)", rs[0].Name, rs[0].MI)
		}
		fmt.Printf("  %s: best %s, %d pairs pruned before estimation\n",
			label, best, batch.Queries[q].Pruned)
	}
	fmt.Printf("(prefilter skipped %d of %d (target, candidate) estimator runs)\n",
		cold.Stats().PrunedPairs, len(sweep)*stats.Sketches)
}

// runClient answers the discovery query over the HTTP service instead of
// the direct store API. addr "local" boots an in-process server over the
// example's store; anything else is treated as the address of a running
// `misketch serve`.
func runClient(addr string, st *misketch.Store, query *corpus.Table, trainSk *misketch.Sketch) {
	base := "http://" + addr
	if addr == "local" {
		srv := misketch.NewServer(st, misketch.ServerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			if err := srv.ServeListener(ctx, ln); err != nil {
				log.Fatal(err)
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("started in-process discovery server on %s\n\n", ln.Addr())
	}

	var buf bytes.Buffer
	if err := misketch.WriteSketch(&buf, trainSk); err != nil {
		log.Fatal(err)
	}
	minJoin := 100
	body, err := json.Marshal(misketch.RankRequest{
		Sketch:  base64.StdEncoding.EncodeToString(buf.Bytes()),
		Prefix:  "wbf/",
		MinJoin: &minJoin,
		Top:     10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The body is the answer; what the request experienced (the ranking's
	// wall time, workers, plan reuse) is its Server-Timing header.
	rank := func() (misketch.RankResponse, string) {
		resp, err := http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("rank: status %d: %s", resp.StatusCode, raw)
		}
		var rr misketch.RankResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			log.Fatal(err)
		}
		return rr, resp.Header.Get("Server-Timing")
	}
	_, cold := rank()
	second, warm := rank() // identical query: phase 1's plan is reused

	fmt.Printf("query: table-%03d (domain %d, key-dependence %.2f), via %s\n",
		query.ID, query.Domain, query.Dependence, base)
	fmt.Printf("%-36s %10s %10s %10s\n", "candidate", "MI (nats)", "estimator", "join size")
	for _, r := range second.Ranked {
		fmt.Printf("%-36s %10.3f %10s %10d\n", r.Name, r.MI, r.Estimator, r.JoinSize)
	}
	fmt.Printf("\ncold query:  Server-Timing: %s\n", cold)
	fmt.Printf("warm query:  Server-Timing: %s\n", warm)
	fmt.Println("(same bits as the direct API; the service adds caching and admission control, not variance)")
}
