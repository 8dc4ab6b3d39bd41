package main

// The six workloads. Names are the contract: BENCHMARK.json, the README
// and later issues cite them.

import (
	"math/rand"

	"misketch"
)

// workload describes one traffic mix over one catalog.
type workload struct {
	name    string
	clients int
	// setupRepeats is how many times set-up runs to take setup_s as a
	// median; the 20 000-sketch catalog is built once, its ~12 s being
	// an average over 20 000 Puts already.
	setupRepeats int
	storeOpt     misketch.OpenStoreOptions
	shards       int
	catalog      func(seed int64, sc scale) func(emit) error
	// trains are the base trains requests are derived from.
	trains func(seed int64, sc scale) []*misketch.Sketch
	params rankParams
	// newClient returns client c's request mint.
	newClient func(seed int64, c int, trains []*misketch.Sketch, p rankParams) func() request
	// mutateEvery > 0 makes every mutateEvery-th request be followed
	// by a Put under the ranked prefix.
	mutateEvery int
	// planted, when set, names the candidates a correct top-10 is
	// made of.
	planted func(name string) bool
	// maxVerify caps how many sampled answers are recomputed.
	maxVerify int
	// rounds, when set, fills the measured window in place of the
	// closed loop of requests (the write-path workload).
	rounds func(w workload, e env, tr *tracer) (window, error)
}

func trainsOf(n func(sc scale) int, gen func(seed int64, q int) *misketch.Sketch) func(int64, scale) []*misketch.Sketch {
	return func(seed int64, sc scale) []*misketch.Sketch {
		out := make([]*misketch.Sketch, n(sc))
		for q := range out {
			out[q] = gen(seed, q)
		}
		return out
	}
}

func fixed(n int) func(scale) int { return func(scale) int { return n } }

func numCatalog(seed int64, sc scale) func(emit) error {
	return func(each emit) error { return genNum(seed, sc.numCands, each) }
}

// freshRank mints never-repeated single-train rank requests, rotating
// uniformly over the base trains.
func freshRank(seed int64, c int, trains []*misketch.Sketch, p rankParams) func() request {
	rng := subRNG(seed, "client", c)
	return func() request {
		tr := freshTrain(trains[rng.Intn(len(trains))], rng)
		return request{path: "/v1/rank", body: rankRequestBody(tr, p), trains: []*misketch.Sketch{tr}, params: p}
	}
}

// zipfTops are the top-K bounds of zipf_mutate's query variants. All
// sit inside the planted cohort (16 candidates), so every miss costs
// about the same: with bounds reaching past the cohort (20, 50) the
// cascade stops pruning, misses become several times dearer than
// others, and op_p90_ms — which falls among the misses — jumps between
// the modes from run to run.
var zipfTops = []int{5, 8, 10, 12}

// zipfRank draws from 64 fixed query variants (16 trains × 4 top-K
// bounds) with Zipf skew 1.2, from a per-client seeded stream: the
// repeated-query traffic a result cache lives or dies on. Popularity
// rank r is train r%16 with bound (r + r/16)%4, the same on every
// seed, so the hot set always mixes trains and bounds alike.
func zipfRank(seed int64, c int, trains []*misketch.Sketch, p rankParams) func() request {
	variants := make([]request, len(trains)*len(zipfTops))
	for r := range variants {
		tr := trains[r%len(trains)]
		vp := p
		vp.top = zipfTops[(r+r/len(trains))%len(zipfTops)]
		variants[r] = request{path: "/v1/rank", body: rankRequestBody(tr, vp), trains: []*misketch.Sketch{tr}, params: vp}
	}
	z := rand.NewZipf(subRNG(seed, "client", c), 1.2, 1, uint64(len(variants)-1))
	return func() request { return variants[z.Uint64()] }
}

// freshBatch mints batch requests of batchSize never-repeated trains.
func freshBatch(seed int64, c int, trains []*misketch.Sketch, p rankParams) func() request {
	rng := subRNG(seed, "client", c)
	return func() request {
		fresh := make([]*misketch.Sketch, len(trains))
		for i, tr := range trains {
			fresh[i] = freshTrain(tr, rng)
		}
		return request{path: "/v1/rank/batch", body: batchRequestBody(fresh, p), trains: fresh, params: p}
	}
}

var workloads = []workload{
	{
		name: "fresh_c1", clients: 1, setupRepeats: 5, shards: 1,
		catalog: numCatalog, trains: trainsOf(fixed(1), numTrain),
		params:    rankParams{prefix: numPrefix, minJoin: numMinJoin, top: 10},
		newClient: freshRank, planted: numPlanted, maxVerify: 32,
	},
	{
		name: "zipf_mutate", clients: 2, setupRepeats: 5, shards: 1,
		catalog: numCatalog, trains: trainsOf(fixed(zipfTrains), numTrain),
		params:    rankParams{prefix: numPrefix, minJoin: numMinJoin},
		newClient: zipfRank, mutateEvery: 200, planted: numPlanted, maxVerify: 32,
	},
	{
		name: "selective_cold", clients: 2, setupRepeats: 1, shards: 1,
		storeOpt: misketch.OpenStoreOptions{Compression: true},
		catalog: func(seed int64, sc scale) func(emit) error {
			return func(each emit) error { return genSel(seed, sc.selDomains, sc.selPerDomain, each) }
		},
		trains:    trainsOf(func(sc scale) int { return sc.selDomains }, selTrain),
		params:    rankParams{prefix: selPrefix, minJoin: selMinJoin, top: 10},
		newClient: freshRank, maxVerify: 12,
	},
	{
		name: "batch_sweep", clients: 2, setupRepeats: 5, shards: 1,
		catalog: func(seed int64, sc scale) func(emit) error {
			return func(each emit) error { return genMixed(seed, sc.mixedCands, each) }
		},
		trains:    trainsOf(fixed(batchSize), mixedTrain),
		params:    rankParams{prefix: mixedPrefix, minJoin: mixedMinJoin, top: 10},
		newClient: freshBatch, maxVerify: 16,
	},
	{
		name: "ingest_compact", clients: 1, setupRepeats: 5, shards: 1,
		storeOpt: misketch.OpenStoreOptions{Compression: true},
		catalog:  csvCatalog,
		trains:   func(seed int64, _ scale) []*misketch.Sketch { return []*misketch.Sketch{csvTrain(seed)} },
		params:   rankParams{prefix: csvPrefix, minJoin: csvMinJoin, top: 10},
		rounds:   ingestRounds,
	},
	{
		name: "cluster_scatter", clients: 2, setupRepeats: 5, shards: 2,
		catalog: numCatalog, trains: trainsOf(fixed(1), numTrain),
		params:    rankParams{prefix: numPrefix, minJoin: numMinJoin, top: 10},
		newClient: freshRank, planted: numPlanted, maxVerify: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shardOf filters a catalog stream down to the candidates of one shard
// (c%shards == shard). Every shard generates the whole stream, so the
// bytes of a candidate never depend on the shard count.
func shardOf(gen func(emit) error, shard, shards int) func(emit) error {
	if shards == 1 {
		return gen
	}
	return func(each emit) error {
		c := 0
		return gen(func(name string, sk *misketch.Sketch) error {
			mine := c%shards == shard
			c++
			if !mine {
				return nil
			}
			return each(name, sk)
		})
	}
}
