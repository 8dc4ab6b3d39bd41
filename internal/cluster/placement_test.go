package cluster

// The placement matrix. Where the strong candidates live decides what
// the two-round scatter does — which shards a floor settles, whether
// there is a floor at all — and must never decide the answer: for every
// placement, shard count and request shape below, the coordinator's
// /v1/rank and an 8-train /v1/rank/batch equal a single node's exact,
// full-walk rank of the union catalog name for name and MI bit for bit,
// with the same skipped list and the same pruned counts.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"misketch/internal/core"
	"misketch/internal/server"
	"misketch/internal/store"
)

const matrixPrefix = "lake/"

// placed is one candidate of a matrix corpus.
type placed struct {
	name   string
	sketch *core.Sketch
	// strong marks the planted cohort; inert marks a candidate no train
	// can rank (no shared key, or another hash seed).
	strong, inert bool
}

type matrixCorpus struct {
	trains []*core.Sketch // eight; the first is the /v1/rank train
	cands  []placed
}

var matrixOpt = core.Options{Method: core.TUPSK, Size: 256}

func matrixBuilder(t testing.TB, role core.Role, numeric bool, opt core.Options) *core.StreamBuilder {
	t.Helper()
	b, err := core.NewStreamBuilder(role, numeric, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// numericTrains are eight trains over staggered windows of one key
// universe, so each overlaps the narrow candidates differently and the
// pruned counts differ by train.
func numericTrains(t testing.TB, rng *rand.Rand) []*core.Sketch {
	trains := make([]*core.Sketch, 8)
	for q := range trains {
		b := matrixBuilder(t, core.RoleTrain, true, matrixOpt)
		for i := 0; i < 3000; i++ {
			g := 16*q + rng.Intn(280)
			b.AddNum(fmt.Sprintf("g%d", g), float64(g%20)*float64(1+q%3)+(0.25+0.05*float64(q))*rng.NormFloat64())
		}
		trains[q] = b.Sketch()
	}
	return trains
}

// numericCandidate draws one candidate over keys [lo, hi) of universe.
func numericCandidate(t testing.TB, rng *rand.Rand, universe string, lo, hi int, noise float64, dependent bool) *core.Sketch {
	b := matrixBuilder(t, core.RoleCandidate, true, matrixOpt)
	for g := lo; g < hi; g++ {
		v := noise * rng.NormFloat64()
		if dependent {
			v += float64(g % 20)
		}
		b.AddNum(fmt.Sprintf("%s%d", universe, g), v)
	}
	return b.Sketch()
}

// cohortCorpus is a discovery catalog in miniature: six strongly
// dependent candidates at graded noise, six stragglers, a bulk of
// joinable noise, narrow candidates only some trains reach, candidates
// over foreign keys (pruned for every train) and one under another
// hash seed (skipped).
func cohortCorpus(t testing.TB) matrixCorpus {
	rng := rand.New(rand.NewSource(23))
	mc := matrixCorpus{trains: numericTrains(t, rng)}
	add := func(kind string, sk *core.Sketch, strong, inert bool) {
		mc.cands = append(mc.cands, placed{fmt.Sprintf("%s%s-%02d", matrixPrefix, kind, len(mc.cands)), sk, strong, inert})
	}
	for j := 0; j < 6; j++ {
		add("cohort", numericCandidate(t, rng, "g", 0, 400, 0.08+0.035*float64(j), true), true, false)
		add("straggler", numericCandidate(t, rng, "g", 0, 400, 2+float64(j), true), false, false)
	}
	for j := 0; j < 36; j++ {
		add("noise", numericCandidate(t, rng, "g", 0, 400, 1, false), false, false)
	}
	for j := 0; j < 4; j++ {
		add("narrow", numericCandidate(t, rng, "g", 0, 60+20*j, 1, false), false, false)
		add("foreign", numericCandidate(t, rng, "h", 0, 400, 1, false), false, true)
	}
	odd := matrixBuilder(t, core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 256, Seed: 99})
	odd.AddNum("g1", 1)
	add("odd-seed", odd.Sketch(), false, true)
	return mc
}

// fewCorpus has fewer joinable candidates than any K the matrix asks.
func fewCorpus(t testing.TB) matrixCorpus {
	mc := cohortCorpus(t)
	var few []placed
	for _, c := range mc.cands {
		if c.inert || len(few) < 7 {
			few = append(few, c)
		}
	}
	mc.cands = few
	return mc
}

// tiedCorpus stores one sketch under 24 names: every MI is the same
// float, so names alone order the answer.
func tiedCorpus(t testing.TB) matrixCorpus {
	rng := rand.New(rand.NewSource(29))
	mc := matrixCorpus{trains: numericTrains(t, rng)}
	sk := numericCandidate(t, rng, "g", 0, 400, 3, true)
	for j := 0; j < 24; j++ {
		mc.cands = append(mc.cands, placed{name: fmt.Sprintf("%stied-%02d", matrixPrefix, (j*7)%24), sketch: sk})
	}
	return mc
}

// categoricalCorpus is categorical on both sides: every pair is exempt
// from the cheap tier, so no seed answer can certify a bound.
func categoricalCorpus(t testing.TB) matrixCorpus {
	rng := rand.New(rand.NewSource(31))
	var mc matrixCorpus
	for q := 0; q < 8; q++ {
		b := matrixBuilder(t, core.RoleTrain, false, matrixOpt)
		for i := 0; i < 3000; i++ {
			g := 16*q + rng.Intn(280)
			b.AddStr(fmt.Sprintf("g%d", g), fmt.Sprintf("L%d", (g+rng.Intn(2+q%3))%7))
		}
		mc.trains = append(mc.trains, b.Sketch())
	}
	for j := 0; j < 30; j++ {
		b := matrixBuilder(t, core.RoleCandidate, false, matrixOpt)
		for g := 0; g < 400; g++ {
			b.AddStr(fmt.Sprintf("g%d", g), fmt.Sprintf("v%d", (g+rng.Intn(1+j%5))%7))
		}
		mc.cands = append(mc.cands, placed{name: fmt.Sprintf("%scat-%02d", matrixPrefix, j), sketch: b.Sketch()})
	}
	return mc
}

// matrixCluster is a corpus dealt to nShards shard servers by
// home, a coordinator over them, and the union store the answers are
// held to.
type matrixCluster struct {
	union  *store.Store
	shards []*store.Store
	urls   []string
	coord  *Coordinator
	url    string // the coordinator's
}

func newMatrixCluster(t testing.TB, mc matrixCorpus, nShards int, home func(i int, c placed) int, opt Options) *matrixCluster {
	t.Helper()
	openStore := func() *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	cl := &matrixCluster{union: openStore()}
	for i := 0; i < nShards; i++ {
		cl.shards = append(cl.shards, openStore())
	}
	for i, c := range mc.cands {
		if err := cl.union.Put(c.name, c.sketch); err != nil {
			t.Fatal(err)
		}
		if err := cl.shards[home(i, c)%nShards].Put(c.name, c.sketch); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range cl.shards {
		ts := httptest.NewServer(server.New(st, server.Options{ResultCacheBytes: 1 << 20}))
		t.Cleanup(ts.Close)
		cl.urls = append(cl.urls, ts.URL)
	}
	var err error
	if cl.coord, err = New(cl.urls, opt); err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(cl.coord)
	t.Cleanup(cs.Close)
	cl.url = cs.URL
	return cl
}

// matrixKnobs are the request knobs a matrix cell varies.
type matrixKnobs struct {
	Top       int
	NoCascade bool
}

const matrixMinJoin = 50

func sameRows(t testing.TB, label string, got []server.RankedResult, want []store.RankedSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, single node %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || math.Float64bits(g.MI) != math.Float64bits(w.MI) || g.Estimator != string(w.Estimator) || g.JoinSize != w.JoinSize {
			t.Fatalf("%s: row %d = %+v, single node %+v", label, i, g, w)
		}
	}
}

// checkAgainstUnion sends trains[0] to /v1/rank and all trains to
// /v1/rank/batch through the coordinator and holds both answers to the
// union store's exact full walk.
func (cl *matrixCluster) checkAgainstUnion(t *testing.T, trains []*core.Sketch, k matrixKnobs) {
	t.Helper()
	ctx := context.Background()
	wantRows, wantSkipped, err := cl.union.RankQuery(ctx, trains[0], store.RankOptions{
		Prefix: matrixPrefix, MinJoinSize: matrixMinJoin, K: 3, TopK: k.Top, NoCascade: true, NoIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The indexed exact pass and the full walk must agree on rows and on
	// what the overlap cut pruned.
	want, err := cl.union.RankBatch(ctx, trains, store.RankOptions{
		Prefix: matrixPrefix, MinJoinSize: matrixMinJoin, K: 3, TopK: k.Top, NoCascade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullWalk, err := cl.union.RankBatch(ctx, trains, store.RankOptions{
		Prefix: matrixPrefix, MinJoinSize: matrixMinJoin, K: 3, TopK: k.Top, NoCascade: true, NoIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	mj := matrixMinJoin
	status, raw := post(t, cl.url+"/v1/rank", mustMarshal(t, server.RankRequest{
		Sketch: sketchBase64(t, trains[0]), Prefix: matrixPrefix, MinJoin: &mj, K: 3,
		Top: k.Top, NoCascade: k.NoCascade,
	}))
	var single RankResponse
	if status != http.StatusOK || json.Unmarshal(raw, &single) != nil || single.Partial {
		t.Fatalf("/v1/rank: status %d: %s", status, raw)
	}
	sameRows(t, "/v1/rank", single.Ranked, wantRows)
	if !reflect.DeepEqual(single.Skipped, wantSkipped) {
		t.Fatalf("/v1/rank skipped %v, single node %v", single.Skipped, wantSkipped)
	}

	refs := make([]server.BatchTrainRef, len(trains))
	for q, tr := range trains {
		refs[q] = server.BatchTrainRef{Name: fmt.Sprintf("q%d", q), Sketch: sketchBase64(t, tr)}
	}
	status, raw = post(t, cl.url+"/v1/rank/batch", mustMarshal(t, server.RankBatchRequest{
		Trains: refs, Prefix: matrixPrefix, MinJoin: &mj, K: 3,
		Top: k.Top, NoCascade: k.NoCascade,
	}))
	var batch RankBatchResponse
	if status != http.StatusOK || json.Unmarshal(raw, &batch) != nil || batch.Partial || len(batch.Queries) != len(trains) {
		t.Fatalf("/v1/rank/batch: status %d: %s", status, raw)
	}
	for q := range trains {
		label := fmt.Sprintf("/v1/rank/batch q%d", q)
		sameRows(t, label, batch.Queries[q].Ranked, fullWalk.Queries[q].Ranked)
		sameRows(t, label+" (indexed reference)", batch.Queries[q].Ranked, want.Queries[q].Ranked)
		if p := batch.Queries[q].Pruned; p != want.Queries[q].Pruned || p != fullWalk.Queries[q].Pruned {
			t.Fatalf("%s: pruned %d, single node %d (full walk %d)", label, p, want.Queries[q].Pruned, fullWalk.Queries[q].Pruned)
		}
	}
	if !reflect.DeepEqual(batch.Skipped, want.Skipped) {
		t.Fatalf("/v1/rank/batch skipped %v, single node %v", batch.Skipped, want.Skipped)
	}
}

func TestClusterPlacementMatrix(t *testing.T) {
	roundRobin := func(i int, _ placed) int { return i }
	cohort, few, tied, categorical := cohortCorpus(t), fewCorpus(t), tiedCorpus(t), categoricalCorpus(t)
	cells := []struct {
		name   string
		corpus matrixCorpus
		home   func(nShards int) func(i int, c placed) int
		knobs  matrixKnobs
		// check reads the two-round counters after the cell's two queries.
		check func(t *testing.T, nShards int, cs CoordinatorStats)
	}{
		{name: "whole cohort on one shard", corpus: cohort, knobs: matrixKnobs{Top: 5},
			home: func(int) func(int, placed) int {
				return func(i int, c placed) int {
					if c.strong {
						return 0
					}
					return i
				}
			},
			check: func(t *testing.T, nShards int, cs CoordinatorStats) {
				// Every shard but the cohort's is settled by its bound on
				// the single query; the batch may need some of them.
				if cs.FloorQueries != 2 || cs.Round2Skipped < int64(nShards-1) || cs.Round2Requests < 2 || cs.FloorFallbacks != 0 {
					t.Fatalf("two-round counters %+v", cs)
				}
			}},
		{name: "cohort spread evenly", corpus: cohort, knobs: matrixKnobs{Top: 5},
			home: func(int) func(int, placed) int { return roundRobin }},
		{name: "fewer than K joinable candidates", corpus: few, knobs: matrixKnobs{Top: 10},
			home: func(int) func(int, placed) int { return roundRobin },
			check: func(t *testing.T, _ int, cs CoordinatorStats) {
				// Every shard showed all it has: no floor, no round 2.
				if cs.FloorQueries != 2 || cs.Round2Requests != 0 || cs.FloorFallbacks != 0 {
					t.Fatalf("two-round counters %+v", cs)
				}
			}},
		{name: "one shard without a joinable candidate", corpus: cohort, knobs: matrixKnobs{Top: 5},
			home: func(nShards int) func(int, placed) int {
				return func(i int, c placed) int {
					if c.inert {
						return nShards - 1
					}
					return i % (nShards - 1)
				}
			}},
		{name: "every candidate tied", corpus: tied, knobs: matrixKnobs{Top: 10},
			home: func(int) func(int, placed) int { return roundRobin }},
		{name: "categorical-categorical only", corpus: categorical, knobs: matrixKnobs{Top: 5},
			home: func(int) func(int, placed) int { return roundRobin },
			check: func(t *testing.T, nShards int, cs CoordinatorStats) {
				// Exempt pairs certify nothing: every shard gets round 2.
				if cs.FloorQueries != 2 || cs.Round2Requests != int64(2*nShards) || cs.Round2Skipped != 0 {
					t.Fatalf("two-round counters %+v", cs)
				}
			}},
		{name: "top beyond the catalog", corpus: cohort, knobs: matrixKnobs{Top: 1000},
			home: func(int) func(int, placed) int { return roundRobin }},
		{name: "top 0", corpus: cohort, knobs: matrixKnobs{},
			home: func(int) func(int, placed) int { return roundRobin },
			check: func(t *testing.T, _ int, cs CoordinatorStats) {
				if cs.FloorQueries != 0 || cs.Round2Requests != 0 {
					t.Fatalf("an uncut query ran a seed round: %+v", cs)
				}
			}},
		{name: "no_cascade", corpus: cohort, knobs: matrixKnobs{Top: 5, NoCascade: true},
			home: func(int) func(int, placed) int { return roundRobin },
			check: func(t *testing.T, _ int, cs CoordinatorStats) {
				if cs.FloorQueries != 0 || cs.Round2Requests != 0 {
					t.Fatalf("an uncascaded query ran a seed round: %+v", cs)
				}
			}},
	}
	for _, cell := range cells {
		for _, nShards := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/%d shards", cell.name, nShards), func(t *testing.T) {
				cl := newMatrixCluster(t, cell.corpus, nShards, cell.home(nShards), Options{})
				cl.checkAgainstUnion(t, cell.corpus.trains, cell.knobs)
				cs := cl.coord.Stats()
				if cell.check != nil {
					cell.check(t, nShards, cs.Coordinator)
				}
				var requests int64
				for _, sh := range cs.Shards {
					requests += sh.Requests
				}
				if requests > int64(2*2*nShards) {
					t.Fatalf("%d shard requests for 2 queries over %d shards, want at most 2 rounds each", requests, nShards)
				}
			})
		}
	}
}
