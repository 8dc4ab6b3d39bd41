package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"misketch/internal/core"
	"misketch/internal/synth"
)

// MinMI is a filter and Seed is a certified preview; neither may ever
// change a score. These tests hold both to the exact-only, full-walk
// ranking of the same catalog: a floored query is that ranking filtered
// to MI >= floor and cut at K, whatever the floor, the worker count or
// the tier that ran; a seed answer's rows carry the reference scores,
// its bound covers every row it left out, and it is the same answer at
// any worker count and on any run.

// exactReference is every train's full exact ranking of cascadeStore.
func exactReference(t *testing.T, st *Store, trains []*core.Sketch) []BatchQueryResult {
	t.Helper()
	ref, err := st.RankBatch(context.Background(), trains, RankOptions{
		Prefix: "casc/", MinJoinSize: 30, K: 3, NoCascade: true, NoIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref.Queries
}

// filtered is a reference ranking cut to MI >= floor and the top k.
func filtered(ref []RankedSketch, floor float64, k int) []RankedSketch {
	var out []RankedSketch
	for _, r := range ref {
		if r.MI >= floor && (k <= 0 || len(out) < k) {
			out = append(out, r)
		}
	}
	return out
}

func TestMinMIEqualsFilteredRanking(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ref := exactReference(t, st, trains)
	ctx := context.Background()

	// Floors: none, above every score, exactly a candidate's score (the
	// best, a middle one, the worst), one bit either side of one, and
	// random draws across the score range.
	num := ref[0].Ranked
	top := num[0].MI
	floors := []float64{0, top + 1, top, num[len(num)/2].MI, num[len(num)-1].MI,
		math.Nextafter(num[3].MI, math.Inf(1)), math.Nextafter(num[3].MI, 0)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		floors = append(floors, rng.Float64()*top)
	}
	for i, floor := range floors {
		// The categorical train gets another floor of the list, so the two
		// trains of one batch are never floored alike.
		minMI := []float64{floor, floors[(i+3)%len(floors)] / 4}
		for _, topK := range []int{1, 5, 100, 0} {
			for _, workers := range []int{1, 4} {
				for _, noCascade := range []bool{false, true} {
					label := fmt.Sprintf("floors=%v topK=%d workers=%d noCascade=%v", minMI, topK, workers, noCascade)
					opt := RankOptions{
						Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: topK, Workers: workers,
						NoCascade: noCascade, MinMI: minMI,
					}
					got, err := st.RankBatch(ctx, trains, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for q := range trains {
						diffRankings(t, fmt.Sprintf("%s train %d", label, q), got.Queries[q].Ranked, filtered(ref[q].Ranked, minMI[q], topK))
					}
					single, _, err := st.RankQuery(ctx, trains[0], RankOptions{
						Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: topK, Workers: workers,
						NoCascade: noCascade, MinMI: []float64{floor},
					})
					if err != nil {
						t.Fatalf("%s: RankQuery: %v", label, err)
					}
					diffRankings(t, label+" RankQuery", single, filtered(ref[0].Ranked, floor, topK))
				}
			}
		}
	}

	if _, err := st.RankBatch(ctx, trains, RankOptions{Prefix: "casc/", MinMI: []float64{1}}); err == nil {
		t.Fatal("RankBatch took 1 floor for 2 trains")
	}
}

// cohortStore holds synth.PlantedCohort(200): four strongly dependent
// candidates (c%64 == 0) far above a bulk of joinable noise — a catalog
// whose cheap scores separate, unlike cascadeStore's contested one.
func cohortStore(t *testing.T) (*Store, *core.Sketch) { return cohortStoreN(t, 200) }

// cohortStoreN is cohortStore at n candidates; 1000 is the benchmark's
// num1k catalog.
func cohortStoreN(t *testing.T, n int) (*Store, *core.Sketch) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	train, cands := synth.PlantedCohort(n)
	for c, sk := range cands {
		if err := st.Put(fmt.Sprintf("bench/c%04d", c), sk); err != nil {
			t.Fatal(err)
		}
	}
	return st, train
}

// TestMinMIFloorPrunes: the floor is not only a filter. With no strong
// candidate of its own a catalog scores most pairs exactly; handed the
// floor a strong catalog would reach, it scores almost none — and a seed
// answer over it scores exactly K and bounds the rest with a number.
func TestMinMIFloorPrunes(t *testing.T) {
	st, train := cohortStore(t)
	ctx := context.Background()
	for _, name := range []string{"bench/c0000", "bench/c0064", "bench/c0128", "bench/c0192"} {
		if err := st.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	exactPairs := func(opt RankOptions) (int64, *BatchResult) {
		t.Helper()
		opt.Prefix, opt.MinJoinSize, opt.K, opt.TopK, opt.Workers = "bench/", 100, 3, 3, 1
		before := st.Stats().CascadeExact
		res, err := st.RankBatch(ctx, []*core.Sketch{train}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st.Stats().CascadeExact - before, res
	}
	unfloored, _ := exactPairs(RankOptions{})
	// The deleted cohort scores 2.89 nats and up.
	const cohortFloor = 2.8
	floored, res := exactPairs(RankOptions{MinMI: []float64{cohortFloor}})
	if unfloored < 100 || floored > 5 || len(res.Queries[0].Ranked) != 0 {
		t.Fatalf("exact-tier pairs: %d unfloored, %d floored at %v nats (%d rows)", unfloored, floored, cohortFloor, len(res.Queries[0].Ranked))
	}
	seeded, res := exactPairs(RankOptions{Seed: true})
	if b := res.Queries[0].SeedBound; seeded != 3 || b <= 0 || b >= cohortFloor {
		t.Fatalf("seed answer scored %d pairs exactly under bound %v, want 3 under a bound in (0, %v)", seeded, b, cohortFloor)
	}
}

func TestSeedAnswer(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	twin, _ := cascadeStore(t, 60)
	memoOff(t, twin) // keeps no plan: every call runs phase 1 alone
	ref := exactReference(t, st, trains)
	ctx := context.Background()
	var planHits, sideHits int64
	seedOn := func(st *Store, trains []*core.Sketch, opt RankOptions) *BatchResult {
		t.Helper()
		opt.Prefix, opt.MinJoinSize, opt.K, opt.Seed = "casc/", 30, 3, true
		res, err := st.RankBatch(ctx, trains, opt)
		if err != nil {
			t.Fatal(err)
		}
		planHits, sideHits = planHits+res.PlanHits, sideHits+res.SideHits
		// Per call: the view it built, the plans it found or kept, the exact
		// answers a found probe plan remembered, and the visits and loads
		// they spared it.
		res.ViewBuild, res.PlanHits, res.PlanMisses, res.ExactMemoHits, res.Visited = 0, 0, 0, 0, 0
		res.SelectHits, res.SelectMisses, res.SideFills, res.Decoded, res.SideHits = 0, 0, 0, 0, 0
		return res
	}
	seed := func(opt RankOptions) *BatchResult { return seedOn(st, trains, opt) }

	// Each repeat ranks the trains again, which reuses their probe plan,
	// and fresh trains on their keys, which run phase 1 and, from the
	// third, answer it from the candidate sides: both answer what the
	// twin does.
	const k = 5
	want := seedOn(twin, trains, RankOptions{TopK: k, Workers: 1})
	for run := 0; run < 3; run++ {
		for i, workers := range []int{1, 2, 4} {
			opt := RankOptions{TopK: k, Workers: workers}
			if got := seed(opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d workers %d: seed answer differs from the twin's:\n%+v\n%+v", run, workers, got, want)
			}
			fresh := freshAll(trains, 1+3*run+i)
			if got, w := seedOn(st, fresh, opt), seedOn(twin, fresh, opt); !reflect.DeepEqual(got, w) {
				t.Fatalf("run %d workers %d: fresh trains' seed answer differs from the twin's:\n%+v\n%+v", run, workers, got, w)
			}
		}
	}
	if planHits == 0 || sideHits == 0 {
		t.Fatalf("fixture: %d plan hits, %d side hits", planHits, sideHits)
	}
	for q, qr := range want.Queries {
		if len(qr.Ranked) != k {
			t.Fatalf("train %d: %d seed rows, want %d", q, len(qr.Ranked), k)
		}
		shown := map[string]RankedSketch{}
		for _, row := range qr.Ranked {
			shown[row.Name] = row
		}
		checked := 0
		for _, r := range ref[q].Ranked {
			if row, ok := shown[r.Name]; ok {
				checked++
				diffRankings(t, "seed row "+r.Name, []RankedSketch{row}, []RankedSketch{r})
			} else if r.MI > qr.SeedBound {
				t.Fatalf("train %d: %s scores %v above the seed bound %v", q, r.Name, r.MI, qr.SeedBound)
			}
		}
		if checked != k {
			t.Fatalf("train %d: %d of %d seed rows are in the reference ranking", q, checked, k)
		}
	}
	// The categorical train left categorical–categorical pairs unscored,
	// which nothing bounds.
	if b := want.Queries[1].SeedBound; !math.IsInf(b, 1) {
		t.Fatalf("categorical train: seed bound %v, want +Inf (exempt pairs unscored)", b)
	}

	// K beyond the catalog: everything is a seed, nothing is left.
	all := seed(RankOptions{TopK: 1000})
	for q, qr := range all.Queries {
		diffRankings(t, fmt.Sprintf("all-seeds train %d", q), qr.Ranked, ref[q].Ranked)
		if qr.SeedBound != -1 {
			t.Fatalf("train %d: bound %v with nothing left, want -1", q, qr.SeedBound)
		}
	}
	// Without the cascade there is no cheap order to seed from: the
	// answer is the ranking and certifies nothing.
	for _, opt := range []RankOptions{{TopK: 0}, {TopK: k, NoCascade: true}} {
		for q, qr := range seed(opt).Queries {
			diffRankings(t, fmt.Sprintf("uncascaded %+v train %d", opt, q), qr.Ranked, filtered(ref[q].Ranked, 0, opt.TopK))
			if !math.IsInf(qr.SeedBound, 1) {
				t.Fatalf("uncascaded train %d: bound %v, want +Inf", q, qr.SeedBound)
			}
		}
	}
	// A floor drops seed rows under it and nothing else.
	floor := want.Queries[0].Ranked[2].MI
	floored := seed(RankOptions{TopK: k, MinMI: []float64{floor, 0}})
	diffRankings(t, "floored seeds", floored.Queries[0].Ranked, filtered(want.Queries[0].Ranked, floor, 0))
	if floored.Queries[0].SeedBound != want.Queries[0].SeedBound {
		t.Fatalf("floor moved the seed bound: %v vs %v", floored.Queries[0].SeedBound, want.Queries[0].SeedBound)
	}
}
