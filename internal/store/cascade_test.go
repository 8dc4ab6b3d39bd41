package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"misketch/internal/core"
)

// The cascade's contract is absolute: for any margin (including zero),
// any worker count, and any top-K bound, the ranked results must be
// bit-for-bit what the exact-only pass returns. The cheap tier may only
// change which pairs pay the exact estimator — visible in the counters,
// never in the results. These tests pin that contract across the
// estimator families (tie-heavy and continuous numeric via MixedKSG,
// mixed categorical–numeric via DCKSG, exempt categorical–categorical
// via the plug-in) and prove the margin does real work: adversarial
// pairs whose cheap score lands below the running K-th are rescued by
// the margin and still reach the exact tier.

// cascadeStore builds a store whose candidates span every cascade
// regime against two trains (numeric and categorical): a graded cohort
// of dependent continuous columns (contested top-K boundary), tie-heavy
// integer-valued columns, aligned and independent categorical columns,
// and an independent continuous bulk.
func cascadeStore(t testing.TB, nCand int) (*Store, []*core.Sketch) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	opt := core.Options{Method: core.TUPSK, Size: 256}
	signal := func(g int) float64 { return float64(g % 20) }

	tbNum, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		g := rng.Intn(300)
		tbNum.AddNum(fmt.Sprintf("g%d", g), signal(g)+0.25*rng.NormFloat64())
	}
	tbCat, err := core.NewStreamBuilder(core.RoleTrain, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		g := rng.Intn(300)
		tbCat.AddStr(fmt.Sprintf("g%d", g), fmt.Sprintf("L%d", (g+rng.Intn(2))%8))
	}
	trains := []*core.Sketch{tbNum.Sketch(), tbCat.Sketch()}

	for c := 0; c < nCand; c++ {
		numeric := c%6 != 3 && c%6 != 4
		cb, err := core.NewStreamBuilder(core.RoleCandidate, numeric, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 300; g++ {
			key := fmt.Sprintf("g%d", g)
			switch c % 6 {
			case 0, 1:
				// Dependent continuous at graded noise: a dense strength
				// spectrum, so the top-K boundary is contested and the
				// margin band is populated.
				cb.AddNum(key, signal(g)+(0.1+0.08*float64(c/6))*rng.NormFloat64())
			case 2:
				// Tie-heavy: few distinct values, heavy repetition.
				cb.AddNum(key, float64((g+c)%5))
			case 3:
				// Categorical aligned with the key structure: DCKSG
				// against the numeric train, exempt plug-in against the
				// categorical train.
				cb.AddStr(key, fmt.Sprintf("v%d", (g+c)%6))
			case 4:
				// Independent categorical.
				cb.AddStr(key, fmt.Sprintf("v%d", rng.Intn(6)))
			default:
				if c%12 == 5 {
					// Sleeper — the adversarial cheap-tier inversion: a
					// few extreme outliers collapse equal-width binning
					// to a couple of cells, so the binned score is ~0
					// while the exact estimator still resolves a top-K
					// dependence. Only the saturation guard (score ≈
					// its binned ceiling) keeps it in the exact tier.
					v := signal(g) + (0.1+0.05*float64(c/12))*rng.NormFloat64()
					if g%97 == 0 {
						v = 1e6
					}
					cb.AddNum(key, v)
				} else {
					// Independent continuous bulk.
					cb.AddNum(key, rng.NormFloat64())
				}
			}
		}
		if err := st.Put(fmt.Sprintf("casc/c%03d#x", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	return st, trains
}

// diffRankings fails the test unless the two rankings agree bit for bit.
func diffRankings(t *testing.T, label string, got, want []RankedSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results with cascade, %d without", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].JoinSize != want[i].JoinSize ||
			got[i].Estimator != want[i].Estimator ||
			math.Float64bits(got[i].MI) != math.Float64bits(want[i].MI) {
			t.Fatalf("%s: result %d diverges: cascade %+v vs exact %+v",
				label, i, got[i], want[i])
		}
	}
}

// TestCascadeBitIdentical is the differential harness: across top-K
// bounds (including the boundary K=1, a K larger than the eligible
// count, and the unbounded rank-everything mode) and worker counts, the
// cascade's output must be bit-identical to the exact-only pass — for
// the batch pipeline and the single-train RankQuery path alike.
func TestCascadeBitIdentical(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ctx := context.Background()
	anyCheapOnly := false
	for _, topK := range []int{1, 10, 100, 0} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("topK=%d workers=%d", topK, workers)
			base := RankOptions{
				Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: topK, Workers: workers,
			}
			exactOpt := base
			exactOpt.NoCascade = true
			pre := st.Stats()
			got, err := st.RankBatch(ctx, trains, base)
			if err != nil {
				t.Fatal(err)
			}
			mid := st.Stats()
			want, err := st.RankBatch(ctx, trains, exactOpt)
			if err != nil {
				t.Fatal(err)
			}
			post := st.Stats()
			for q := range trains {
				if len(want.Queries[q].Ranked) == 0 {
					t.Fatalf("%s train %d: degenerate fixture, nothing ranked", label, q)
				}
				diffRankings(t, fmt.Sprintf("%s train %d", label, q),
					got.Queries[q].Ranked, want.Queries[q].Ranked)
				if got.Queries[q].Pruned != want.Queries[q].Pruned {
					t.Fatalf("%s train %d: prefilter pruned %d with cascade, %d without",
						label, q, got.Queries[q].Pruned, want.Queries[q].Pruned)
				}
			}
			if len(got.Skipped) != len(want.Skipped) {
				t.Fatalf("%s: skipped %d with cascade, %d without", label, len(got.Skipped), len(want.Skipped))
			}
			if mid.CascadeCheapOnly > pre.CascadeCheapOnly {
				anyCheapOnly = true
			}
			// The exact-only pass must never touch the cascade counters.
			if post.CascadeCheapOnly != mid.CascadeCheapOnly ||
				post.CascadeExact != mid.CascadeExact ||
				post.CascadeMarginRescues != mid.CascadeMarginRescues {
				t.Fatalf("%s: NoCascade run moved cascade counters: %+v -> %+v", label, mid, post)
			}

			// The single-train path must hold the same identity.
			ranked, _, err := st.RankQuery(ctx, trains[0], RankOptions{
				Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: topK, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			diffRankings(t, label+" RankQuery", ranked, want.Queries[0].Ranked)
		}
	}
	if !anyCheapOnly {
		t.Fatal("degenerate fixture: the cascade never settled a pair cheaply, so the differential proves nothing")
	}
}

// TestCascadeCounters pins the counter semantics: pairs that pass the
// prefilter and min-join cut are either settled cheaply or pay the
// exact tier (the two counters partition them), rescues are a subset of
// exact runs, and unbounded or NoCascade queries leave every counter
// untouched.
func TestCascadeCounters(t *testing.T) {
	st, trains := cascadeStore(t, 48)
	ctx := context.Background()
	opt := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, Workers: 2}

	// The unbounded query runs no cascade and also measures the scored
	// pair count: every surviving pair appears in its ranking.
	pre := st.Stats()
	all, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	post := st.Stats()
	if post.CascadeCheapOnly != pre.CascadeCheapOnly || post.CascadeExact != pre.CascadeExact {
		t.Fatalf("unbounded query moved cascade counters: %+v -> %+v", pre, post)
	}
	scored := int64(0)
	for q := range all.Queries {
		scored += int64(len(all.Queries[q].Ranked))
	}

	topOpt := opt
	topOpt.TopK = 5
	pre = post
	if _, err := st.RankBatch(ctx, trains, topOpt); err != nil {
		t.Fatal(err)
	}
	post = st.Stats()
	cheap := post.CascadeCheapOnly - pre.CascadeCheapOnly
	exact := post.CascadeExact - pre.CascadeExact
	rescues := post.CascadeMarginRescues - pre.CascadeMarginRescues
	if cheap+exact != scored {
		t.Fatalf("counters do not partition the scored pairs: %d cheap-only + %d exact != %d scored",
			cheap, exact, scored)
	}
	if cheap == 0 {
		t.Fatal("top-K cascade settled nothing cheaply on a fixture built to be prunable")
	}
	if exact < int64(topOpt.TopK) {
		t.Fatalf("only %d exact runs for a top-%d query", exact, topOpt.TopK)
	}
	if rescues < 0 || rescues > exact {
		t.Fatalf("rescues %d outside [0, exact=%d]", rescues, exact)
	}
}

// TestCascadeMarginSweep proves the margin and saturation guard are
// load-bearing. The fixture's sleeper candidates are adversarial
// cheap-tier inversions: their binned score is ~0 (outlier-collapsed
// bins) yet their exact MI ranks top-K. At the calibrated default
// margin (and any wider one) the results stay bit-identical AND the
// rescue counter shows those pairs were admitted only thanks to the
// guard; stripping the margin to zero demonstrably breaks identity —
// exactly the failure the calibration experiment sizes the margin to
// prevent. Widening the margin only moves pairs from the cheap tier to
// the exact tier, never changes results.
func TestCascadeMarginSweep(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	ctx := context.Background()
	numTrain := trains[:1] // numeric train only: every pair has a cheap tier
	base := RankOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 5, Workers: 2}
	exactOpt := base
	exactOpt.NoCascade = true
	want, err := st.RankBatch(ctx, numTrain, exactOpt)
	if err != nil {
		t.Fatal(err)
	}

	prevExact := int64(-1)
	for _, margin := range []float64{0, 1.5, 3} { // 0 = calibrated default
		pre := st.Stats()
		got, err := st.RankBatch(ctx, numTrain, RankOptions{
			Prefix: base.Prefix, MinJoinSize: base.MinJoinSize, K: base.K,
			TopK: base.TopK, Workers: base.Workers, CascadeMargin: margin,
		})
		if err != nil {
			t.Fatal(err)
		}
		post := st.Stats()
		exact := post.CascadeExact - pre.CascadeExact
		rescues := post.CascadeMarginRescues - pre.CascadeMarginRescues
		label := fmt.Sprintf("margin=%g", margin)
		diffRankings(t, label, got.Queries[0].Ranked, want.Queries[0].Ranked)
		// The sleepers' cheap scores sit far below the running K-th by
		// the time phase 2 reaches them (descending-cheap order), so
		// each one that lands in the top K must be counted a rescue.
		if rescues == 0 {
			t.Fatalf("%s: no margin/guard rescue observed on a fixture with planted cheap-tier inversions", label)
		}
		// A wider margin can only admit more pairs to the exact tier.
		if prevExact >= 0 && exact < prevExact {
			t.Fatalf("%s: exact runs dropped from %d to %d as the margin widened", label, prevExact, exact)
		}
		prevExact = exact
	}

	// Margin zero (CascadeMargin < 0) strips the safety the calibration
	// bought. The sleepers' cheap scores then sit below the K-th bound
	// with no margin to save them and a collapsed ceiling that
	// satisfies the guard check, so they are pruned — and the top K
	// visibly loses results the exact pass has. This is the negative
	// control: if identity survived a zero margin, the margin would be
	// dead weight.
	got, err := st.RankBatch(ctx, numTrain, RankOptions{
		Prefix: base.Prefix, MinJoinSize: base.MinJoinSize, K: base.K,
		TopK: base.TopK, Workers: base.Workers, CascadeMargin: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	same := len(got.Queries[0].Ranked) == len(want.Queries[0].Ranked)
	if same {
		for i := range want.Queries[0].Ranked {
			if got.Queries[0].Ranked[i].Name != want.Queries[0].Ranked[i].Name {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("zero margin still returned the exact top-K: the planted inversions never tested the margin")
	}
}
