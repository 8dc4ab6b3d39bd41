package store

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"misketch/internal/core"
)

// corpusStore builds a store with nCand stable numeric candidate
// sketches under "corpus/" plus a matching train sketch, all sharing the
// default seed.
func corpusStore(t *testing.T, dir string, nCand int) (*Store, *core.Sketch) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	opt := core.Options{Method: core.TUPSK, Size: 64}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(80)), rng.NormFloat64())
	}
	train := tb.Sketch()
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 80; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%4)+rng.NormFloat64())
		}
		if err := st.Put(fmt.Sprintf("corpus/c%02d", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	return st, train
}

// numericCandidate builds a candidate sketch with the given options over
// a fixed key universe.
func numericCandidate(t *testing.T, opt core.Options, salt int64) *core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(100 + salt))
	cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 80; g++ {
		cb.AddNum(fmt.Sprintf("g%d", g), rng.NormFloat64())
	}
	return cb.Sketch()
}

// TestRankDuringPutNotHalfVisible is the regression test for the
// Put/Delete-while-Rank race: a candidate admitted by the manifest
// snapshot whose sketch file is concurrently replaced with an
// incompatible sketch (different hash seed) or deleted must be moved to
// the skipped list — never fail the query, and never surface an entry
// that is half old metadata, half new bytes. Stable candidates must keep
// bit-identical MI values throughout the churn.
func TestRankDuringPutNotHalfVisible(t *testing.T) {
	st, train := corpusStore(t, t.TempDir(), 16)
	ctx := context.Background()

	want, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "corpus/", MinJoinSize: 5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty baseline ranking")
	}
	wantMI := make(map[string]float64, len(want))
	for _, r := range want {
		wantMI[r.Name] = r.MI
	}

	const churnName = "corpus/churn"
	compatible := numericCandidate(t, core.Options{Method: core.TUPSK, Size: 64}, 1)
	incompatible := numericCandidate(t, core.Options{Method: core.TUPSK, Size: 64, Seed: 99}, 2)

	stop := make(chan struct{})
	var churner sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				err = st.Put(churnName, compatible)
			case 1:
				err = st.Put(churnName, incompatible)
			case 2:
				if derr := st.Delete(churnName); derr != nil {
					// Deleting an already-deleted name is benign here.
					err = nil
					_ = derr
				}
			}
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
		}
	}()

	for iter := 0; iter < 60; iter++ {
		ranked, skipped, err := st.RankQuery(ctx, train, RankOptions{
			Prefix: "corpus/", MinJoinSize: 5, K: 3, Workers: 4,
		})
		if err != nil {
			t.Fatalf("iter %d: rank failed during churn: %v", iter, err)
		}
		seen := make(map[string]bool, len(ranked))
		for _, r := range ranked {
			seen[r.Name] = true
			if r.Name == churnName {
				// Ranked under the compatible sketch: legitimate.
				continue
			}
			if got, ok := wantMI[r.Name]; !ok || got != r.MI {
				t.Fatalf("iter %d: stable candidate %q changed: MI %v (want %v)", iter, r.Name, r.MI, wantMI[r.Name])
			}
		}
		for _, name := range skipped {
			if name != churnName {
				t.Fatalf("iter %d: stable candidate %q skipped", iter, name)
			}
		}
		for name := range wantMI {
			if !seen[name] {
				t.Fatalf("iter %d: stable candidate %q missing", iter, name)
			}
		}
	}
	close(stop)
	churner.Wait()

	stats := st.Stats()
	if stats.RankQueries < 61 {
		t.Fatalf("RankQueries counter = %d, want >= 61", stats.RankQueries)
	}
	if stats.Puts == 0 {
		t.Fatal("Puts counter stayed zero during churn")
	}
}

// TestRankQueryScratchPool checks that repeated queries at different
// worker counts, drawing from the store's one scratch pool, return the
// same order and bit-identical MI (no cross-query scratch contamination).
func TestRankQueryScratchPool(t *testing.T) {
	st, train := corpusStore(t, t.TempDir(), 24)
	ctx := context.Background()

	want, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "corpus/", MinJoinSize: 5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 5; iter++ {
		got, _, err := st.RankQuery(ctx, train, RankOptions{
			Prefix: "corpus/", MinJoinSize: 5, K: 3, Workers: 1 + iter%4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d results, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: result %d = %+v, want %+v", iter, i, got[i], want[i])
			}
		}
	}
}
