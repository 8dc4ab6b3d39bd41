package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"misketch/internal/core"
)

// TestRankQueryWorkersConsistent checks that the worker fan-out override
// never changes a ranking: any worker count returns the same candidates,
// order, and bit-identical MI values as the default fan-out.
func TestRankQueryWorkersConsistent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	opt := core.Options{Method: core.TUPSK, Size: 64}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		tb.AddNum(fmt.Sprintf("g%d", rng.Intn(90)), rng.NormFloat64())
	}
	train := tb.Sketch()
	for c := 0; c < 40; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 90; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
		}
		if err := st.Put(fmt.Sprintf("c%02d", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	base, skipped, err := st.RankQuery(ctx, train, RankOptions{MinJoinSize: 10, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 || len(skipped) != 0 {
		t.Fatalf("base ranking: %d results, %d skipped", len(base), len(skipped))
	}
	for _, workers := range []int{1, 2, 3, 7} {
		got, _, err := st.RankQuery(ctx, train, RankOptions{MinJoinSize: 10, K: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results != %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i].Name != base[i].Name || got[i].JoinSize != base[i].JoinSize ||
				math.Float64bits(got[i].MI) != math.Float64bits(base[i].MI) {
				t.Fatalf("workers=%d result %d diverges: %+v vs %+v", workers, i, got[i], base[i])
			}
		}
	}

	top, _, err := st.RankQuery(ctx, train, RankOptions{MinJoinSize: 10, K: 3, TopK: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("topK: got %d results", len(top))
	}
	for i := range top {
		if top[i] != base[i] {
			t.Fatalf("topK result %d diverges: %+v vs %+v", i, top[i], base[i])
		}
	}
}
