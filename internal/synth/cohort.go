package synth

import (
	"fmt"
	"iter"
	"math/rand"

	"misketch/internal/core"
)

// PlantedCohort generates the store-rank corpus — the one `datagen
// -kind cohort` builds shard stores from and the pinned cascade tests
// rank — as a train sketch and a sequence of (c, candidate sketch) for
// c in [0, nCand).
//
// The corpus is a heterogeneous discovery workload, the shape the paper's
// ranking scenario assumes: the train target carries a 20-level signal
// over a 400-key universe (a 256-entry sketch of 4000 rows), a small
// planted cohort of candidates (c%64 == 0) shares that signal at graded
// noise scales, 0.08..0.46 and up — strongly to moderately dependent
// features — a straggler after each (c%64 == 1) depends on it weakly
// enough to fall around the cascade's decision boundary, and the bulk
// of the catalog is joinable but pure noise. A realistic top-10
// therefore sits well above the noise floor — the regime the ranking
// cascade exploits by settling the noise bulk with its cheap tier. (An
// all-noise corpus, every candidate MI ≈ 0 and the top-10 decided by
// estimator jitter, measures the same per-pair estimator cost but is
// not a discovery workload at all.)
//
// Every sketch comes off one seeded rng stream, so the corpus is the
// same bytes on every run and a caller that stores only some of the
// candidates (a shard's slice, say) must still draw all of them. For
// the same reason the sequence can be ranged over once.
func PlantedCohort(nCand int) (train *core.Sketch, cands iter.Seq2[int, *core.Sketch]) {
	rng := rand.New(rand.NewSource(17))
	builder := func(role core.Role) *core.StreamBuilder {
		b, err := core.NewStreamBuilder(role, true, core.Options{Method: core.TUPSK, Size: 256})
		if err != nil {
			panic(err) // fixed, streamable options: unreachable
		}
		return b
	}
	signal := func(g int) float64 { return float64(g % 20) }
	tb := builder(core.RoleTrain)
	for i := 0; i < 4000; i++ {
		g := rng.Intn(400)
		tb.AddNum(fmt.Sprintf("g%d", g), signal(g)+0.25*rng.NormFloat64())
	}
	return tb.Sketch(), func(yield func(int, *core.Sketch) bool) {
		for c := 0; c < nCand; c++ {
			cb := builder(core.RoleCandidate)
			for g := 0; g < 400; g++ {
				var v float64
				switch {
				case c%64 == 0:
					v = signal(g) + (0.08+0.035*float64(c/64))*rng.NormFloat64()
				case c%64 == 1:
					v = signal(g) + (1.0+float64(c/64))*rng.NormFloat64()
				default:
					v = rng.NormFloat64()
				}
				cb.AddNum(fmt.Sprintf("g%d", g), v)
			}
			if !yield(c, cb.Sketch()) {
				return
			}
		}
	}
}
