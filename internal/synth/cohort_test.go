package synth

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"misketch/internal/core"
)

// TestPlantedCohortBytesPinned holds the corpus to the bytes the two
// copies of this generator (bench_test.go, `misketch bench`) produced
// before they were folded into one: the train, the first cohort member,
// its straggler, a bulk candidate, and the second cohort/straggler pair.
// `misketch bench` rows and the CI cluster smoke's shard stores are
// built from these sketches, so a drift here shifts every number
// measured on them.
func TestPlantedCohortBytesPinned(t *testing.T) {
	digest := func(sk *core.Sketch) string {
		var buf bytes.Buffer
		if _, err := sk.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	want := map[int]string{
		0:   "6d1e1086a7cc9d5aa69dc6d3894d8e89fd85ca18e77761a3e260e599b3d69610",
		1:   "66a3595d7459ed078e5482bbaa5ea8c7be68eb3989fb83b8791fe8d1236a0195",
		2:   "5b2fbde4e0139399172577821bcad1a74a2cfa070665cca75a015222a514bc00",
		64:  "e8dd66b651a5eeeaadf76e4fc9a1eac673550f954a4ff644a086ea3b65c6df79",
		65:  "662b7e3a704674490cda2e427336dc62776791b8d043d4b2ad44613d3747ceb5",
		129: "073867613fb002866027065ce8fdb11381594ed9a24264e3dfca31d0a06da5f3",
	}
	train, cands := PlantedCohort(130)
	if got := digest(train); got != "6b622efdae64c26fc9800044a67e0a50cb5583011e46b3fbc24c101cede16760" {
		t.Errorf("train sketch drifted: %s", got)
	}
	n := 0
	for c, sk := range cands {
		if c != n {
			t.Fatalf("candidate %d yielded at position %d", c, n)
		}
		n++
		if w, ok := want[c]; ok && digest(sk) != w {
			t.Errorf("candidate %d drifted: %s", c, digest(sk))
		}
	}
	if n != 130 {
		t.Fatalf("yielded %d candidates, want 130", n)
	}
}
