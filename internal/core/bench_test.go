package core

import (
	"fmt"
	"math/rand"
	"testing"

	"misketch/internal/mi"
)

// BenchmarkEstimateJoined times what the rank path's exact tier pays per
// (train, candidate) pair — JoinScratch, then EstimateJoined with the
// ordering hints the join left — on joins shaped like the benchmark's
// sel20k catalog: 256-entry sketches over 300 keys, a 4 000-row train
// whose keys repeat (so candidate values repeat in the sample, ~223
// samples per join), a 20-level target, planted and independent
// candidates alternating. Sub-benchmarks are named train×candidate:
// num×num is Mixed-KSG, num×cat (selective_cold's mixed pairs) and
// cat×num are DC-KSG with the numeric side's order coming from the train
// and from the candidate respectively.
func BenchmarkEstimateJoined(b *testing.B) {
	const keys, trainRows, nCands = 300, 4000, 16
	opt := Options{Method: TUPSK, Size: 256}
	signal := func(g int) float64 { return float64(g % 20) }
	label := func(l int) string { return fmt.Sprintf("category/region-000/level-%02d", l) }
	builder := func(role Role, numeric bool) *StreamBuilder {
		sb, err := NewStreamBuilder(role, numeric, opt)
		if err != nil {
			b.Fatal(err)
		}
		return sb
	}
	train := func(numeric bool) *TrainProbe {
		rng := rand.New(rand.NewSource(1))
		sb := builder(RoleTrain, numeric)
		for i := 0; i < trainRows; i++ {
			g := rng.Intn(keys)
			if numeric {
				sb.AddNum(fmt.Sprintf("k%d", g), signal(g)+0.25*rng.NormFloat64())
			} else {
				sb.AddStr(fmt.Sprintf("k%d", g), label((g+rng.Intn(2))%20))
			}
		}
		return CompileTrainProbe(sb.Sketch())
	}
	cands := func(numeric bool) []*Sketch {
		rng := rand.New(rand.NewSource(2))
		out := make([]*Sketch, nCands)
		for c := range out {
			sb := builder(RoleCandidate, numeric)
			for g := 0; g < keys; g++ {
				key := fmt.Sprintf("k%d", g)
				switch planted := c%2 == 0; {
				case numeric && planted:
					sb.AddNum(key, signal(g)+0.3*rng.NormFloat64())
				case numeric:
					sb.AddNum(key, rng.NormFloat64())
				case planted:
					sb.AddStr(key, label(g%20))
				default:
					sb.AddStr(key, label(rng.Intn(12)))
				}
			}
			out[c] = sb.Sketch()
			out[c].NumValOrder() // memoized on every cached sketch
		}
		return out
	}
	for _, tc := range []struct {
		name               string
		trainNum, candsNum bool
	}{{"num×num", true, true}, {"num×cat", true, false}, {"cat×num", false, true}} {
		b.Run(tc.name, func(b *testing.B) {
			probe, cs := train(tc.trainNum), cands(tc.candsNum)
			var s Scratch
			var sink mi.Result
			samples := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand := cs[i%nCands]
				js, err := probe.JoinScratch(cand, &s)
				if err != nil {
					b.Fatal(err)
				}
				sink = probe.EstimateJoined(cand, js, mi.DefaultK, &s)
				samples += sink.N
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}
