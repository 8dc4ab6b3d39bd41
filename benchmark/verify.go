package main

// The post-window verifier. Sampled answers are recomputed on the
// catalog state they were answered from with the reference path —
// Store.RankQuery with NoCascade and NoIndex, every candidate loaded
// and scored by the exact estimator — and must agree name for name and
// MI bit for bit. On the planted catalogs the top of every answer must
// also be made of planted candidates: an estimator that is wrong the
// same way on both paths still fails.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"misketch"
)

// oracle recomputes answers. state, when set, moves the catalogs to
// "the first m mid-run mutations applied" before a recomputation.
type oracle struct {
	stores []*misketch.Store
	state  func(m int) error
}

// rank is the reference answer: per-store exact full walks merged under
// the store's (MI desc, name asc) order.
func (o *oracle) rank(train *misketch.Sketch, p rankParams) ([]misketch.RankedSketch, error) {
	var all []misketch.RankedSketch
	for _, st := range o.stores {
		ranked, _, err := st.RankQuery(context.Background(), train, misketch.RankOptions{
			Prefix: p.prefix, MinJoinSize: p.minJoin, K: misketch.DefaultK, TopK: p.top,
			NoCascade: true, NoIndex: true,
		})
		if err != nil {
			return nil, err
		}
		all = append(all, ranked...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].MI != all[j].MI {
			return all[i].MI > all[j].MI
		}
		return all[i].Name < all[j].Name
	})
	if p.top > 0 && len(all) > p.top {
		all = all[:p.top]
	}
	return all, nil
}

// verdict is the verifier's tally.
type verdict struct {
	verified   int
	mismatched int
	first      string // the first disagreement, for the operator
}

func (v *verdict) fail(format string, args ...any) {
	v.mismatched++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

func (v *verdict) add(o verdict) {
	v.verified += o.verified
	v.mismatched += o.mismatched
	if v.first == "" {
		v.first = o.first
	}
}

// pick returns at most n of samples, evenly spaced.
func pick(samples []sample, n int) []sample {
	if len(samples) <= n {
		return samples
	}
	out := make([]sample, n)
	for i := range out {
		out[i] = samples[i*len(samples)/n]
	}
	return out
}

// verify recomputes up to maxVerify of the samples. planted and
// plantedTotal drive the cohort check (planted nil: skipped).
func verify(o *oracle, samples []sample, maxVerify int, planted func(string) bool, plantedTotal int) verdict {
	var v verdict
	for _, s := range pick(samples, maxVerify) {
		v.verified++
		answers, err := decodeAnswers(s)
		if err != nil {
			v.fail("%s: %v", s.req.path, err)
			continue
		}
		if planted != nil {
			if why := cohortCheck(answers, planted, plantedTotal); why != "" {
				v.fail("%s: %s", s.req.path, why)
				continue
			}
		}
		// The answer must match the reference at one of the catalog
		// states it can have been computed from.
		why := ""
		for m := s.lo; m <= s.hi; m++ {
			if o.state != nil {
				if err := o.state(m); err != nil {
					why = err.Error()
					break
				}
			}
			if why = o.compare(s.req, answers); why == "" {
				break
			}
		}
		if why != "" {
			v.fail("%s (mutations %d..%d): %s", s.req.path, s.lo, s.hi, why)
		}
	}
	return v
}

// decodeAnswers parses a recorded body into one ranked list per train.
// Coordinator responses are a superset of single-node ones, so one pair
// of types reads both; a partial answer is a failed one.
func decodeAnswers(s sample) ([][]misketch.RankedResult, error) {
	if s.req.path == "/v1/rank/batch" {
		var resp misketch.ClusterRankBatchResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return nil, err
		}
		if resp.Partial {
			return nil, fmt.Errorf("partial answer")
		}
		if len(resp.Queries) != len(s.req.trains) {
			return nil, fmt.Errorf("%d query results for %d trains", len(resp.Queries), len(s.req.trains))
		}
		out := make([][]misketch.RankedResult, len(resp.Queries))
		for i, q := range resp.Queries {
			out[i] = q.Ranked
		}
		return out, nil
	}
	var resp misketch.ClusterRankResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return nil, err
	}
	if resp.Partial {
		return nil, fmt.Errorf("partial answer")
	}
	return [][]misketch.RankedResult{resp.Ranked}, nil
}

// compare returns "" when every train's answer equals the reference.
func (o *oracle) compare(req request, answers [][]misketch.RankedResult) string {
	for i, train := range req.trains {
		want, err := o.rank(train, req.params)
		if err != nil {
			return fmt.Sprintf("reference rank: %v", err)
		}
		got := answers[i]
		if len(got) != len(want) {
			return fmt.Sprintf("train %d: %d results, reference has %d", i, len(got), len(want))
		}
		for j := range want {
			g, w := got[j], want[j]
			if g.Name != w.Name || math.Float64bits(g.MI) != math.Float64bits(w.MI) ||
				g.Estimator != string(w.Estimator) || g.JoinSize != w.JoinSize {
				return fmt.Sprintf("train %d rank %d: got %s mi=%v join=%d, reference %s mi=%v join=%d",
					i, j, g.Name, g.MI, g.JoinSize, w.Name, w.MI, w.JoinSize)
			}
		}
	}
	return ""
}

// cohortCheck requires four fifths of each answer's top ten (or all the
// planted candidates there are, if fewer) to be planted names.
func cohortCheck(answers [][]misketch.RankedResult, planted func(string) bool, plantedTotal int) string {
	for i, ranked := range answers {
		n := min(10, len(ranked))
		hits := 0
		for _, r := range ranked[:n] {
			if planted(r.Name) {
				hits++
			}
		}
		if need := min(n*8/10, plantedTotal); hits < need || n == 0 {
			return fmt.Sprintf("train %d: %d of the top %d are planted candidates, want %d", i, hits, n, need)
		}
	}
	return ""
}

// countPlanted counts the planted candidates the stores hold.
func countPlanted(stores []*misketch.Store, planted func(string) bool) (int, error) {
	total := 0
	for _, st := range stores {
		names, err := st.List()
		if err != nil {
			return 0, err
		}
		for _, name := range names {
			if planted(name) {
				total++
			}
		}
	}
	return total, nil
}

// mutationReplica is the oracle for zipf_mutate, whose catalog changes
// mid-run: an in-memory copy of the base catalog that state(m) moves to
// "the first m mutations applied", forwards or backwards.
func mutationReplica(gen func(emit) error, mutation func(i int) *misketch.Sketch) (*oracle, func() error, error) {
	st, err := misketch.OpenStoreWithOptions("", misketch.OpenStoreOptions{Backend: misketch.BackendMem})
	if err != nil {
		return nil, nil, err
	}
	if err := gen(st.Put); err != nil {
		return nil, nil, err
	}
	applied := 0
	state := func(m int) error {
		for ; applied < m; applied++ {
			if err := st.Put(mutName(applied), mutation(applied)); err != nil {
				return err
			}
		}
		for ; applied > m; applied-- {
			if err := st.Delete(mutName(applied - 1)); err != nil {
				return err
			}
		}
		return nil
	}
	return &oracle{stores: []*misketch.Store{st}, state: state}, st.Close, nil
}
