package store

// Index selection stops reading postings once every eligible candidate
// is selected. The walk it replaced — every posting of every probe in
// every segment, then a sort and a compact — lives on here as the
// reference, and generated catalogs hold the two to the same visit list
// and the same excluded count whether the exit fires or not.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"misketch/internal/core"
)

// selectVisitReference is selectVisit's body before the early exit. It
// also returns the postings it read: all there are for these probes.
func selectVisitReference(v *catalogView, seed uint32, eligible []int32, lo, hi int32, probes []*core.TrainProbe, minJoin int) (visit []int32, prunedAll, read int) {
	if len(v.segs) == 0 {
		return eligible, 0, 0
	}
	sc := &selectScratch{acc: make([]int64, v.maxRecords)}
	for _, vs := range v.segs {
		for q := range probes {
			hashes, mults := probes[q].DistinctKeyHashes()
			sc.touched = sc.touched[:0]
			for i, hk := range hashes {
				vs.ix.accumulate(hk, int64(mults[i]), math.MaxInt64, sc)
			}
			for _, ord := range sc.touched {
				if p := vs.pos[ord] - 1; sc.acc[ord] > int64(minJoin) && p >= lo && p < hi && v.entries[p].Seed == seed {
					visit = append(visit, p)
				}
				sc.acc[ord] = 0
			}
		}
	}
	for _, p := range within(v.always, lo, hi) {
		if v.entries[p].Seed == seed {
			visit = append(visit, p)
		}
	}
	slices.Sort(visit)
	visit = slices.Compact(visit)
	return visit, len(eligible) - len(visit), sc.read
}

// selectCatalog writes a generated catalog into sealed segments plus an
// unsealed tail: candidates over key windows drawn around [0, span) under
// two name prefixes, every ninth on a second hash seed, every eleventh
// repeating a key hash (half of those a hash the trains carry).
func selectCatalog(t *testing.T, rng *rand.Rand, segments, perSegment, span, width int, trains []*core.Sketch) *Store {
	t.Helper()
	dir := t.TempDir()
	for seg := 0; ; seg++ {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < perSegment; c++ {
			id := seg*perSegment + c
			seed := trains[0].Seed
			if id%9 == 4 {
				seed = 7
			}
			sk := windowSketch(t, core.RoleCandidate, seed, rng.Intn(span), width, int64(id))
			if id%11 == 5 {
				hk := uint32(0xdeadbeef)
				if id%2 == 0 {
					hk = trains[0].KeyHashes[rng.Intn(len(trains[0].KeyHashes))]
				}
				sk = &core.Sketch{
					Method: core.TUPSK, Role: core.RoleCandidate, Seed: seed, Numeric: true,
					KeyHashes: []uint32{hk, hk}, Nums: []float64{1, 2}, SourceRows: 2,
				}
			}
			if err := st.Put(fmt.Sprintf("%c/c%03d", 'a'+byte(id%2), id), sk); err != nil {
				t.Fatal(err)
			}
		}
		if seg == segments { // the unsealed tail
			t.Cleanup(func() { st.Close() })
			if ss := st.Stats(); ss.IndexedSegments != segments || ss.Segments != segments+1 {
				t.Fatalf("fixture has %d/%d segments indexed, want %d/%d", ss.IndexedSegments, ss.Segments, segments, segments+1)
			}
			return st
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectVisitMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var exited, walked, all, some, none int
	for _, shape := range []struct {
		name                              string
		segments, perSegment, span, width int
	}{
		{"scattered", 3, 14, 300, 40}, // the index excludes most candidates
		{"clustered", 2, 20, 30, 60},  // most candidates join every train
		{"stacked", 2, 12, 1, 50},     // every candidate shares the trains' window
	} {
		trains := make([]*core.Sketch, 8)
		probes := make([]*core.TrainProbe, len(trains))
		for q := range trains {
			trains[q] = windowSketch(t, core.RoleTrain, 0, rng.Intn(shape.span), shape.width, int64(900+q))
			probes[q] = core.CompileTrainProbe(trains[q])
		}
		st := selectCatalog(t, rng, shape.segments, shape.perSegment, shape.span, shape.width, trains)
		st.mu.Lock()
		v := st.viewLocked()
		svs := map[uint32]*seedView{trains[0].Seed: v.seed(trains[0].Seed), 7: v.seed(7)}
		st.mu.Unlock()
		if len(v.segs) != shape.segments || len(v.always) == 0 {
			t.Fatalf("%s: view has %d indexed segments and %d always-visited candidates", shape.name, len(v.segs), len(v.always))
		}
		sc := new(selectScratch)
		for _, nProbes := range []int{1, 2, 5, 8} {
			for _, minJoin := range []int{-1, 0, 3, 20, 63, 1 << 20} {
				for _, prefix := range []string{"", "a/", "b/", "b/c01", "zz"} {
					for seed, sv := range svs {
						label := fmt.Sprintf("%s probes=%d minJoin=%d prefix=%q seed=%d", shape.name, nProbes, minJoin, prefix, seed)
						lo, hi := v.prefixRange(prefix)
						eligible := within(sv.cands, lo, hi)
						want, wantPruned, present := selectVisitReference(v, seed, eligible, lo, hi, probes[:nProbes], minJoin)
						got, gotPruned := sc.selectVisit(v, seed, eligible, lo, hi, probes[:nProbes], minJoin)
						if !slices.Equal(got, want) || gotPruned != wantPruned {
							t.Fatalf("%s: visit %v excluding %d, the full walk gives %v excluding %d", label, got, gotPruned, want, wantPruned)
						}
						if i := slices.IndexFunc(sc.acc, func(a int64) bool { return a != 0 }); i >= 0 {
							t.Fatalf("%s: acc[%d] = %d after the call, want all zero", label, i, sc.acc[i])
						}
						switch {
						case sc.read > present:
							t.Fatalf("%s: read %d postings of %d", label, sc.read, present)
						case sc.read < present: // the exit fired: nothing was excluded
							exited++
							if gotPruned != 0 || len(got) != len(eligible) || len(got) > 0 && &got[0] != &eligible[0] {
								t.Fatalf("%s: stopped after %d of %d postings but returned %v excluding %d, not eligible itself", label, sc.read, present, got, gotPruned)
							}
						case gotPruned > 0: // something to exclude: the walk ran to its end
							walked++
						}
						switch {
						case len(eligible) == 0:
						case gotPruned == 0:
							all++
						case len(got) == len(within(v.always, lo, hi)) || len(got) == 0:
							none++
						default:
							some++
						}
					}
				}
			}
		}
	}
	if exited == 0 || walked == 0 || all == 0 || some == 0 || none == 0 {
		t.Fatalf("degenerate fixtures: %d early exits, %d full walks; all/some/no candidates selected %d/%d/%d times", exited, walked, all, some, none)
	}
	t.Logf("%d early exits, %d full walks; all/some/no candidates selected %d/%d/%d times", exited, walked, all, some, none)
}

// TestSelectVisitStopsEarly pins the exit itself on the shape it exists
// for — every candidate joins the train, the index can exclude nothing —
// and its absence where one candidate cannot join.
func TestSelectVisitStopsEarly(t *testing.T) {
	train := windowSketch(t, core.RoleTrain, 0, 0, 50, 1)
	probes := []*core.TrainProbe{core.CompileTrainProbe(train)}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		if err := st.Put(fmt.Sprintf("c%03d", c), windowSketch(t, core.RoleCandidate, 0, 0, 50, int64(10+c))); err != nil {
			t.Fatal(err)
		}
	}
	dir := st.Dir()
	reopen := func() (*catalogView, []int32) {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		v := st.viewLocked()
		return v, v.seed(train.Seed).cands
	}
	t.Cleanup(func() { st.Close() })

	sc := new(selectScratch)
	v, eligible := reopen()
	_, _, present := selectVisitReference(v, train.Seed, eligible, 0, int32(len(v.entries)), probes, 10)
	got, pruned := sc.selectVisit(v, train.Seed, eligible, 0, int32(len(v.entries)), probes, 10)
	if len(eligible) != 40 || pruned != 0 || &got[0] != &eligible[0] || len(got) != 40 {
		t.Fatalf("visit %v excluding %d of %d, want eligible itself", got, pruned, len(eligible))
	}
	if sc.read >= present/2 {
		t.Fatalf("read %d of %d postings to select 40 of 40 candidates past a cutoff of 10 in 64", sc.read, present)
	}

	// One candidate outside the train's window: the walk has something to
	// exclude, and proves it only by reading every posting.
	if err := st.Put("c999", windowSketch(t, core.RoleCandidate, 0, 500, 50, 99)); err != nil {
		t.Fatal(err)
	}
	v, eligible = reopen()
	_, _, present = selectVisitReference(v, train.Seed, eligible, 0, int32(len(v.entries)), probes, 10)
	got, pruned = sc.selectVisit(v, train.Seed, eligible, 0, int32(len(v.entries)), probes, 10)
	if len(got) != 40 || pruned != 1 || sc.read != present {
		t.Fatalf("visit of %d excluding %d after %d of %d postings, want 40, 1 and every posting", len(got), pruned, sc.read, present)
	}
}
