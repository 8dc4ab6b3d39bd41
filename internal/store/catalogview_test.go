package store

// Tests for the catalog view (catalogview.go): a differential random
// walk against the NoIndex oracle and a brute-force model, a -race hammer
// with a compaction loop beside the mutators, and guards that keep
// O(catalog) work from creeping back into a rank query or into Stats.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"misketch/internal/core"
)

// windowSketch builds a small numeric sketch over the key window
// [lo, lo+width) — the sliding-window geometry that gives every overlap
// regime (disjoint, marginal, fully joinable) between trains and
// candidates.
func windowSketch(t testing.TB, role core.Role, seed uint32, lo, width int, salt int64) *core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(salt))
	b, err := core.NewStreamBuilder(role, true, core.Options{Method: core.TUPSK, Size: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8*width; i++ {
		g := lo + i%width
		b.AddNum(fmt.Sprintf("g%d", g), float64(g%5)+rng.NormFloat64())
	}
	return b.Sketch()
}

func sameRanked(a, b []RankedSketch) bool {
	return slices.EqualFunc(a, b, func(x, y RankedSketch) bool {
		return x.Name == y.Name && x.JoinSize == y.JoinSize && x.Estimator == y.Estimator &&
			math.Float64bits(x.MI) == math.Float64bits(y.MI)
	})
}

// viewWalk is the differential harness: a store beside a model of what
// it must contain.
type viewWalk struct {
	t      *testing.T
	st     *Store
	model  map[string]*core.Sketch
	trains []*core.Sketch
	checks int // numbers the fresh trains the cascaded ranks of check send
}

// mustVisit is the brute-force visit set of a query: every joinable
// candidate under the prefix that no key index can exclude — it sits in
// a segment without an index, repeats a key hash, or really does overlap
// some train beyond the cutoff.
func (w *viewWalk) mustVisit(trains []*core.Sketch, prefix string, minJoin int) int64 {
	indexed := map[uint64]bool{}
	for _, info := range w.st.Segments() {
		indexed[info.Seq] = info.Indexed
	}
	var n int64
	for name, sk := range w.model {
		if !strings.HasPrefix(name, prefix) || sk.Seed != trains[0].Seed || sk.Role != core.RoleCandidate {
			continue
		}
		if minJoin < 0 {
			n++
			continue
		}
		if sk.Len() == 0 {
			continue
		}
		m, _ := w.st.Meta(name)
		visit := !indexed[m.Segment] || sk.HasDuplicateKeyHashes()
		for _, tr := range trains {
			visit = visit || core.KeyOverlap(tr, sk) > minJoin
		}
		if visit {
			n++
		}
	}
	return n
}

// check ranks every (prefix, cutoff) pair with and without the index and
// holds the indexed answers to the oracle's and to the model.
func (w *viewWalk) check(step string) {
	t := w.t
	t.Helper()
	ctx := context.Background()
	var want []string
	for name := range w.model {
		want = append(want, name)
	}
	sort.Strings(want)
	if got, _ := w.st.List(); !slices.Equal(got, want) {
		t.Fatalf("%s: List = %v, want %v", step, got, want)
	}
	metas := w.st.Metas()
	if len(metas) != len(want) {
		t.Fatalf("%s: Metas has %d records, want %d", step, len(metas), len(want))
	}
	for i, m := range metas {
		if cur, ok := w.st.Meta(want[i]); !ok || m != cur {
			t.Fatalf("%s: Metas[%d] = %+v, want %+v", step, i, m, cur)
		}
	}
	for _, prefix := range []string{"", "a/", "zz"} {
		for _, minJoin := range []int{-1, 0, 50} {
			label := fmt.Sprintf("%s prefix=%q minJoin=%d", step, prefix, minJoin)
			var wantSkipped []string
			for _, name := range want {
				if sk := w.model[name]; strings.HasPrefix(name, prefix) && (sk.Seed != w.trains[0].Seed || sk.Role != core.RoleCandidate) {
					wantSkipped = append(wantSkipped, name)
				}
			}

			// A fresh train on the first one's keys: phase 1 runs, and
			// visits what it would.
			w.checks++
			train := freshOn(w.trains[0], w.checks)
			opt := RankOptions{Prefix: prefix, MinJoinSize: minJoin, K: 3, TopK: 5}
			before := w.st.Stats().DiskReads
			res, err := w.st.RankBatch(ctx, []*core.Sketch{train}, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, gotSkipped := res.Queries[0].Ranked, res.Skipped
			// Every visited candidate is decoded once at most: by phase 1,
			// or, if phase 1 answered it from the view's candidate sides,
			// by phase 2 when it scores the pair exactly.
			reads, must := w.st.Stats().DiskReads-before, w.mustVisit(w.trains[:1], prefix, minJoin)
			if res.Visited != must || reads != res.Decoded || res.Decoded < res.Visited-res.SideHits || res.Decoded > res.Visited {
				t.Fatalf("%s: the cascaded rank visited %d candidates and decoded %d (%d read), %d side hits; brute force says %d",
					label, res.Visited, res.Decoded, reads, res.SideHits, must)
			}
			opt.NoIndex = true
			ref, refSkipped, err := w.st.RankQuery(ctx, train, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !sameRanked(got, ref) {
				t.Fatalf("%s: RankQuery diverges from NoIndex:\n got %+v\nwant %+v", label, got, ref)
			}
			if !slices.Equal(gotSkipped, wantSkipped) || !slices.Equal(refSkipped, wantSkipped) {
				t.Fatalf("%s: Skipped = %v (NoIndex %v), want %v", label, gotSkipped, refSkipped, wantSkipped)
			}

			bopt := RankOptions{Prefix: prefix, MinJoinSize: minJoin, K: 3}
			before = w.st.Stats().DiskReads
			bgot, err := w.st.RankBatch(ctx, w.trains, bopt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if reads, must := w.st.Stats().DiskReads-before, w.mustVisit(w.trains, prefix, minJoin); reads != must {
				t.Fatalf("%s: RankBatch decoded %d candidates, brute force says %d", label, reads, must)
			}
			bopt.NoIndex = true
			bref, err := w.st.RankBatch(ctx, w.trains, bopt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(bgot.Skipped, wantSkipped) || !slices.Equal(bref.Skipped, wantSkipped) {
				t.Fatalf("%s: batch Skipped = %v (NoIndex %v), want %v", label, bgot.Skipped, bref.Skipped, wantSkipped)
			}
			for q := range w.trains {
				if bgot.Queries[q].Pruned != bref.Queries[q].Pruned {
					t.Fatalf("%s train %d: Pruned %d, NoIndex %d", label, q, bgot.Queries[q].Pruned, bref.Queries[q].Pruned)
				}
				if !sameRanked(bgot.Queries[q].Ranked, bref.Queries[q].Ranked) {
					t.Fatalf("%s train %d: batch ranking diverges from NoIndex", label, q)
				}
			}
		}
	}
}

// TestCatalogViewDifferentialWalk drives a seeded random walk of every
// operation that changes the manifest or the segment table and, after
// each step, holds rankings, Pruned, Skipped, List, Metas and the decode
// count to the NoIndex oracle and a brute-force model. The cache is off
// so DiskReads counts exactly the candidates a query visited.
func TestCatalogViewDifferentialWalk(t *testing.T) {
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		open := func() *Store {
			// Small segments, so the walk seals (and indexes) many.
			st, err := OpenWithOptions(dir, OpenOptions{CacheBytes: -1, SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		w := &viewWalk{t: t, st: open(), model: map[string]*core.Sketch{}}
		defer func() { w.st.Close() }()
		for q := 0; q < 8; q++ {
			w.trains = append(w.trains, windowSketch(t, core.RoleTrain, 0, q*30, 90, int64(900+q)))
		}
		rng := rand.New(rand.NewSource(5))
		name := func() string { return fmt.Sprintf("%c/c%02d", "ab"[rng.Intn(2)], rng.Intn(14)) }
		put := func(name string, sk *core.Sketch) {
			if err := w.st.Put(name, sk); err != nil {
				t.Fatal(err)
			}
			w.model[name] = sk
		}
		ctx := context.Background()
		for step := 0; step < 70; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 8 || len(w.model) < 6:
				op = "put"
				put(name(), windowSketch(t, core.RoleCandidate, 0, rng.Intn(300), 80, int64(step)))
			case r == 8:
				op = "put other seed"
				put(name(), windowSketch(t, core.RoleCandidate, 9, rng.Intn(300), 80, int64(step)))
			case r == 9:
				op = "put train role"
				put(name(), windowSketch(t, core.RoleTrain, 0, rng.Intn(300), 80, int64(step)))
			case r == 10:
				op = "put empty"
				put(name(), &core.Sketch{Method: core.TUPSK, Role: core.RoleCandidate, Numeric: true})
			case r == 11:
				op = "put duplicated hash"
				put(name(), &core.Sketch{
					Method: core.TUPSK, Role: core.RoleCandidate, Numeric: true,
					KeyHashes: []uint32{0xdeadbeef, 0xdeadbeef}, Nums: []float64{1, 2}, SourceRows: 2,
				})
			case r < 15:
				op = "delete"
				names, _ := w.st.List()
				victim := names[rng.Intn(len(names))]
				if err := w.st.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(w.model, victim)
			case r == 15:
				op = "flush"
				if err := w.st.Flush(); err != nil {
					t.Fatal(err)
				}
			case r == 16 || r == 17:
				op = "compact"
				if _, err := w.st.Compact(ctx); err != nil {
					t.Fatal(err)
				}
			case r == 18:
				// Reads every segment and changes nothing: the check below
				// holds the rankings to the model the last step left.
				op = "verify"
				if err := w.st.Verify(); err != nil {
					t.Fatal(err)
				}
			default:
				op = "reopen"
				if err := w.st.Close(); err != nil {
					t.Fatal(err)
				}
				w.st = open()
			}
			w.check(fmt.Sprintf("step %d (%s)", step, op))
		}
		if w.st.Stats().CandidatesSkippedNoDecode == 0 {
			t.Fatal("degenerate walk: the index never excluded a candidate")
		}
	})
}

// TestCompactionAloneKeepsCandidatesLive pins the reason the view is not
// keyed on Gen: a compaction moves every record and retires the segments
// a view resolved them against, yet bumps no generation. The next rank
// must see the same live candidates at their new homes — none Skipped,
// rankings bit-identical — through a view rebuilt after the swap.
func TestCompactionAloneKeepsCandidatesLive(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for c := 0; c < 40; c++ {
		if err := st.Put(fmt.Sprintf("c%02d", c), windowSketch(t, core.RoleCandidate, 0, c*7, 80, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 60, 90, 77)
	ctx := context.Background()
	opt := RankOptions{MinJoinSize: 20, K: 3}
	before, skipped, err := st.RankQuery(ctx, train, opt)
	if err != nil || len(before) == 0 || len(skipped) != 0 {
		t.Fatalf("fixture: %d ranked, skipped %v, err %v", len(before), skipped, err)
	}
	st.mu.Lock()
	old := st.view
	st.mu.Unlock()
	if old == nil {
		t.Fatal("rank left no view behind")
	}
	gen := st.Gen()
	cs, err := st.Compact(ctx)
	if err != nil || !cs.Compacted {
		t.Fatalf("Compact = %+v, %v; want a real pass", cs, err)
	}
	if st.Gen() != gen {
		t.Fatal("compaction bumped the generation; this test no longer tests what it says")
	}
	st.mu.Lock()
	stale := st.view
	st.mu.Unlock()
	if stale != nil {
		t.Fatal("the compaction swap left the pre-compaction view published")
	}
	after, skipped, err := st.RankQuery(ctx, train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("compaction alone turned live candidates into Skipped: %v", skipped)
	}
	if !sameRanked(after, before) {
		t.Fatalf("ranking changed across a compaction:\n got %+v\nwant %+v", after, before)
	}
}

// TestCatalogViewRaceHammer races rankers against Put/Delete churn and a
// compaction loop (run it under -race). Stable candidates are never
// mutated, so every query must rank all of them, bit-identically, and
// never report one Skipped — whether it caught the view before or after
// a swap. After each compaction pass the published view, if any, may
// only name segments the backend still serves.
func TestCatalogViewRaceHammer(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const stable = 24
	for c := 0; c < stable; c++ {
		if err := st.Put(fmt.Sprintf("stable/c%02d", c), windowSketch(t, core.RoleCandidate, 0, 50+c, 80, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 60, 90, 77)
	ctx := context.Background()
	opt := RankOptions{Prefix: "stable/", MinJoinSize: 20, K: 3}
	want, _, err := st.RankQuery(ctx, train, opt)
	if err != nil || len(want) != stable {
		t.Fatalf("fixture: %d of %d stable candidates ranked, err %v", len(want), stable, err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { // mutator: compatible, incompatible and deleted churn
		name := fmt.Sprintf("churn/c%02d", i%12)
		var err error
		switch i % 4 {
		case 0, 1:
			err = st.Put(name, windowSketch(t, core.RoleCandidate, 0, 40+i%60, 80, int64(i)))
		case 2:
			err = st.Put(name, windowSketch(t, core.RoleCandidate, 9, 40, 80, int64(i)))
		default:
			if err = st.Delete(name); errors.Is(err, ErrNotFound) {
				err = nil
			}
		}
		if err != nil {
			t.Error(err)
			stop.Store(true)
		}
	})
	var passes atomic.Int64
	run(func(int) { // compactor
		cs, err := st.Compact(ctx)
		if err != nil {
			t.Error(err)
			stop.Store(true)
			return
		}
		if cs.Compacted {
			passes.Add(1)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.view == nil {
			return
		}
		fb := st.backend
		fb.segMu.Lock()
		defer fb.segMu.Unlock()
		for seq := range st.view.pins {
			if _, ok := fb.segs[seq]; !ok && (fb.active == nil || fb.active.seg.seq != seq) {
				t.Errorf("published view names segment %d, which the backend no longer serves", seq)
				stop.Store(true)
			}
		}
	})
	for r := 0; r < 3; r++ {
		r := r
		run(func(i int) {
			o := opt
			if r == 1 {
				o.Prefix = "" // the churn is visible too; the stable ones must still all rank
			}
			got, skipped, err := st.RankQuery(ctx, train, o)
			if err != nil {
				t.Error(err)
				stop.Store(true)
				return
			}
			for _, name := range skipped {
				if strings.HasPrefix(name, "stable/") {
					t.Errorf("live candidate %s reported Skipped", name)
					stop.Store(true)
				}
			}
			got = slices.DeleteFunc(got, func(rs RankedSketch) bool { return !strings.HasPrefix(rs.Name, "stable/") })
			if !sameRanked(got, want) {
				t.Errorf("stable candidates ranked differently under churn: %d results, want %d", len(got), len(want))
				stop.Store(true)
			}
			if r == 0 && i >= 150 {
				stop.Store(true)
			}
		})
	}
	// Two more rankers rank the train across TopK values, so between
	// mutations they reuse each other's phase-1 plan: a plan met on a view
	// is that view's, and its candidates load wherever a compaction has
	// moved them since.
	hits0 := st.Stats().PlanHits
	for r := 0; r < 2; r++ {
		r := r
		run(func(i int) {
			o := opt
			o.TopK = []int{5, 12, 30}[(i+r)%3]
			got, skipped, err := st.RankQuery(ctx, train, o)
			if err != nil {
				t.Error(err)
				stop.Store(true)
				return
			}
			if len(skipped) != 0 || !sameRanked(got, want[:min(o.TopK, stable)]) {
				t.Errorf("top %d on a shared plan: %d rows, skipped %v", o.TopK, len(got), skipped)
				stop.Store(true)
			}
		})
	}
	wg.Wait()
	if !t.Failed() && passes.Load() == 0 {
		t.Fatal("degenerate hammer: no compaction pass completed beside the rankers")
	}
	if !t.Failed() && st.Stats().PlanHits == hits0 {
		t.Fatal("degenerate hammer: no rank reused a plan")
	}
}

// selectiveStore builds a sealed, indexed catalog of n small candidates
// spread evenly over disjoint key domains, and returns it with a train
// over domain 0 — which n/domains candidates match.
func selectiveStore(t testing.TB, n, domains int) (*Store, *core.Sketch) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	perDomain := make([]*core.Sketch, domains)
	for d := range perDomain {
		perDomain[d] = windowSketch(t, core.RoleCandidate, 0, d*1000, 40, int64(d))
	}
	for c := 0; c < n; c++ {
		if err := st.Put(fmt.Sprintf("c%05d", c), perDomain[c%domains]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, windowSketch(t, core.RoleTrain, 0, 0, 40, 77)
}

// TestRankAllocationDoesNotScaleWithCatalog is the guard on the view's
// reason to exist: a warm selective top-10 query allocates for the
// candidates it visits and the postings it touches, not for the catalog
// around them. Both catalogs hold the same 20 matching candidates — 1%
// of 2 000, 0.1% of 20 000 — because each visited candidate honestly
// costs ~170 B (its cascade task, its slot in the decode table), which
// at a fixed 1% would grow bytes/op 3.8x with nothing O(catalog) in it;
// holding the visit set still leaves only the term this test is after.
// The per-query manifest copy it replaced measured in megabytes here.
func TestRankAllocationDoesNotScaleWithCatalog(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 20 000-sketch store; needs sync.Pool to keep what it is given")
	}
	bytesPerOp := func(n, domains int) int64 {
		st, train := selectiveStore(t, n, domains)
		opt := RankOptions{MinJoinSize: 10, K: 3, TopK: 10}
		rank := func() {
			ranked, _, err := st.RankQuery(context.Background(), train, opt)
			if err != nil || len(ranked) != 10 {
				t.Fatalf("RankQuery over %d candidates: %d results, err %v", n, len(ranked), err)
			}
		}
		rank() // builds the view, fills the cache and the pools
		if skipped := st.Stats().CandidatesSkippedNoDecode; skipped != int64(n-20) {
			t.Fatalf("fixture: index excluded %d of %d candidates, want all but 20", skipped, n)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rank()
			}
		})
		return res.AllocedBytesPerOp()
	}
	small, large := bytesPerOp(2000, 100), bytesPerOp(20000, 1000)
	t.Logf("bytes/op with 20 matching candidates: %d among 2 000, %d among 20 000", small, large)
	if float64(large) >= 1.5*float64(small) {
		t.Fatalf("rank allocates %d B/op among 20 000 candidates vs %d among 2 000: O(catalog) allocation is back on the query path", large, small)
	}
}

// TestPutRacingCompactionKeepsAckedSketches is the regression test for
// a Put whose record was appended before a compaction sealed the active
// segment but indexed after the pass snapshotted the manifest: the pass
// did not copy the record, then retired the segment holding it, and the
// acked sketch read back as "segment retired" (or as the version it had
// overwritten). Every Put that returned must be readable afterwards.
func TestPutRacingCompactionKeepsAckedSketches(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{SegmentBytes: 16 << 10, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sk := windowSketch(t, core.RoleCandidate, 0, 0, 40, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := st.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const puts = 1500
	for i := 0; i < puts; i++ {
		if err := st.Put(fmt.Sprintf("c%05d", i), sk); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for i := 0; i < puts; i++ {
		if _, err := st.Get(fmt.Sprintf("c%05d", i)); err != nil {
			t.Fatalf("acked Put lost to a concurrent compaction: %v", err)
		}
	}
}

// TestVerifyRacingCompaction runs Verify in a loop beside Put/Delete churn
// and a compaction loop (run it under -race -count=5). On a healthy store
// it must always return nil, and it must never read a retired mapping: it
// lists the segments and pins them in one step, so a segment a pass
// installs and retires between a listing and a pin is never read unpinned
// — the race detector sees the teardown's write of the mapping, or the
// read faults on the unmapped pages.
func TestVerifyRacingCompaction(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f(i)
			}
		}()
	}
	fail := func(err error) {
		t.Error(err)
		stop.Store(true)
	}
	run(func(i int) { // mutator: overwrites and deletes, so every pass has garbage
		name := fmt.Sprintf("churn/c%02d", i%16)
		if i%5 == 4 {
			if err := st.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
				fail(err)
			}
		} else if err := st.Put(name, windowSketch(t, core.RoleCandidate, 0, i%60, 80, int64(i))); err != nil {
			fail(err)
		}
	})
	var passes atomic.Int64
	run(func(int) { // compactor
		cs, err := st.Compact(context.Background())
		if err != nil {
			fail(err)
		} else if cs.Compacted {
			passes.Add(1)
		}
	})
	run(func(i int) { // verifier
		if err := st.Verify(); err != nil {
			fail(fmt.Errorf("Verify on a healthy store: %w", err))
		}
		if passes.Load() >= 100 { // enough retirements to land inside a Verify
			stop.Store(true)
		}
	})
	wg.Wait()
}

// TestStatsDoesNoPerEntryWork pins Stats (and so /v1/stats and every
// load-balancer probe behind it) as O(1) in the catalog: LiveBytes is a
// running sum kept where the manifest is written, so a Stats call
// neither walks the manifest nor builds the view a mutation dropped.
func TestStatsDoesNoPerEntryWork(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sk := windowSketch(t, core.RoleCandidate, 0, 0, 10, 1)
	for c := 0; c < 20000; c++ {
		if err := st.Put(fmt.Sprintf("c%05d", c), sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("c00007"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { st.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %v times per call", allocs)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.view != nil {
		t.Fatal("Stats built the catalog view")
	}
	var sum int64
	all := st.cat.merged()
	for _, m := range all {
		sum += m.Bytes
	}
	if st.cat.bytes != sum || st.cat.live != len(all) || len(all) != 19999 {
		t.Fatalf("running bytes %d over %d entries, manifest sums to %d over %d", st.cat.bytes, st.cat.live, sum, len(all))
	}
}

// TestLiveBytesTracksManifest checks the running sum Stats reports
// against the per-segment accounting (which still walks the manifest)
// across every kind of manifest write.
func TestLiveBytesTracksManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenWithOptions(dir, OpenOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		var want int64
		for _, info := range st.Segments() {
			want += info.LiveBytes
		}
		if got := st.Stats().LiveBytes; got != want || want == 0 {
			t.Fatalf("%s: Stats.LiveBytes = %d, segments account for %d", step, got, want)
		}
	}
	for c := 0; c < 30; c++ {
		if err := st.Put(fmt.Sprintf("c%02d", c%20), windowSketch(t, core.RoleCandidate, 0, c, 30+c, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	check("puts and overwrites")
	if err := st.Delete("c03"); err != nil {
		t.Fatal(err)
	}
	check("delete")
	if cs, err := st.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("Compact = %+v, %v", cs, err)
	}
	check("compressing compaction") // record lengths change in the swap
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("reopen")
}

// TestCatalogViewOrdinalsMatchSearch: the view's merge walk gives every
// indexed candidate the ordinal a binary search of its segment's record
// offsets gives it, over a compacted segment (records in name order) and
// a sealed append segment whose records arrived in shuffled name order,
// overwriting and deleting compacted names and each other.
func TestCatalogViewOrdinalsMatchSearch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := func(c int) string { return fmt.Sprintf("c%03d", c) }
	put := func(c int, salt int64) {
		if err := st.Put(name(c), windowSketch(t, core.RoleCandidate, 0, c%50, 30, salt)); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 60; c++ {
		put(c, int64(c))
	}
	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2; round++ {
		for _, c := range rng.Perm(100) {
			switch {
			case c%9 == 4:
				if err := st.Delete(name(c)); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			case c >= 60 || c%4 == 0:
				put(c, int64(1000*(round+1)+c))
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.mu.Lock()
	v := st.viewLocked()
	st.mu.Unlock()
	if len(v.segs) != 2 {
		t.Fatalf("fixture: the view indexes %d segments, want the compacted and the append one", len(v.segs))
	}
	for _, vs := range v.segs {
		want := make([]int32, len(vs.pos))
		found := 0
		for i, m := range v.entries {
			if m.Role != core.RoleCandidate || m.Entries == 0 || st.backend.keyIndexOf(m.Segment) != vs.ix {
				continue
			}
			if ord, ok := vs.ix.ordinalOf(m.Offset); ok {
				want[ord] = int32(i) + 1
				found++
			}
		}
		if found == 0 || !slices.Equal(vs.pos, want) {
			t.Fatalf("merge walk ordinals %v, binary search %v", vs.pos, want)
		}
	}
}
